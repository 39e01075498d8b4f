import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpanet import validation
from qpanet._engine import (
    _BLOCK,
    NeighborMarch,
    _ScaledRows,
    power_tail_fit,
    tail_power_sum,
)
from qpanet.analytic import (
    DEFAULT_ELL_CAP,
    ModelParams,
    QualityAggregate,
    _degree_cdf,
    _degree_median,
    _degree_stats,
    _joint_rows,
    _joint_tail,
    _quality_given_degree,
    build_joint_table,
    joint_probability,
    neighbor_degree_dist,
    neighbor_degree_first_moment,
    neighbor_quality_dist,
    nn_probability,
    write_nn_table,
)
from qpanet.errors import DomainError, UndefinedConditionalError
from qpanet.quality import make_bernoulli, make_custom, make_exponential

from test_acceptance import exact_neighbor_quality_law


def ba_params(beta):
    # all-zero quality: the growth model reduces to pure degree-driven
    # attachment
    return ModelParams(beta=beta, quality=make_bernoulli(1.0, 8))


class TestJointProbability:
    def test_pure_degree_reduction_values(self):
        p = ba_params(2)
        assert joint_probability(p, 2, 0) == pytest.approx(0.5, abs=1e-12)
        assert joint_probability(p, 3, 0) == pytest.approx(0.2, abs=1e-12)

    def test_step_below_beta(self):
        p = ba_params(2)
        assert joint_probability(p, 1, 0) == 0.0
        assert joint_probability(p, 0, 0) == 0.0
        q = ModelParams(beta=4, quality=make_exponential(0.5, 4))
        assert joint_probability(q, 3, 2) == 0.0

    def test_pure_degree_closed_form_sweep(self):
        for beta in (2, 4, 8):
            p = ba_params(beta)
            ks = np.arange(beta, 1001)
            closed = 2.0 * beta * (beta + 1) / (ks * (ks + 1.0) * (ks + 2.0))
            got = np.array([joint_probability(p, int(k), 0) for k in ks])
            assert np.max(np.abs(got - closed)) < 1e-10

    def test_domain_errors(self):
        p = ba_params(2)
        with pytest.raises(DomainError):
            joint_probability(p, 2, 9)
        with pytest.raises(DomainError):
            joint_probability(p, 2, -1)

    def test_zero_probability_quality_gives_zero(self):
        p = ba_params(2)
        assert joint_probability(p, 5, 3) == 0.0

    def test_rows_and_tail_against_mpmath(self):
        # both closed forms exponentiate a sum of log-gammas as large as
        # lnG(k + theta + 3 + g), so their relative error grows with that
        # magnitude; 40-digit mpmath on random sparse PMFs, k to 5000
        rng = np.random.default_rng(19)
        k_top = 5000
        for _ in range(12):
            n = int(rng.integers(2, 10))
            weights = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            weights[int(rng.integers(n))] += 0.05
            beta = int(rng.integers(1, 17))
            p = ModelParams(beta=beta, quality=make_custom(weights))
            rows = _joint_rows(p, beta, k_top)
            for k in np.unique(np.geomspace(beta, k_top, 30).astype(int)):
                k = int(k)
                tail = _joint_tail(p, k)
                for th in np.flatnonzero(p.quality.probs):
                    th = int(th)
                    want_row, want_tail = _joint_mpmath(p, k, th)
                    magnitude = math.lgamma(k + th + 3 + p.mu_over_beta)
                    rtol = 8 * np.finfo(float).eps * magnitude
                    for got, want in (
                        (rows[k - beta, th], want_row),
                        (joint_probability(p, k, th), want_row),
                        (tail[th], want_tail),
                    ):
                        rel = float(abs(mpmath.mpf(got) - want) / want)
                        assert rel <= rtol, (beta, k, th, rel, rtol)


def _joint_mpmath(params, k, theta):
    """P(k, theta) and P(degree > k, theta) at 40 digits, from the float
    rho(theta) and g that the program itself reads."""
    beta = params.beta
    with mpmath.workdps(40):
        g = mpmath.mpf(params.mu_over_beta)
        ln_common = (
            mpmath.log(mpmath.mpf(params.quality.probs[theta]))
            + mpmath.loggamma(beta + theta + 2 + g)
            - mpmath.loggamma(beta + theta)
            - mpmath.loggamma(k + theta + 3 + g)
        )
        row = mpmath.exp(ln_common + mpmath.log(2 + g) + mpmath.loggamma(k + theta))
        tail = mpmath.exp(ln_common + mpmath.loggamma(k + 1 + theta))
    return row, tail


class TestPureDegreeReduction:
    @settings(max_examples=25, deadline=None)
    @given(beta=st.integers(1, 64))
    def test_joint_rows_and_tail_amplitude(self, beta):
        # all-zero quality: P(k) = 2 beta (beta+1) / (k (k+1) (k+2)) over the
        # whole joint block, and the neighbor law's tail amplitude c0 reduces
        # to beta (k+2)/k
        params = ba_params(beta)
        ks = np.arange(beta, beta + 1024, dtype=float)
        closed = 2.0 * beta * (beta + 1) / (ks * (ks + 1) * (ks + 2))
        got = _joint_rows(params, beta, beta + 1023)[:, 0]
        rtol = 8 * np.finfo(float).eps * np.array([math.lgamma(k + 3) for k in ks])
        assert np.all(np.abs(got - closed) <= rtol * closed)
        march = NeighborMarch(params, l_resolve=64)
        while True:
            k = march.k
            assert march.tail_amplitude() == pytest.approx([beta * (k + 2) / k], rel=1e-12)
            if k == beta + 40:
                break
            march.advance()


class TestJointTable:
    def test_mean_degree_is_twice_beta(self):
        table = build_joint_table(ba_params(2))
        assert table.mean_degree == pytest.approx(4.0, abs=0.01)

    def test_mean_degree_quality_insensitive(self):
        # every arrival contributes beta stubs, so the mean degree is
        # 2 beta regardless of the quality distribution
        for pmf in (make_exponential(0.5, 4), make_bernoulli(0.3, 8)):
            table = build_joint_table(ModelParams(beta=3, quality=pmf))
            assert table.mean_degree == pytest.approx(6.0, abs=0.01)

    def test_normalization(self):
        table = build_joint_table(ModelParams(beta=2, quality=make_exponential(0.5, 4)))
        assert table.probs.sum() + table.tail_mass == pytest.approx(1.0, abs=1e-6)
        assert abs(table.probs.sum() + table.tail_mass - 1.0) < 1e-12

    def test_step_rows_zero(self):
        table = build_joint_table(ModelParams(beta=4, quality=make_exponential(0.5, 4)))
        assert table.k_values[0] == 4
        assert np.all(table.probs >= 0.0)

    def test_conditional_mean_closed_form(self):
        # E[k | theta] = (2+g)(beta+theta)/(1+g) - theta with g = mu/beta;
        # cross-checked here against the summed table itself plus the exact
        # first-moment tail, sum_{k>K} k P(k | theta) =
        # (2+g)/(1+g) G(K+2+theta) G(beta+theta+2+g) / (G(beta+theta) G(K+theta+3+g))
        # - theta P(k > K | theta)
        params = ModelParams(beta=2, quality=make_exponential(0.5, 2))
        beta, g = params.beta, params.mu_over_beta
        table = build_joint_table(params)
        big_k = table.k_max
        for theta in (0, 1, 2):
            pk = table.p_k_given_theta(theta)
            resolved = float(np.dot(table.k_values, pk))
            tail = (2.0 + g) / (1.0 + g) * math.exp(
                math.lgamma(big_k + 2 + theta)
                + math.lgamma(beta + theta + 2 + g)
                - math.lgamma(beta + theta)
                - math.lgamma(big_k + theta + 3 + g)
            ) - theta * table.tail_by_theta[theta] / params.quality.probs[theta]
            closed = (2.0 + g) * (beta + theta) / (1.0 + g) - theta
            assert resolved + tail == pytest.approx(closed, abs=1e-10)

    def test_marginal_eventually_decreasing(self):
        table = build_joint_table(ModelParams(beta=3, quality=make_exponential(1.5, 6)))
        marg = table.degree_marginal
        tail = marg[50:5000]
        assert np.all(np.diff(tail) < 0.0)

    def test_degree_median(self):
        table = build_joint_table(ba_params(2))
        # P(2) = 0.5 exactly, so the CDF reaches 1/2 at the first degree
        assert table.median_degree == 2


class TestNnProbability:
    def test_beta1_closed_form(self):
        # at beta = 1 and all-zero quality the conditional neighbor law of
        # a degree-1 node collapses (by partial fractions) to
        # 3 (l-1)(l+6) / (l (l+1) (l+2) (l+3))
        params = ModelParams(beta=1, quality=make_bernoulli(1.0, 4))
        for ell in (1, 2, 3, 7, 30, 200):
            closed = (
                3.0 * (ell - 1) * (ell + 6) / (ell * (ell + 1) * (ell + 2) * (ell + 3))
            )
            assert nn_probability(params, 1, 0, ell, 0) == pytest.approx(
                closed, abs=1e-14
            )

    def test_degree_beta_cannot_neighbor_degree_beta(self):
        # a node still at degree beta has only its original links, each to
        # a target that had >= beta links already, so both sums are empty
        for beta in (1, 2, 5):
            params = ModelParams(beta=beta, quality=make_bernoulli(1.0, 4))
            assert nn_probability(params, beta, 0, beta, 0) == 0.0

    def test_first_sum_empty_at_k_beta(self):
        # k = beta leaves only the second sum; the value at (k, ell) must
        # be symmetric-free of any first-sum contribution.  The beta=1
        # closed form above is the oracle; here check a beta=2 case
        # against a direct second-sum-only evaluation via the march.
        params = ModelParams(beta=2, quality=make_exponential(0.5, 2))
        march = NeighborMarch(params, l_resolve=64)
        assert march.k == 2
        n_s = 3
        got = march.level().reshape(n_s, n_s, -1)
        for ti in range(3):
            for fi in range(3):
                for ell in (2, 5, 20):
                    assert got[ti, fi, ell - 2] == pytest.approx(
                        nn_probability(params, 2, ti, ell, fi), rel=1e-12, abs=1e-300
                    )

    def test_conditional_normalization_ba(self):
        params = ba_params(2)
        total = sum(nn_probability(params, 2, 0, ell, 0) for ell in range(2, 4000))
        # remaining tail beyond 4000 decays as ell**-2
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_domain_errors(self):
        params = ba_params(2)
        with pytest.raises(DomainError):
            nn_probability(params, 1, 0, 5, 0)
        with pytest.raises(DomainError):
            nn_probability(params, 3, 0, 1, 0)
        with pytest.raises(DomainError):
            nn_probability(params, 3, 9, 3, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: nn_probability(p, 10.5, 0, 9, 0),
            lambda p: nn_probability(p, 10, 0, 9.5, 0),
            lambda p: nn_probability(p, math.inf, 0, 9, 0),
            lambda p: neighbor_degree_dist(p, 10.5),
            lambda p: write_nn_table(p, 10.5, 0, io.StringIO(), l_max=64),
        ],
        ids=["nn-k", "nn-ell", "nn-inf", "degree-dist", "nn-table"],
    )
    def test_non_integer_degree_refused(self, call):
        params = ModelParams(beta=8, quality=make_exponential(0.5, 4))
        with pytest.raises(DomainError, match="must be an integer >= beta = 8"):
            call(params)

    def test_zero_probability_neighbor_quality(self):
        params = ModelParams(beta=2, quality=make_bernoulli(0.5, 6))
        assert nn_probability(params, 4, 0, 4, 3) == 0.0

    def test_monte_carlo_point_value(self):
        # frozen from 6 grown networks of 100k nodes (seeds 100..105):
        # the observed neighbor frequency for (ell=3, phi=0) around
        # (k=4, theta=1) nodes was 0.07553 with standard error 0.00106
        params = ModelParams(beta=2, quality=make_exponential(0.5, 2))
        assert nn_probability(params, 4, 1, 3, 0) == pytest.approx(
            0.07553, abs=3 * 0.00106
        )


class TestMarchAgainstDirect:
    def test_regression_tolerance(self):
        # the vectorized lattice march must agree with the term-for-term
        # reference evaluation to 1e-12 relative
        params = ModelParams(beta=2, quality=make_exponential(0.5, 2))
        march = NeighborMarch(params, l_resolve=350)
        worst = 0.0
        for k in range(2, 26):
            block = march.level().reshape(3, 3, -1)
            if k in (2, 3, 8, 25):
                for ti in range(3):
                    for fi in range(3):
                        for ell in (2, 3, 10, 99, 350):
                            direct = nn_probability(params, k, ti, ell, fi)
                            got = block[ti, fi, ell - 2]
                            worst = max(
                                worst, abs(direct - got) / max(direct, 1e-300)
                            )
            if k < 25:
                march.advance()
        assert worst < 1e-12

    def test_level_normalization_with_tail(self):
        # the tail model of the first 1024 cells, built from the closed-form
        # amplitude and the exact pair mass (beta/k) pi(phi) + (1 - beta/k)
        # rho(phi), must predict the resolved mass of the next 1024 cells
        params = ModelParams(beta=3, quality=make_exponential(1.5, 3))
        march = NeighborMarch(params, l_resolve=2048)
        while march.k < 11:
            march.advance()
        probs = march.level()
        n, n_s, s = 1024, 4, 2.0 + params.mu_over_beta
        rho = params.quality.probs
        pi = rho * (3 + np.arange(n_s)) / (3 + params.quality.mean)
        mass = np.tile((3 / 11) * pi + (1 - 3 / 11) * rho, n_s)
        coef = power_tail_fit(probs[:, :n], march.ells[:n], s, march.tail_amplitude(), mass)
        predicted = tail_power_sum(coef, s, int(march.ells[n - 1]), int(march.ells[-1]))
        held_out = probs[:, n:].sum(axis=1)
        # every pair's held-out mass exceeds the bound: the check is not vacuous
        assert np.all(held_out > 1e-6)
        for ti in range(n_s):
            residual = (predicted - held_out).reshape(n_s, n_s)[ti].sum()
            assert abs(residual) < 1e-6


def _scan_depth(params):
    """Last focal degree the degree-paradox scan reads for ``params``."""
    from qpanet.measures import SCAN_CAP_DEFAULT, _run_paradox_march

    profile, _ = _run_paradox_march(params, 1024, SCAN_CAP_DEFAULT)
    return profile.ks[-1]


def _prefactor_rtol(march):
    """Relative agreement two float64 evaluations of a level can reach.

    Both readers take the prefactor from log-gammas as large as
    lnG(k + theta + ell + phi + 3 + g), ~6e3 at ell ~ 1e3, whose rounding
    (a few ulp of that size, ~3e-12 relative) dominates at large ell.
    """
    tmax = march.params.quality.theta_max
    mag = np.array(
        [math.lgamma(ell + march.k + 2 * tmax + 3 + march.g) for ell in march.ells]
    )
    return 1e-12 + 8 * np.finfo(float).eps * mag


def _block_edges(march):
    """Grid indices of the first and last cell of every block, and the last resolved cell."""
    firsts = np.arange(0, march.n_ell, _BLOCK)
    lasts = np.minimum(firsts + _BLOCK, march.n_ell) - 1
    return sorted(set(firsts.tolist()) | set(lasts.tolist()))


class TestScaledRows:
    def test_matches_full_row_log_space_recurrence(self):
        # the blocked kernel against the plain recurrence on whole log rows:
        # entry 0 is replaced by the seed, then one running log-sum-exp
        rng = np.random.default_rng(23)
        n_rows, n_cells = 6, 8 * _BLOCK
        # nondecreasing rows, the kernel's contract, spanning ~650 nats, with
        # leading zeros (-inf) and one row empty until it is seeded
        logs = np.sort(rng.uniform(-320.0, 330.0, (n_rows, n_cells)), axis=1)
        logs[1, :40] = -np.inf
        logs[2, : 3 * _BLOCK + 5] = -np.inf
        logs[3] = -np.inf
        rows = _ScaledRows(logs.copy())
        off0 = rows.off.copy()
        for level in range(300):
            grow = rng.uniform(0.0, 4.0, n_rows)
            seed = np.where(np.isfinite(logs[:, 0]), logs[:, 0], -300.0) + grow
            if level % 7 == 3:
                seed[4] = -np.inf
            logs[:, 0] = seed
            logs = np.logaddexp.accumulate(logs, axis=1)
            rows.advance(seed)
            np.testing.assert_allclose(rows.log_values(), logs, rtol=0.0, atol=1e-12)
        # the values grew past the renormalization threshold on the way
        assert not np.array_equal(rows.off, off0)


CONTRACTION_CASES = [
    (2, make_exponential(0.5, 4)),
    (5, make_custom([0.5, 0, 0, 0, 0, 0.5])),
    (8, make_bernoulli(0.5, 24)),
]


class TestContractedDegreeRow:
    @pytest.mark.parametrize("beta, pmf", CONTRACTION_CASES)
    def test_equals_contracted_full_level(self, beta, pmf):
        # the row the degree scan reads, contracted before materializing,
        # against the full level summed over phi and weighted by P(theta | k)
        params = ModelParams(beta=beta, quality=pmf)
        depth = _scan_depth(params)
        weights = _quality_given_degree(params, depth)
        support = [int(t) for t in pmf.support]
        n_s = len(support)
        s = 2.0 + params.mu_over_beta
        march = NeighborMarch(params, l_resolve=1024)
        while True:
            w = weights[march.k - beta]
            row, coef = march.degree_row(w)
            want = w @ march.level().reshape(n_s, n_s, -1).sum(axis=1)
            assert np.all((row == 0.0) == (want == 0.0))
            nz = want > 0.0
            rel = np.abs(row - want)[nz] / want[nz]
            assert np.all(rel < _prefactor_rtol(march)[nz]), (march.k, rel.max())
            # the row's amplitude is the contraction of the per-pair ones,
            # and its model carries the rest of the row's exact mass
            c0 = np.repeat(w, n_s) @ march.tail_amplitude()
            assert coef[0, 0] == pytest.approx(c0, rel=1e-14)
            tail = tail_power_sum(coef, s, int(march.ells[-1]))[0]
            assert row.sum() + tail == pytest.approx(w.sum(), abs=1e-13)
            if march.k >= depth:
                break
            march.advance()
            self._assert_rows_nondecreasing(march)

    @staticmethod
    def _assert_rows_nondecreasing(march):
        # the invariant behind reading each block's maximum as its last entry
        state = march._state
        assert np.all(np.diff(state.vals, axis=0) >= 0.0)
        logs = state.log_values()
        assert np.all(logs[:, 1:] >= logs[:, :-1] - 1e-12)

    def test_carried_prefactor_matches_rebuilt(self):
        # a march read at every level carries the prefactor ratio one level
        # at a time; one read only at the end brings it forward from level
        # beta in one go
        params = ModelParams(beta=3, quality=make_exponential(0.8, 6))
        w = np.full(7, 1.0 / 7)
        every = NeighborMarch(params, l_resolve=512)
        once = NeighborMarch(params, l_resolve=512)
        while every.k < 40:
            every.degree_row(w)
            every.advance()
            once.advance()
        got, _ = every.degree_row(w)
        want, _ = once.degree_row(w)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestMarchEdgeBalance:
    @pytest.mark.parametrize(
        "beta, pmf",
        [
            (2, make_exponential(0.5, 4)),
            (5, make_custom([0.5, 0, 0, 0, 0, 0.5])),
            (3, make_bernoulli(0.3, 8)),
        ],
    )
    def test_every_level_balances(self, beta, pmf):
        # k P(k,theta) P(ell,phi | k,theta) = ell P(ell,phi) P(k,theta | ell,phi):
        # both sides count edges between the two classes, and one march
        # yields both sides from its full levels
        from qpanet.analytic import _joint_rows

        params = ModelParams(beta=beta, quality=pmf)
        top = 60
        support = [int(t) for t in pmf.support]
        n_s = len(support)
        joint = _joint_rows(params, beta, top)[:, support]  # [k - beta, theta]
        march = NeighborMarch(params, l_resolve=64)
        levels = []
        while True:
            levels.append(march.level().reshape(n_s, n_s, -1)[:, :, : top - beta + 1])
            if march.k == top:
                break
            march.advance()
        nn = np.stack(levels)  # [k, theta, phi, ell], degrees from beta
        ks = np.arange(beta, top + 1, dtype=float)
        lhs = ks[:, None, None, None] * joint[:, :, None, None] * nn
        rhs = np.transpose(
            ks[:, None, None, None] * joint[:, :, None, None] * nn, (3, 2, 1, 0)
        )
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert np.all((lhs == 0.0) == (rhs == 0.0))
        nz = scale > 0.0
        assert np.max(np.abs(lhs - rhs)[nz] / scale[nz]) < 1e-12


class TestMarchAgainstDirectWideSupports:
    @pytest.mark.parametrize(
        "beta, pmf, picks",
        [
            (5, make_custom([0.5, 0, 0, 0, 0, 0.5]), (0, 5)),
            (8, make_exponential(0.5, 24), (0, 1, 12, 23, 24)),
        ],
    )
    def test_levels_match_reference(self, beta, pmf, picks):
        # a sparse support with zero-probability qualities inside it, and a
        # wide one at large beta, against the term-for-term reference at the
        # scan's resolution: first levels, criterion 03's deepest probe and
        # the scan depth, on every block edge and the last resolved ell
        params = ModelParams(beta=beta, quality=pmf)
        depth = _scan_depth(params)
        support = [int(t) for t in pmf.support]
        n_s = len(support)
        march = NeighborMarch(params, l_resolve=1024)
        edges = _block_edges(march)
        assert edges[-1] == march.n_ell - 1
        probe_ks = sorted({beta, beta + 1, 2 * beta + 5, depth})
        checked = 0
        for k in probe_ks:
            while march.k < k:
                march.advance()
            block = march.level().reshape(n_s, n_s, -1)
            rtol = _prefactor_rtol(march)
            for theta in picks:
                for phi in picks:
                    for i in edges:
                        ell = int(march.ells[i])
                        want = nn_probability(params, k, theta, ell, phi)
                        got = block[support.index(theta), support.index(phi), i]
                        assert (got == 0.0) == (want == 0.0), (k, theta, phi, ell)
                        if want > 0.0:
                            assert abs(got - want) / want < rtol[i], (k, theta, phi, ell)
                        checked += 1
        assert checked == len(probe_ks) * len(picks) ** 2 * len(edges)


class TestMarchDeepLevels:
    def test_deep_level_matches_reference(self):
        # 8000 levels of carried prefactor ratios and block carries, against
        # the term-for-term reference at the last 40 cells of the grid
        params = ModelParams(beta=2, quality=make_exponential(0.5, 2))
        k = 8000
        march = NeighborMarch(params, l_resolve=1024)
        while march.k < k:
            march.advance()
        block = march.level().reshape(3, 3, -1)
        rtol = _prefactor_rtol(march)
        for theta in (0, 2):
            for phi in (0, 2):
                for i in range(march.n_ell - 40, march.n_ell):
                    want = nn_probability(params, k, theta, int(march.ells[i]), phi)
                    rel = abs(block[theta, phi, i] - want) / want
                    assert rel < rtol[i], (theta, phi, int(march.ells[i]), rel)

    def test_weights_grown_on_demand_match_one_pass(self):
        # a 64-cell march grows its weights and gamma lattices as it passes
        # their end, 64 -> 128 -> 256 -> 512 columns; every grown value is the
        # one a march whose grid already spans them computes in one pass
        params = ModelParams(beta=3, quality=make_exponential(0.5, 6))
        grown = NeighborMarch(params, l_resolve=64)
        whole = NeighborMarch(params, l_resolve=512)
        while grown.k < 3 + 400:
            grown.advance()
        n = whole._ln_cumw.shape[1]
        assert grown._ln_cumw.shape[1] == n
        np.testing.assert_array_equal(grown._ln_cumw, whole._ln_cumw)
        m = min(grown._glf.size, whole._glf.size)
        np.testing.assert_array_equal(grown._glf[:m], whole._glf[:m])
        np.testing.assert_array_equal(grown._gli[:m], whole._gli[:m])


class TestNeighborQualityDist:
    def test_single_quality_is_point_mass(self):
        d = neighbor_quality_dist(ba_params(2), 0)
        assert list(d.values) == [0]
        assert d.probs[0] == pytest.approx(1.0, abs=1e-6)
        assert d.mean == pytest.approx(0.0, abs=1e-6)

    def test_normalization(self):
        params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
        for theta in (0, 2, 4):
            d = neighbor_quality_dist(params, theta)
            assert d.probs.sum() + d.tail_mass == pytest.approx(1.0, abs=1e-6)

    def test_disassortative_majority_high_quality(self):
        # for a half-and-half two-point quality population, most neighbors
        # of a low-quality node carry the top quality
        params = ModelParams(beta=2, quality=make_bernoulli(0.5, 6))
        d = neighbor_quality_dist(params, 0)
        assert d.probs[list(d.values).index(6)] > 0.5

    def test_undefined_conditional(self):
        params = ModelParams(beta=2, quality=make_bernoulli(0.5, 6))
        with pytest.raises(UndefinedConditionalError):
            neighbor_quality_dist(params, 3)

    def test_monte_carlo_oracle_agreement(self):
        # frozen from a 4 x 800k-node simulation study: per-node average
        # neighbor quality of quality-0 nodes, beta=2, half-decay quality
        # on 0..4, was 1.15693 +- 0.00215 (and 1.10865 +- 0.00141 for
        # quality-2 nodes)
        params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
        assert neighbor_quality_dist(params, 0).mean == pytest.approx(
            1.15693, abs=3 * 0.00215
        )
        assert neighbor_quality_dist(params, 2).mean == pytest.approx(
            1.10865, abs=3 * 0.00141
        )


# quality weights with sparse supports: each weight is zero or positive
_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=17
).filter(lambda w: sum(w) > 0.0)


class TestJointTail:
    @settings(max_examples=40, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 16), extra=st.integers(1, 4000))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5, extra=1)
    def test_closed_form_tail_on_random_pmfs(self, weights, beta, extra):
        # the telescoped tail against the rows it stands for: the mass
        # between K and K' summed directly, and the block's column sums
        # completing rho; zero-probability qualities stay exactly zero
        params = ModelParams(beta=beta, quality=make_custom(weights))
        rho = params.quality.probs
        table = build_joint_table(params)
        big_k = table.k_max
        far = big_k + extra
        near_tail = _joint_tail(params, big_k)
        np.testing.assert_array_equal(near_tail, table.tail_by_theta)
        between = near_tail - _joint_tail(params, far)
        direct = _joint_rows(params, big_k + 1, far).sum(axis=0)
        # both sides are exponentials of log-gamma sums as large as
        # lnG(K' + theta_max + 3 + g), each off by ~2.5e-12 relative at
        # K ~ 1e3 against 40-digit mpmath; so _prefactor_rtol's allowance,
        # relative to the tail at K, which bounds both sides
        mag = math.lgamma(far + params.quality.theta_max + 3 + params.mu_over_beta)
        rtol = 1e-12 + 8 * np.finfo(float).eps * mag
        assert np.all(np.abs(between - direct) <= rtol * near_tail)
        assert np.all(np.abs(table.probs.sum(axis=0) + near_tail - rho) <= 1e-12 * rho)
        assert np.all(near_tail[rho == 0.0] == 0.0)


class TestDegreeMarginal:
    @settings(max_examples=40, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 16))
    @example(weights=[1.0], beta=2)
    def test_closed_form_cdf_and_median_match_the_block(self, weights, beta):
        # the degree CDF from the telescoped tail against the cumulative sum
        # of the joint rows it stands for, at every row of a 1024-degree block
        params = ModelParams(beta=beta, quality=make_custom(weights))
        cdf = np.cumsum(_joint_rows(params, beta, beta + 1023).sum(axis=1))
        closed = np.array([_degree_cdf(params, beta + i) for i in range(cdf.size)])
        assert np.max(np.abs(closed - cdf)) <= 1e-13
        assert _degree_median(params) == beta + int(np.searchsorted(cdf, 0.5 - 1e-12))


class TestQualityLaw:
    @settings(max_examples=60, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 8))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5)
    @example(weights=[0, 0, 0, 1.0], beta=3)
    def test_law_properties_on_random_pmfs(self, weights, beta):
        params = ModelParams(beta=beta, quality=make_custom(weights))
        pmf = params.quality
        agg = QualityAggregate(params)
        oracle = exact_neighbor_quality_law(params)
        means = []
        for theta in pmf.support:
            d = agg.dist(theta)
            assert list(d.values) == list(pmf.support)
            assert np.all(d.probs >= 0.0)
            assert abs(d.probs.sum() - 1.0) < 1e-12
            assert d.mean >= pmf.mean - 1e-12
            assert np.max(np.abs(d.probs - oracle[int(theta)][pmf.support])) < 1e-9
            if pmf.support.size == 1:
                assert list(d.probs) == [1.0]
            means.append(d.mean)
        assert np.all(np.diff(means) <= 1e-12)

    def test_march_mass_matches_exact_law(self):
        # sum_ell P(ell, phi | k, theta) = (beta/k) pi(phi) + (1 - beta/k) rho(phi),
        # pi(phi) = rho(phi) (beta + phi)/(beta + mu): at criterion 03's probe
        # levels, every pair's tail model built on that mass must predict the
        # resolved mass of the held-out cells
        worst = 0.0
        levels = 0
        for params, *_ in validation.NORMALIZATION_GRID():
            for _, residual in validation.probe_held_out(params):
                worst = max(worst, float(np.max(np.abs(residual))))
                levels += 1
        assert levels == 108
        assert worst < 1e-6

    def test_finite_at_large_mean_quality(self):
        # g = mu/beta = 250: the lattice G(m)/G(m + 3 + g) underflows where
        # G(beta + theta + 2 + g)/G(beta + theta) overflows
        params = ModelParams(beta=2, quality=make_bernoulli(0.5, 1000))
        agg = QualityAggregate(params)
        oracle = exact_neighbor_quality_law(params)
        for theta in (0, 1000):
            probs = neighbor_quality_dist(params, theta).probs
            assert np.all(np.isfinite(probs))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.max(np.abs(probs - oracle[theta][agg.support])) < 1e-9

    def test_cut_past_degree_cap_raises(self, monkeypatch):
        from qpanet import analytic
        from qpanet.errors import NonConvergenceError

        monkeypatch.setattr(analytic, "INV_K_HALF_WIDTH", 0.0)
        with pytest.raises(NonConvergenceError):
            QualityAggregate(ModelParams(beta=2, quality=make_exponential(0.5, 4)))


class TestMarchEdgeBalanceProperty:
    @settings(max_examples=25, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 8))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5)
    def test_balance_on_random_pmfs(self, weights, beta):
        # TestMarchEdgeBalance's identity on random sparse supports:
        # k P(k,theta) P(ell,phi | k,theta) = ell P(ell,phi) P(k,theta | ell,phi)
        from qpanet.analytic import _joint_rows

        params = ModelParams(beta=beta, quality=make_custom(weights))
        top = beta + 24
        support = [int(t) for t in params.quality.support]
        n_s = len(support)
        joint = _joint_rows(params, beta, top)[:, support]
        march = NeighborMarch(params, l_resolve=32)
        levels = [march.level().reshape(n_s, n_s, -1)[:, :, : top - beta + 1]]
        while march.k < top:
            march.advance()
            levels.append(march.level().reshape(n_s, n_s, -1)[:, :, : top - beta + 1])
        ks = np.arange(beta, top + 1, dtype=float)
        lhs = ks[:, None, None, None] * joint[:, :, None, None] * np.stack(levels)
        rhs = np.transpose(lhs, (3, 2, 1, 0))
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert np.all((lhs == 0.0) == (rhs == 0.0))
        nz = scale > 0.0
        assert np.max(np.abs(lhs - rhs)[nz] / scale[nz]) < 1e-12


class TestBlockEdgesProperty:
    @settings(max_examples=25, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 8), depth=st.integers(0, 24))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5, depth=24)
    def test_block_edges_match_reference(self, weights, beta, depth):
        # a grid of 100 cells ends in a partial block: the first and last
        # cell of every block and the last resolved cell, at level beta and
        # at a drawn level, against the term-for-term reference
        params = ModelParams(beta=beta, quality=make_custom(weights))
        support = [int(t) for t in params.quality.support]
        n_s = len(support)
        march = NeighborMarch(params, l_resolve=100)
        edges = _block_edges(march)
        assert edges[-1] == march.n_ell - 1 and len(edges) == 8
        for k in sorted({beta, beta + depth}):
            while march.k < k:
                march.advance()
            block = march.level().reshape(n_s, n_s, -1)
            rtol = _prefactor_rtol(march)
            for ti, theta in enumerate(support):
                for fi, phi in enumerate(support):
                    for i in edges:
                        want = nn_probability(params, k, theta, int(march.ells[i]), phi)
                        got = block[ti, fi, i]
                        assert (got == 0.0) == (want == 0.0), (k, theta, phi, i)
                        if want > 0.0:
                            assert abs(got - want) / want < rtol[i], (k, theta, phi, i)


class TestNeighborDegreeDist:
    def test_support_starts_at_beta(self):
        params = ModelParams(beta=3, quality=make_exponential(0.5, 3))
        d = neighbor_degree_dist(params, 5)
        assert d.values[0] == 3

    def test_normalization_with_tail(self):
        params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
        for k in (2, 7, 19):
            d = neighbor_degree_dist(params, k)
            assert d.probs.sum() + d.tail_mass == pytest.approx(1.0, abs=1e-6)

    def test_ba_neighbors_exceed_own_degree(self):
        # hubs dominate neighborhoods: a degree-2 node's mean neighbor
        # degree is well above 2 (frozen simulation value ~15.5 at n=8e5;
        # the capped closed form gives ~16)
        d = neighbor_degree_dist(ba_params(2), 2)
        assert d.mean > 2.0

    def test_monte_carlo_medians(self):
        # frozen from an 800k-node run: lower-median neighbor degrees of
        # degree-2, 5, 10 nodes were 7, 4, 3
        params = ModelParams(beta=2, quality=make_exponential(0.5, 4))
        assert neighbor_degree_dist(params, 2).median == 7
        assert neighbor_degree_dist(params, 5).median == 4
        assert neighbor_degree_dist(params, 10).median == 3

    def test_domain_error(self):
        with pytest.raises(DomainError):
            neighbor_degree_dist(ba_params(2), 1)

    def test_median_past_the_grid_raises(self):
        # at beta = 1024 the resolved row holds less than half its mass, so
        # the median lies past the grid: refused, not indexed past the end
        from qpanet.errors import NonConvergenceError

        params = ModelParams(beta=1024, quality=make_exponential(0.5, 4))
        with pytest.raises(NonConvergenceError, match="1024-cell grid"):
            neighbor_degree_dist(params, 1024)

    def test_tail_model_out_of_float_range_raises(self):
        # at g = 125 the tail amplitude c0 overflows and its sums past the
        # grid underflow; the degree statistics must refuse the model rather
        # than index past the grid
        from qpanet.errors import NonConvergenceError

        from qpanet.analytic import _joint_rows

        params = ModelParams(beta=1, quality=make_bernoulli(0.5, 250))
        march = NeighborMarch(params, l_resolve=1024)
        w = _joint_rows(params, 1, 1)[0][params.quality.support]
        row, coef = march.degree_row(w / w.sum())
        with pytest.raises(NonConvergenceError, match="exponent 127"):
            _degree_stats(march.ells, row, coef, params.mu_over_beta)


class TestNnTableDump:
    def test_format(self):
        params = ba_params(2)
        buf = io.StringIO()
        write_nn_table(params, 2, 0, buf, l_max=50)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# beta=2"
        assert lines[1] == "# k=2"
        assert lines[2] == "# theta=0"
        assert lines[3].startswith("# tail_mass=")
        assert lines[4] == "ell,phi,prob"
        rows = [ln.split(",") for ln in lines[5:]]
        ells = [int(r[0]) for r in rows]
        assert ells == sorted(ells)
        assert ells[0] == 2

    def test_prob_column_sums_to_one_with_tail(self):
        params = ba_params(2)
        buf = io.StringIO()
        write_nn_table(params, 2, 0, buf, l_max=900)
        lines = buf.getvalue().splitlines()
        tail = float(lines[3].split("=")[1])
        total = sum(float(ln.split(",")[2]) for ln in lines[5:])
        assert total + tail == pytest.approx(1.0, abs=1e-6)

    def test_normalized_far_past_the_grid(self):
        # k = 4000, far past the 2048-cell grid: an unpinned per-pair tail fit
        # on [L/2, L] missed the mass by 2.6e-3
        params = ModelParams(beta=2, quality=make_exponential(1.5, 16))
        buf = io.StringIO()
        write_nn_table(params, 4000, 8, buf)
        lines = buf.getvalue().splitlines()
        tail = float(lines[3].split("=")[1])
        total = sum(float(ln.split(",")[2]) for ln in lines[5:])
        assert abs(total + tail - 1.0) < 1e-6

    def test_l_max_below_beta_raises(self):
        # no neighbor degree at or below l_max: refused, not an empty table
        params = ModelParams(beta=8, quality=make_exponential(0.5, 4))
        with pytest.raises(DomainError, match="l_max = 5 below beta = 8"):
            write_nn_table(params, 8, 0, io.StringIO(), l_max=5)
        buf = io.StringIO()
        write_nn_table(params, 8, 0, buf, l_max=8)
        assert [ln.split(",")[:2] for ln in buf.getvalue().splitlines()[5:]] == [
            ["8", str(phi)] for phi in range(5)
        ]


def _dump_from_full_march(params, k, theta, l_max):
    """write_nn_table's text, built from a march over every quality pair.

    Cell by cell with ``str.format``: the reference for the focal march
    and for the one ``%`` format the dump is written with.
    """
    support = [int(t) for t in params.quality.support]
    n_s = len(support)
    march = NeighborMarch(params, l_resolve=max(l_max - params.beta + 1, 64))
    while march.k < k:
        march.advance()
    block = march.level().reshape(n_s, n_s, -1)[support.index(theta)]
    keep = march.ells <= l_max
    tail = max(1.0 - float(block[:, keep].sum()), 0.0)
    head = f"# beta={params.beta}\n# k={k}\n# theta={theta}\n# tail_mass={tail:.9e}\n"
    return head + "ell,phi,prob\n" + "".join(
        f"{ell},{phi},{p:.12e}\n"
        for ell, row in zip(march.ells[keep].tolist(), block[:, keep].T.tolist())
        for phi, p in zip(support, row)
    )


def _cum_weights_mpmath(params, theta, phi, n_cols):
    """ln sum_{j=beta+1..beta+1+i} G(j+A)/(G(j+B) G(beta+phi+2+g)), i < n_cols, at 40 digits.

    A = theta + beta + phi + 2 + g and B = theta + 2 + g (G the gamma
    function), summed term by term with each term the last times
    (j + A)/(j + B); g is the float the program reads.
    """
    beta = params.beta
    with mpmath.workdps(40):
        g = mpmath.mpf(params.mu_over_beta)
        a, b = theta + beta + phi + 2 + g, theta + 2 + g
        j = beta + 1
        term = mpmath.exp(
            mpmath.loggamma(j + a) - mpmath.loggamma(j + b) - mpmath.loggamma(beta + phi + 2 + g)
        )
        total, out = mpmath.mpf(0), []
        for _ in range(n_cols):
            total += term
            out.append(mpmath.log(total))
            term *= (j + a) / (j + b)
            j += 1
    return out


class TestFocalMarch:
    @settings(max_examples=25, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 8), pick=st.integers(0, 16))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5, pick=1)
    @example(weights=[1.0], beta=2, pick=0)
    def test_focal_rows_equal_full_march(self, weights, beta, pick):
        # a march of one focal quality against the theta rows of the march
        # over every pair, bit for bit, on a 64-cell grid whose weights
        # double at k = beta + 65; and write_nn_table against the dump the
        # full march gives, byte for byte
        params = ModelParams(beta=beta, quality=make_custom(weights))
        support = [int(t) for t in params.quality.support]
        n_s = len(support)
        theta = support[pick % n_s]
        l_max = beta + 40
        focal = NeighborMarch(params, l_resolve=64, focal=[theta])
        full = NeighborMarch(params, l_resolve=64)
        assert focal.pairs == [(theta, phi) for phi in support]
        for k in (beta, beta + 1, beta + 7, beta + 70):
            while full.k < k:
                full.advance()
                focal.advance()
            want = full.level().reshape(n_s, n_s, -1)[support.index(theta)]
            np.testing.assert_array_equal(focal.level(), want)
            buf = io.StringIO()
            write_nn_table(params, k, theta, buf, l_max=l_max)
            assert buf.getvalue() == _dump_from_full_march(params, k, theta, l_max)
        assert focal._ln_cumw.shape[1] == 128


class TestPairWeights:
    @pytest.mark.parametrize(
        "beta, pmf",
        [
            (2, make_exponential(0.5, 4)),
            (1, make_custom([0.5, 0, 0, 0, 0, 0.5])),
            (8, make_exponential(1.3, 8)),
            (5, make_custom([0.2, 0, 0.3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5])),
        ],
    )
    def test_cumulative_weights_against_mpmath(self, beta, pmf):
        # the telescoped closed form, grown 64 -> 2048 columns along the
        # march, against the term-by-term sum at 40 digits: every column of
        # the corner pairs and one inside, within 1e-12 relative (measured
        # 3.7e-13; the running log-sum it replaced read 4.7e-13)
        params = ModelParams(beta=beta, quality=pmf)
        march = NeighborMarch(params, l_resolve=64)
        while march.k < beta + 1100:
            march.advance()
        ln_cumw = march._ln_cumw
        assert ln_cumw.shape[1] == 2048
        support = [int(t) for t in pmf.support]
        mid = support[len(support) // 2]
        picks = {(t, f) for t in (support[0], support[-1]) for f in (support[0], support[-1])}
        for theta, phi in sorted(picks | {(mid, support[0])}):
            got = ln_cumw[march.pairs.index((theta, phi))]
            want = _cum_weights_mpmath(params, theta, phi, got.size)
            rel = max(abs(float(mpmath.expm1(mpmath.mpf(x) - w))) for x, w in zip(got, want))
            assert rel < 1e-12, (theta, phi, rel)


def _march_first_moments(params, l_resolve, k_top):
    """E[ell | k] for k = beta..k_top from full march levels.

    The resolved sum of ell P plus each pair's leading tail term,
    c0 ell**-(2 + g) with the closed-form amplitude, to infinity,
    weighted by P(theta | k).
    """
    from scipy.special import zeta

    weights = _quality_given_degree(params, k_top)
    support = [int(t) for t in params.quality.support]
    s = 2.0 + params.mu_over_beta
    march = NeighborMarch(params, l_resolve=l_resolve)
    z = zeta(s - 1.0, int(march.ells[-1]) + 1)
    out = []
    while True:
        w = np.repeat(weights[march.k - params.beta], len(support))
        out.append(w @ (march.level() @ march.ells + march.tail_amplitude() * z))
        if march.k == k_top:
            return np.array(out)
        march.advance()


def _moment_gap(params, l_resolve, k_top=40):
    """Largest relative gap between the recurrence and the march, k <= k_top."""
    exact = neighbor_degree_first_moment(params, k_top)
    return float(np.max(np.abs(_march_first_moments(params, l_resolve, k_top) - exact) / exact))


class TestNeighborDegreeFirstMoment:
    def test_matches_march_at_large_g(self):
        # g = 7: the leading tail term of a 4096-cell grid is exact to
        # rounding, so the recurrence must meet the march there (measured
        # 1.0e-13)
        params = ModelParams(beta=2, quality=make_exponential(1.5, 16))
        assert params.mu_over_beta == pytest.approx(7.0, abs=0.01)
        assert _moment_gap(params, 4096) < 5e-13

    @pytest.mark.parametrize(
        "beta, pmf, g",
        [(1, make_custom([0.5, 0, 0, 0, 0.5]), 2.0), (2, make_exponential(0.5, 4), 0.419)],
    )
    def test_march_gap_shrinks_with_grid(self, beta, pmf, g):
        # at small g the march's leading tail term carries the gap: doubling
        # the grid must shrink it, towards the recurrence
        params = ModelParams(beta=beta, quality=pmf)
        assert params.mu_over_beta == pytest.approx(g, abs=1e-3)
        gaps = [_moment_gap(params, n) for n in (1024, 2048)]
        assert gaps[1] < gaps[0] < 1e-3, gaps

    @settings(max_examples=20, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 8))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5)
    def test_march_gap_shrinks_on_random_pmfs(self, weights, beta):
        params = ModelParams(beta=beta, quality=make_custom(weights))
        assume(params.mu_over_beta > 0.0)
        k_top = beta + 12
        gaps = [_moment_gap(params, n, k_top) for n in (256, 512)]
        assert gaps[1] < gaps[0] < 1e-2 or gaps[1] < 1e-12, gaps

    @settings(max_examples=30, deadline=None)
    @given(weights=_weights, beta=st.integers(1, 16))
    @example(weights=[0.5, 0, 0, 0, 0, 0.5], beta=5)
    def test_telescoped_sum_matches_rate_equation(self, weights, beta):
        # the rate equation of a(k, theta), the neighbor-degree sum per node,
        # stepped in k as written, against its telescoped cumulative sum
        from qpanet.analytic import _joint_rows, _neighbor_degree_moments

        params = ModelParams(beta=beta, quality=make_custom(weights))
        assume(params.mu_over_beta > 0.0)
        pmf = params.quality
        support = pmf.support
        theta = support.astype(float)
        rho = pmf.probs[support]
        mu = pmf.mean
        g = params.mu_over_beta
        c = beta / (2 * beta + mu)
        mu_pi = (beta * mu + rho @ theta**2) / (beta + mu)
        ks = np.arange(beta, beta + 41, dtype=float)
        n = _joint_rows(params, beta, beta + 40)[:, support]
        # the attachment target's mean degree, from E[k + theta | theta] and
        # E[(k + theta)(k + theta + 1) | theta] of the joint law
        e_kk = (2 + g) * (beta + theta) * (
            (beta + theta + 1) / g - (1 + theta) / (1 + g)
        )
        m2 = rho @ e_kk / (2 * beta + mu)
        a = np.empty_like(n)
        a[0] = (c * n[0] * beta * mu_pi + rho * beta * (1 + m2)) / (1 + c * (beta + theta - 1))
        for i in range(1, ks.size):
            k = ks[i]
            a[i] = (
                c * (k - 1 + theta) * (a[i - 1] + beta * n[i - 1])
                + c * n[i] * (beta * mu_pi + (k - beta) * mu)
            ) / (1 + c * (k + theta - 1))
        want = a / (ks[:, None] * n)
        got = _neighbor_degree_moments(params, beta + 40)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_infinite_at_zero_quality(self):
        # all-zero quality: the neighbor-degree law decays as ell**-2
        moments = neighbor_degree_first_moment(ba_params(2), 40)
        assert moments.shape == (39,)
        assert np.all(np.isposinf(moments))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            neighbor_degree_first_moment(ba_params(2), 1)


class TestQualityGivenDegree:
    @pytest.mark.parametrize(
        "beta, pmf",
        [
            (2, make_exponential(0.5, 16)),
            (3, make_bernoulli(0.3, 16)),
            (5, make_custom([0.5, 0, 0, 0, 0, 0.5])),
        ],
    )
    def test_rows_are_the_normalized_joint_law(self, beta, pmf):
        # the first row, the last row of the joint block, and a row past it
        # (measured at most 7.4e-16)
        params = ModelParams(beta=beta, quality=pmf)
        support = [int(t) for t in pmf.support]
        rows = _quality_given_degree(params, 2000)
        assert rows.shape == (2001 - beta, len(support))
        for k in (beta, beta + 1023, 2000):
            want = np.array([joint_probability(params, k, t) for t in support])
            np.testing.assert_allclose(rows[k - beta], want / want.sum(), rtol=1e-15, atol=0.0)

    def test_degree_scan_builds_no_joint_table(self, monkeypatch):
        # models no other test builds a table for, so no cache could hide a build
        from qpanet import analytic, measures

        def refuse(params):
            raise AssertionError("a joint table was built")

        monkeypatch.setattr(analytic, "build_joint_table", refuse)
        c = measures.critical_values(ModelParams(beta=3, quality=make_exponential(0.37, 3)))
        assert c.degree_mean is not None
        d = neighbor_degree_dist(ModelParams(beta=2, quality=make_bernoulli(0.41, 3)), 5)
        assert abs(d.probs.sum() + d.tail_mass - 1.0) < 1e-9
        (row,) = measures.sweep("exponential", [0.53], [3], [5])
        assert row.error is None and row.uncorrelated.degree_median is not None


class TestPinnedDegreeRow:
    @pytest.mark.parametrize(
        "beta, pmf", [(5, make_custom([0.5, 0, 0, 0, 0, 0.5])), (2, make_exponential(0.5, 4))]
    )
    @pytest.mark.parametrize("grid", ["scan", "law"])
    def test_mass_identity_at_every_level(self, beta, pmf, grid):
        # sum_ell P(ell | k) = sum_theta P(theta | k) sum_phi [(beta/k) pi(phi)
        # + (1 - beta/k) rho(phi)] = 1 at every level a scan may read (to its
        # cap), on the scan's grid (256 cells here) and on
        # neighbor_degree_dist's; both read 2.2e-16.  An unpinned tail on
        # 1024 cells missed it by 1.5e-6 on the sparse support at k <= 76,
        # and by up to 1.7e-4 before the cap
        from qpanet.analytic import LAW_CELLS, DegreeProfile
        from qpanet.measures import SCAN_CAP_DEFAULT, scan_cells

        params = ModelParams(beta=beta, quality=pmf)
        depth = beta + SCAN_CAP_DEFAULT
        n_ell = scan_cells(params) if grid == "scan" else LAW_CELLS
        march = NeighborMarch(params, l_resolve=n_ell)
        profile = DegreeProfile(params)
        worst = 0.0
        while True:
            row, coef = profile._degree_row(march)
            _, _, tail = _degree_stats(march.ells, row, coef, params.mu_over_beta)
            worst = max(worst, abs(row.sum() + tail - 1.0))
            if march.k >= depth:
                break
            march.advance()
        assert worst < 1e-6, worst

    def test_normalized_far_past_the_grid(self):
        # k = 2000, past the joint block (k <= beta + 1023), on the 1024-cell
        # grid: the window [L/2, L] is far from asymptotic, and an unpinned
        # tail missed the mass by 2.6e-3
        from qpanet.analytic import LAW_CELLS

        params = ModelParams(beta=2, quality=make_exponential(1.5, 16))
        d = neighbor_degree_dist(params, 2000)
        assert d.values.size == LAW_CELLS
        assert abs(d.probs.sum() + d.tail_mass - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "beta, pmf",
        [
            (2, make_exponential(0.5, 4)),
            (3, make_custom([0.5, 0, 0, 0, 0, 0.5])),
            (8, make_exponential(0.3, 4)),
            (8, make_exponential(0.1, 4)),
            (2, make_exponential(1.5, 16)),
            (2, make_bernoulli(1.0, 8)),
            (8, make_bernoulli(1.0, 4)),
            (1, make_bernoulli(1.0, 4)),
            (4, make_bernoulli(1.0, 4)),
        ],
    )
    def test_scan_grid_resolves_capped_mean(self, beta, pmf):
        # the capped mean the scan decides on, from its pinned rows, against
        # a march whose grid reaches the cap and needs no tail at all.  At
        # g > 0 the scan's 256 cells read 4.7e-5, 1.6e-5, 1.5e-4, 1.6e-4 and
        # 1.2e-12 in the order listed (3.8e-6 at g = 0.014 on 512 cells,
        # 9.6e-4 there with c0 fitted).  At g = 0 there is no moment to pin,
        # and the model meets the last resolved cell instead, which 256
        # cells do not resolve (4.0e-3 to 1.2e-2) nor 512 (2.1e-3 at beta 1,
        # 1.4e-3 at beta 4), so the scan runs on 1024: 2.2e-4, 4.6e-7,
        # 2.3e-4 and 6.8e-5
        from qpanet.analytic import DegreeProfile
        from qpanet.measures import scan_cells

        params = ModelParams(beta=beta, quality=pmf)
        k_top = 70
        weights = _quality_given_degree(params, k_top)
        scan = NeighborMarch(params, l_resolve=scan_cells(params))
        full = NeighborMarch(params, l_resolve=DEFAULT_ELL_CAP - beta + 1)
        assert full.ells[-1] == DEFAULT_ELL_CAP
        profile = DegreeProfile(params)
        worst = 0.0
        while True:
            profile.add_level(scan)
            row, _ = full.degree_row(weights[full.k - beta])
            worst = max(worst, abs(profile.means[-1] - float(full.ells @ row)))
            if scan.k == k_top:
                break
            scan.advance()
            full.advance()
        assert worst < 1e-3, worst
