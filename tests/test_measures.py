import io
import itertools

import numpy as np
import pytest

from qpanet.analytic import ModelParams, _joint_rows, build_joint_table
from qpanet.errors import DomainError
from qpanet.measures import (
    SCAN_CELLS,
    SWEEP_CSV_HEADER,
    Criticals,
    ScanEdgeWarning,
    critical_values,
    paradox_fractions,
    scan_cells,
    sweep,
    uncorrelated_criticals,
    write_sweep_csv,
)
from qpanet.quality import make_bernoulli, make_custom, make_exponential


@pytest.fixture(scope="module")
def ba2():
    return ModelParams(beta=2, quality=make_bernoulli(1.0, 8))


@pytest.fixture(scope="module")
def exp_small():
    return ModelParams(beta=2, quality=make_exponential(0.5, 4))


class TestCriticalValues:
    def test_all_zero_quality_has_no_quality_paradox(self, ba2):
        params = ba2
        c = critical_values(params)
        assert c.quality_mean is None
        assert c.quality_median is None
        assert c.baseline == "qpa"

    def test_ba_degree_paradox_holds_at_beta(self, ba2):
        # frozen simulation fact: the mean neighbor degree of a degree-2
        # node in a degree-driven network is far above 2
        params = ba2
        c = critical_values(params)
        assert c.degree_mean is not None and c.degree_mean >= 2
        assert c.degree_median is not None and c.degree_median >= 2

    def test_small_mean_quality_at_large_beta_completes(self):
        # g = mu/beta ~ 0.007: the degree law decays barely faster than k**-3,
        # so no table cut short of the degree cap leaves a tail below 1e-8;
        # the joint law's tail is taken in closed form instead
        params = ModelParams(beta=16, quality=make_exponential(0.1, 4))
        c = critical_values(params)
        assert c.degree_mean is not None and c.degree_mean >= 16
        assert c.degree_median is not None and c.degree_median >= 16

    @pytest.mark.parametrize("beta, k_mean", [(128, 557), (160, 661)])
    def test_all_zero_quality_scans_on_the_rerun_grid(self, beta, k_mean):
        # at g = 0 the row's first moment is infinite, so its tail holds only
        # the mass and the last cell; 512 cells read 558 and 662, while 1024,
        # 2048 and 8192 cells agree on these values
        params = ModelParams(beta=beta, quality=make_bernoulli(1.0, 4))
        assert scan_cells(params) == 4 * SCAN_CELLS
        assert critical_values(params).degree_mean == k_mean

    @pytest.mark.parametrize("beta", [240, 512])
    def test_single_quality_at_large_beta_returns(self, beta):
        # one supported quality: the neighbor-quality law is rho and needs no
        # E[1/k | theta], whose bracket no longer closes below the degree cap
        # from beta 240
        params = ModelParams(beta=beta, quality=make_bernoulli(1.0, 4))
        with pytest.warns(ScanEdgeWarning):
            c = critical_values(params)
        assert c.quality_mean is None and c.quality_median is None
        assert c.degree_mean is not None and c.degree_mean >= beta
        assert c.degree_median is not None and c.degree_median >= beta

    def test_strictness(self, exp_small):
        # the defining inequality holds at the critical value and fails
        # just above it (sampled via the public per-k distribution)
        from qpanet.analytic import neighbor_degree_dist

        params = exp_small
        c = critical_values(params)
        k = c.degree_mean
        assert neighbor_degree_dist(params, k).mean > k
        for above in range(k + 1, k + 6):
            assert neighbor_degree_dist(params, above).mean <= above

    def test_quality_critical_orders_against_baseline(self, exp_small):
        params = exp_small
        c = critical_values(params)
        u = uncorrelated_criticals(params)

        def at_least(a, b):
            return (-1 if a is None else a) >= (-1 if b is None else b)

        assert at_least(c.quality_mean, u.quality_mean)
        assert at_least(c.quality_median, u.quality_median)


class TestUncorrelatedCriticals:
    def test_two_point_support_restriction(self):
        # mean quality 8 on support {0, 10}: largest support value
        # strictly below the mean is 0
        params = ModelParams(beta=2, quality=make_bernoulli(0.2, 10))
        u = uncorrelated_criticals(params)
        assert u.quality_mean == 0

    def test_absent_median_critical(self):
        params = ModelParams(beta=2, quality=make_bernoulli(0.6, 8))
        u = uncorrelated_criticals(params)
        assert u.quality_median is None  # median 0, nothing below it

    def test_uniform_quality_mean(self):
        params = ModelParams(beta=2, quality=make_exponential(1.0, 8))
        u = uncorrelated_criticals(params)
        assert u.quality_mean == 3  # mean 4, largest integer strictly below

    def test_degree_mean_is_two_beta_minus_one(self):
        for beta in (2, 5):
            params = ModelParams(beta=beta, quality=make_exponential(0.8, 4))
            u = uncorrelated_criticals(params)
            # the degree mean is exactly 2 beta for every quality
            # distribution, and ties do not qualify
            assert u.degree_mean == 2 * beta - 1

    def test_degree_median_past_the_old_block(self):
        # at all-zero quality P(k > K) = beta (beta + 1)/((K + 1)(K + 2)), so
        # the median is the least K with (K + 1)(K + 2) >= 2 beta (beta + 1):
        # 4242 at beta 3000, past the 1024 degrees a joint table holds
        beta = 3000
        median = next(
            k for k in itertools.count(beta) if (k + 1) * (k + 2) >= 2 * beta * (beta + 1)
        )
        assert median == 4242 > beta + 1023
        params = ModelParams(beta=beta, quality=make_bernoulli(1.0, 4))
        assert build_joint_table(params).median_degree == median
        u = uncorrelated_criticals(params)
        assert (u.degree_mean, u.degree_median) == (2 * beta - 1, median - 1)

    def test_matches_direct_max_scan_on_random_pmfs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            size = int(rng.integers(2, 20))
            weights = rng.random(size) * (rng.random(size) < 0.8)
            if weights.sum() == 0:
                weights[0] = 1.0
            pmf = make_custom(weights)
            params = ModelParams(beta=2, quality=pmf)
            # direct scan over the support
            support = [int(t) for t in pmf.support]
            expect_mean = max(
                (t for t in support if t < pmf.mean - 1e-9), default=None
            )
            expect_median = max(
                (t for t in support if t < pmf.median), default=None
            )
            u = uncorrelated_criticals(params)
            assert u.quality_mean == expect_mean
            assert u.quality_median == expect_median


class TestParadoxFractions:
    def test_absent_critical_gives_zero(self, ba2):
        params = ba2
        c = Criticals(None, None, None, None, "qpa")
        f = paradox_fractions(params, c)
        assert f.quality_mean == 0.0
        assert f.degree_mean == 0.0

    def test_two_point_quality_fraction(self):
        params = ModelParams(beta=2, quality=make_bernoulli(0.2, 10))
        c = Criticals(0, None, None, None, "qpa")
        f = paradox_fractions(params, c)
        assert f.quality_mean == pytest.approx(0.2, abs=1e-12)

    def test_fraction_is_cdf_evaluation(self, exp_small):
        params = exp_small
        c = critical_values(params)
        f = paradox_fractions(params, c)
        direct_q = float(params.quality.probs[: c.quality_mean + 1].sum())
        assert f.quality_mean == pytest.approx(direct_q, abs=1e-12)
        direct_k = float(_joint_rows(params, params.beta, c.degree_mean).sum())
        assert f.degree_mean == pytest.approx(direct_k, abs=1e-12)


class TestSweep:
    def test_row_ordering_and_count(self):
        rows = sweep("exponential", [0.4, 0.8], [2, 4], [4])
        assert len(rows) == 4
        assert [(r.x, r.beta) for r in rows] == [(0.4, 2), (0.4, 4), (0.8, 2), (0.8, 4)]

    def test_row_error_recorded_not_raised(self):
        rows = sweep("exponential", [-1.0, 0.5], [2], [4])
        assert rows[0].error is not None
        assert rows[0].qpa is None
        assert rows[1].error is None

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep("exponential", [], [2], [4])

    def test_median_fp_stronger_than_mean_fp(self):
        rows = sweep("exponential", [0.3, 0.9, 1.5], [2, 8], [16])
        for r in rows:
            assert r.error is None
            assert r.fractions.degree_median <= r.fractions.degree_mean + 1e-12

    def test_mean_median_flip_with_q(self):
        rows = sweep("exponential", [0.5, 1.6], [2], [8])
        low, high = rows

        def ge(a, b):
            return (-1 if a is None else a) >= (-1 if b is None else b)

        assert ge(low.qpa.quality_mean, low.qpa.quality_median)
        assert ge(high.qpa.quality_median, high.qpa.quality_mean)

    def test_quality_criticals_nondecreasing_in_q(self):
        rows = sweep("exponential", [0.2, 0.6, 1.0, 1.4], [2], [8])
        vals_mean = [(-1 if r.qpa.quality_mean is None else r.qpa.quality_mean) for r in rows]
        vals_med = [(-1 if r.qpa.quality_median is None else r.qpa.quality_median) for r in rows]
        assert vals_mean == sorted(vals_mean)
        assert vals_med == sorted(vals_med)

    def test_degree_mean_critical_nondecreasing_in_p(self):
        rows = sweep("bernoulli", [0.1, 0.5, 0.9], [2], [8])
        vals = [(-1 if r.qpa.degree_mean is None else r.qpa.degree_mean) for r in rows]
        assert vals == sorted(vals)

    def test_threads_match_serial(self):
        grid = [0.4, 1.2]
        serial = sweep("exponential", grid, [2], [4], threads=1)
        parallel = sweep("exponential", grid, [2], [4], threads=2)
        for a, b in zip(serial, parallel):
            assert a.qpa == b.qpa
            assert a.fractions == b.fractions


class TestSweepCsv:
    def test_header_and_fields(self):
        rows = sweep("bernoulli", [1.0], [2], [8])
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "bernoulli"
        assert cells[1] == "1"
        # all qualities are zero at p=1: quality criticals are absent,
        # serialized as empty fields
        assert cells[4] == ""
        assert cells[5] == ""
        # fractions carry six decimal places
        assert len(cells[12].split(".")[1]) == 6

    def test_roundtrip_row_count(self):
        rows = sweep("exponential", [0.5, 1.0], [2], [4, 8])
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        assert len(buf.getvalue().splitlines()) == 1 + 4

    def test_reference_rows_verbatim(self, exponential_sweep):
        # the benchmark's 120 reference rows (perfbench/sweep_reference.csv,
        # read, never written) are a subset of the shared sweep fixture's
        # grid, each to the last printed digit
        from pathlib import Path

        reference = Path(__file__).resolve().parents[1] / "perfbench" / "sweep_reference.csv"
        with open(reference, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        buf = io.StringIO()
        write_sweep_csv(exponential_sweep, buf)
        got = buf.getvalue().splitlines()
        assert want[0] == got[0] == SWEEP_CSV_HEADER
        assert len(want) == 1 + 120
        by_point = {tuple(line.split(",")[:4]): line for line in got[1:]}
        differing = [
            f"reference {line!r}\n    sweep {by_point.get(tuple(line.split(',')[:4]))!r}"
            for line in want[1:]
            if by_point.get(tuple(line.split(",")[:4])) != line
        ]
        assert not differing, "rows differing from the reference:\n" + "\n".join(differing)
