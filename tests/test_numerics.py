import math

import numpy as np
import pytest
from scipy.special import gammaln as scipy_gammaln

from qpanet.errors import DomainError, NonConvergenceError
from qpanet.numerics import adaptive_series, ln_gamma, sum_log_terms


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), abs=1e-12)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-3.2)
        with pytest.raises(DomainError):
            ln_gamma(np.array([1.0, -1.0]))

    def test_against_scipy_oracle(self):
        # absolute 1e-12 holds up to moderate arguments; beyond that the
        # result's own ulp exceeds 1e-12 and the relative floor applies
        xs = np.concatenate(
            [np.linspace(0.5, 100.0, 3001), np.geomspace(100.0, 1e6, 1500)]
        )
        ours = ln_gamma(xs)
        ref = scipy_gammaln(xs)
        err = np.abs(ours - ref)
        assert err[xs <= 300.0].max() < 1e-12
        rel = err / np.maximum(np.abs(ref), 1.0)
        assert rel.max() < 5e-15

    def test_recurrence(self):
        for x in (0.5, 1.5, 2.0, 7.0, 100.0, 1e4):
            assert ln_gamma(x + 1.0) - ln_gamma(x) == pytest.approx(
                math.log(x), abs=1e-10
            )

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.7, 3.0, 42.5])
        out = ln_gamma(xs)
        assert out.shape == (3,)
        for x, v in zip(xs, out):
            assert v == ln_gamma(float(x))


class TestSumLogTerms:
    def test_known_values(self):
        assert sum_log_terms([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-14)
        assert sum_log_terms([-math.inf, 3.0]) == 3.0
        assert sum_log_terms([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2.0), abs=1e-12
        )

    def test_no_overflow_large_magnitudes(self):
        assert math.isfinite(sum_log_terms([1e5, 1e5 - 3.0]))
        assert math.isfinite(sum_log_terms([-1e5, -1e5]))

    def test_result_at_least_max(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            terms = rng.normal(scale=50.0, size=rng.integers(1, 40))
            assert sum_log_terms(terms) >= terms.max()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        terms = rng.normal(scale=30.0, size=25)
        base = sum_log_terms(terms)
        for _ in range(5):
            assert sum_log_terms(rng.permutation(terms)) == pytest.approx(
                base, abs=1e-12
            )

    def test_shift_equivariance(self):
        rng = np.random.default_rng(6)
        terms = rng.normal(size=12)
        for c in (-700.0, -3.0, 5.0, 300.0):
            assert sum_log_terms(terms + c) == pytest.approx(
                c + sum_log_terms(terms), abs=1e-10
            )

    def test_empty_is_error(self):
        with pytest.raises(DomainError):
            sum_log_terms([])

    def test_all_zero_terms(self):
        assert sum_log_terms([-math.inf, -math.inf]) == -math.inf


class TestAdaptiveSeries:
    def test_geometric(self):
        r = adaptive_series(lambda i: 2.0 ** (-i), start=0, rel_tol=1e-12)
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.terms_used >= 1
        assert r.tail_bound >= 0.0

    def test_all_zero(self):
        r = adaptive_series(lambda i: 0.0, start=0, rel_tol=1e-6)
        assert r.value == 0.0
        assert r.tail_bound == 0.0

    def test_telescoping_closed_form(self):
        # sum_{i>=2} 1/(i(i+1)(i+2)) = 1/(2*2*3) = 1/12
        r = adaptive_series(
            lambda i: 1.0 / (i * (i + 1) * (i + 2)), start=2, rel_tol=1e-12
        )
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-7)

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99])
    def test_tail_bound_bounds_geometric(self, ratio):
        closed = 1.0 / (1.0 - ratio)
        r = adaptive_series(lambda i: ratio**i, start=0, rel_tol=1e-10)
        assert abs(r.value - closed) <= r.tail_bound

    def test_cap_error_names_cap(self):
        with pytest.raises(NonConvergenceError, match="500"):
            adaptive_series(lambda i: 1.0, start=0, rel_tol=1e-10, max_terms=500)

    def test_rel_tol_domain(self):
        with pytest.raises(DomainError):
            adaptive_series(lambda i: 0.5**i, start=0, rel_tol=2.0)
