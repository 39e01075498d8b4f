import pytest

from qpanet.errors import DomainError, NonConvergenceError
from qpanet.numerics import adaptive_series


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
