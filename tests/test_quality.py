import numpy as np
import pytest

from qpanet.errors import DomainError, GraphParseError
from qpanet.quality import (
    load_custom,
    make_bernoulli,
    make_custom,
    make_exponential,
    sample_quality,
)


class TestBernoulli:
    def test_structure(self):
        pmf = make_bernoulli(0.3, 8)
        assert pmf.probs[0] == pytest.approx(0.3)
        assert pmf.probs[8] == pytest.approx(0.7)
        assert np.all(pmf.probs[1:8] == 0.0)
        assert pmf.mean == pytest.approx(5.6)
        assert pmf.median == 8

    def test_median_switches_at_half(self):
        assert make_bernoulli(0.6, 8).median == 0
        assert make_bernoulli(0.5, 8).median == 0
        assert make_bernoulli(0.49, 8).median == 8

    def test_degenerate(self):
        pmf = make_bernoulli(1.0, 8)
        assert pmf.probs[0] == 1.0
        assert pmf.mean == 0.0
        assert list(pmf.support) == [0]

    def test_p_zero_is_point_mass_at_top(self):
        pmf = make_bernoulli(0.0, 5)
        assert pmf.probs[5] == 1.0
        assert pmf.mean == 5.0

    def test_domain(self):
        with pytest.raises(DomainError):
            make_bernoulli(-0.1, 8)
        with pytest.raises(DomainError):
            make_bernoulli(1.1, 8)
        with pytest.raises(DomainError):
            make_bernoulli(0.5, 0)


class TestExponential:
    def test_uniform_at_one(self):
        pmf = make_exponential(1.0, 8)
        assert np.allclose(pmf.probs, 1.0 / 9.0)
        assert pmf.mean == pytest.approx(4.0)
        assert pmf.median == 4

    def test_half_decay(self):
        pmf = make_exponential(0.5, 2)
        assert np.allclose(pmf.probs, [4 / 7, 2 / 7, 1 / 7])

    def test_ratio_property(self):
        for q in (0.3, 0.5, 1.0, 1.7):
            pmf = make_exponential(q, 12)
            ratios = pmf.probs[1:] / pmf.probs[:-1]
            assert np.max(np.abs(ratios - q)) < 1e-12

    def test_monotonicity(self):
        assert np.all(np.diff(make_exponential(0.5, 8).probs) < 0)
        assert np.all(np.diff(make_exponential(1.5, 8).probs) > 0)

    def test_small_q_approaches_point_mass(self):
        pmf = make_exponential(1e-12, 6)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            make_exponential(0.0, 8)
        with pytest.raises(DomainError):
            make_exponential(-1.0, 8)


class TestStatsAndInvariants:
    def test_median_convention_half_zero_half_five(self):
        pmf = make_custom([0.5, 0, 0, 0, 0, 0.5])
        assert pmf.median == 0
        assert pmf.mean == pytest.approx(2.5)

    def test_point_mass(self):
        pmf = make_custom([0, 0, 0, 1.0])
        assert (pmf.mean, pmf.median) == (3.0, 3)

    def test_bernoulli_p02(self):
        pmf = make_bernoulli(0.2, 10)
        assert (pmf.mean, pmf.median) == (pytest.approx(8.0), 10)

    def test_random_pmf_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            size = int(rng.integers(1, 30))
            pmf = make_custom(rng.random(size) ** 2)
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
            cdf = pmf.cdf()
            assert np.all(np.diff(cdf) >= -1e-15)
            m = pmf.median
            assert cdf[m] >= 0.5 - 1e-12
            if m > 0:
                assert cdf[m - 1] < 0.5

    def test_probs_immutable(self):
        pmf = make_bernoulli(0.5, 4)
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.9


class TestSampling:
    def test_point_mass_any_seed(self):
        pmf = make_custom([0, 0, 0, 0, 1.0])
        for seed in (0, 1, 99):
            assert sample_quality(pmf, np.random.default_rng(seed)) == 4

    def test_determinism(self):
        pmf = make_exponential(0.7, 9)
        a = sample_quality(pmf, np.random.default_rng(42), size=5000)
        b = sample_quality(pmf, np.random.default_rng(42), size=5000)
        assert np.array_equal(a, b)

    def test_frequency_convergence(self):
        pmf = make_bernoulli(0.5, 8)
        draws = sample_quality(pmf, np.random.default_rng(1234), size=1_000_000)
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - 0.5) < 0.002  # 3 sigma of binomial(1e6, .5) is 0.0015

    def test_support_only(self):
        pmf = make_bernoulli(0.4, 6)
        draws = sample_quality(pmf, np.random.default_rng(5), size=10_000)
        assert set(np.unique(draws)) <= {0, 6}


class TestCustomFile:
    def test_load_and_normalize(self, tmp_path):
        p = tmp_path / "pmf.txt"
        p.write_text("# quality weights\n0 2\n3 1\n1 1\n")
        pmf = load_custom(p)
        assert pmf.theta_max == 3
        assert np.allclose(pmf.probs, [0.5, 0.25, 0.0, 0.25])
        assert pmf.family == "custom"
        assert pmf.x is None

    def test_parse_error_has_line(self, tmp_path):
        p = tmp_path / "pmf.txt"
        p.write_text("0 1\nbogus\n")
        with pytest.raises(GraphParseError, match="line 2"):
            load_custom(p)

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "pmf.txt"
        p.write_text("0 1\n1 -2\n")
        with pytest.raises(GraphParseError, match="line 2"):
            load_custom(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "pmf.txt"
        p.write_text("# nothing\n")
        with pytest.raises(GraphParseError):
            load_custom(p)
