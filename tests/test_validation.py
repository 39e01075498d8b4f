from qpanet import validation
from qpanet.analytic import ModelParams
from qpanet.quality import make_exponential


def test_quick_checks_all_pass():
    checks = validation.run_checks(quick=True)
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_failing_check_does_not_claim_the_bound():
    # a failing criterion must not print as "residual 2 < 1: FAIL"
    failed = validation._check("x", 2.0, 1.0)
    assert not failed.passed
    assert "<" not in failed.detail and "residual 2 >= 1" in failed.detail
    assert validation._check("x", 0.5, 1.0).detail == "residual 0.5 < 1"


def test_edge_balance_residuals_are_diagnostic_only():
    # edge_balance_residuals only reports both sides of the balance;
    # check_edge_balance is what asserts them (test_edge_balance_is_exact)
    params = ModelParams(beta=2, quality=make_exponential(0.5, 2))
    rows = validation.edge_balance_residuals(params)
    assert rows
    for (tup, lhs, rhs) in rows:
        assert lhs >= 0.0 and rhs >= 0.0


def test_edge_balance_is_exact():
    # k P(k,theta) P(ell,phi | k,theta) = ell P(ell,phi) P(k,theta | ell,phi):
    # both sides count the edges between the two classes
    check = validation.check_edge_balance()
    assert check.count == 4 * len(validation.EDGE_BALANCE_PARAMS)
    assert check.residual < 1e-12


def test_nn_sample_points_in_support():
    for params, *_ in validation.NORMALIZATION_GRID():
        pts = validation.NN_SAMPLE_POINTS(params)
        support = set(int(t) for t in params.quality.support)
        assert len(pts) >= 6
        for k, t in pts:
            assert k >= params.beta
            assert t in support
