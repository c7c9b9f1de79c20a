"""Floating-point checks: quadrature identities, critical points, Hessians."""

import hashlib
import math

import pytest

from affinefloer import numchecks as nc
from affinefloer.numchecks import FiberParams


def test_symmetric_fiber_has_vanishing_coordinates():
    coords = nc.syz_coordinates(FiberParams(0.5, 0.0), tol=1e-12)
    assert abs(coords.xi) < 1e-10 and abs(coords.psi) < 1e-10
    assert coords.eta == math.log(0.5)


def test_small_radius_relation():
    coords = nc.syz_coordinates(FiberParams(0.5, 0.3), tol=1e-10)
    assert abs(coords.xi + coords.psi) < 1e-8


def test_large_radius_relation():
    coords = nc.syz_coordinates(FiberParams(2.0, -0.7), tol=1e-10)
    assert abs(coords.xi + coords.psi - math.log(2)) < 1e-8


def test_relation_grid():
    grid_R, grid_lam = nc.relation_grid()
    assert len(grid_R) == 10 and len(grid_lam) == 10


def test_xi_monotone_in_lambda():
    for R in (0.4, 0.9, 1.5):
        xis = [
            nc.syz_coordinates(FiberParams(R, lam), tol=1e-10).xi
            for lam in (-2.0, -1.0, 0.0, 1.0, 2.0)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(xis, xis[1:]))


def test_log_integral_values():
    assert abs(nc.log_integral(0.5, tol=1e-10)) < 1e-8
    assert abs(nc.log_integral(2.0, tol=1e-10) - 2 * math.pi * math.log(2)) < 1e-8
    assert abs(nc.log_integral(0.999, tol=1e-8)) < 1e-6


def test_log_integral_rejects_singular_radius():
    with pytest.raises(ValueError):
        nc.log_integral(1.0)
    with pytest.raises(ValueError):
        nc.log_integral(-2.0)


@pytest.mark.parametrize("tol", [1e-300, 0.0, -1e-9, math.nan, math.inf])
def test_report_rejects_a_tolerance_below_the_rounding_floor(tol):
    with pytest.raises(ValueError, match="rounding floor 1e-14"):
        nc.numeric_report(tol=tol)


def test_quadrature_error_budget(monkeypatch):
    monkeypatch.setattr(nc, "QUADRATURE_MAX", 64)
    nodes = []

    def g(cosines):
        nodes.extend(math.acos(c) for c in cosines)
        return [1.0] * len(cosines)

    with pytest.raises(nc.QuadratureError, match="within 64 points"):
        nc.periodic_quadrature(g, tol=-1.0)
    steps = [theta * 64 / (2 * math.pi) for theta in nodes]
    assert all(abs(k - round(k)) < 1e-9 for k in steps)  # all on the 64-point grid
    assert any(round(k) % 2 for k in steps)  # the 64-point grid was reached


def test_the_cosine_table_keeps_the_levels_up_to_its_cap(monkeypatch):
    monkeypatch.setattr(nc, "_cosine_table", {})
    monkeypatch.setattr(nc, "QUADRATURE_MAX", 4 * nc.COSINE_TABLE_MAX)
    with pytest.raises(nc.QuadratureError):
        nc.periodic_quadrature(lambda cs: [1.0] * len(cs), tol=-1.0)
    levels = sorted(nc._cosine_table)
    n = nc.QUADRATURE_START
    assert levels[0] == (n, True)
    assert [key[0] for key in levels[1:]] == [n << s for s in range(1, 8)]
    assert levels[-1] == (nc.COSINE_TABLE_MAX, False)
    for (n, first), cosines in nc._cosine_table.items():
        ks = range(1, n // 2, 1 if first else 2)
        assert cosines == [1.0, -1.0] * first + [math.cos(k * 2 * math.pi / n) for k in ks]


@pytest.mark.parametrize(
    "call, args",
    [
        (FiberParams, (math.nan, 0)),
        (FiberParams, (math.inf, 0)),
        (FiberParams, (-math.inf, 0)),
        (FiberParams, (0.5, math.nan)),
        (FiberParams, (0.5, -math.inf)),
        (nc.log_integral, (math.nan,)),
        (nc.log_integral, (math.inf,)),
        (nc.critical_points, (math.nan,)),
        (nc.critical_points, (math.inf,)),
        (nc.hessian_identity, (math.nan, 0.0)),
        (nc.hessian_identity, (1.0, -math.inf)),
    ],
    ids=["R-nan", "R-inf", "R-minus-inf", "lam-nan", "lam-minus-inf", "log-nan", "log-inf",
         "Lambda-nan", "Lambda-inf", "hessian-x-nan", "hessian-y-minus-inf"],
)
def test_a_non_finite_input_is_refused_up_front(call, args):
    # each would otherwise run a quadrature to its cap or report a root
    # count or a Hessian of nans
    with pytest.raises(ValueError, match=r"must be finite, got -?(nan|inf)$"):
        call(*args)


@pytest.mark.parametrize("tol", [math.nan, nc.TOL_FLOOR / 2])
@pytest.mark.parametrize(
    "call, arg", [(nc.log_integral, 0.5), (nc.syz_coordinates, FiberParams(0.5, 0.3))]
)
def test_a_quadrature_tolerance_is_checked_on_entry(call, arg, tol):
    # a nan tolerance is never met, so doubling would run to QUADRATURE_MAX
    with pytest.raises(ValueError, match="tol must be finite and at least the rounding floor"):
        call(arg, tol=tol)


def test_quadrature_takes_a_float():
    # (1/2pi) int_0^{2pi} e^{cos t} dt is the modified Bessel value I_0(1)
    # of cos t, the integrand is e^c for each float c = cos t of a level
    mean = nc.periodic_quadrature(lambda cs: [math.exp(c) for c in cs], tol=1e-14) / (2 * math.pi)
    assert abs(mean - 1.2660658777520084) < 1e-14


def test_critical_points_match_closed_form():
    for Lambda in (1.0, 3.0, 6.0):
        found = nc.critical_points(Lambda)
        assert len(found) == 3
        expected = nc.expected_critical_values(Lambda)
        for (_, value), want in zip(found, expected):
            assert abs(value - want) / abs(want) < 1e-10
        # the points themselves: v = e^{Lambda/3} zeta, w = 1
        for (v, w), _ in found:
            assert abs(abs(v) - math.exp(Lambda / 3)) < 1e-9
            assert abs(w - 1) < 1e-9


def test_critical_value_product_relation():
    for Lambda in (0.5, 2.0, 4.5):
        product = 1.0
        for _, value in nc.critical_points(Lambda):
            product *= value
        assert abs(product - 27 * math.exp(-Lambda)) < 1e-9


def test_critical_point_residuals():
    for Lambda in (1.0, 3.0, 6.0):
        t = math.exp(-Lambda)
        for (v, w), _ in nc.critical_points(Lambda):
            gv, gw = nc._potential_gradient(v, w, t)
            assert math.hypot(abs(gv), abs(gw)) <= 1e-12


def test_all_three_moduli_equal():
    found = nc.critical_points(6.0)
    for _, value in found:
        assert abs(abs(value) - 3 * math.exp(-2.0)) < 1e-10


def test_hessian_examples():
    assert nc.hessian_identity(1.0, 0.0).ratio == 0.0
    assert abs(nc.hessian_identity(2.0, 3.0).ratio - 1.5) < 1e-14
    report = nc.hessian_identity(1.3, -0.4)
    assert report.max_rel_error < 1e-6


def test_hessian_positive_definite_on_grid():
    for x in (0.3, 1.0, 2.5):
        for y in (-2.0, 0.0, 1.7):
            (a, b), (_, c) = nc.hessian_identity(x, y).closed_form
            assert a + c > 0 and a * c - b * b > 0


def test_hessian_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        nc.hessian_identity(0.0, 1.0)


def test_numeric_report_passes():
    report = nc.numeric_report(1e-9)
    assert report["pass"]
    names = {c["name"] for c in report["checks"]}
    assert "coordinate_relation_grid" in names
    assert "hessian_positive_definite" in names


def _digest(reprs):
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def test_the_syz_coordinates_and_log_integrals_are_pinned():
    # every coordinate of the relation grid at the default tolerance and at
    # the rounding floor, and the three fibers the tests above read
    grid_R, grid_lam = nc.relation_grid()
    reprs = [
        repr(nc.syz_coordinates(FiberParams(R, lam), tol=tol))
        for tol in (1e-10, nc.TOL_FLOOR)
        for R in grid_R
        for lam in grid_lam
    ]
    reprs += [
        repr(nc.syz_coordinates(FiberParams(R, lam), tol=tol))
        for R, lam, tol in ((0.5, 0.0, 1e-12), (0.5, 0.3, 1e-10), (2.0, -0.7, 1e-10))
    ]
    assert _digest(reprs) == "f9beb96f82a49618a9eb552fb53422a548f0a97539e9eccd4c509fe502e85893"
    logs = [
        repr(nc.log_integral(R, tol=tol))
        for tol in (1e-10, nc.TOL_FLOOR)
        for R in (0.2, 0.5, 0.999, 1.001, 2.0, 5.0)
    ]
    assert _digest(logs) == "c9949571274be6a80ae390f5f437dc7a05de6fb5960497b7faf3fafbc1b30353"


def test_the_numeric_report_is_pinned():
    reports = [repr(nc.numeric_report(1e-9)), repr(nc.numeric_report(nc.TOL_FLOOR))]
    assert _digest(reports) == "81e702a5cf85eb701e49f4bddf3e0eb177b6735a93c0e0cf4f9ebe59dfa64ccb"
