"""Floating-point checks: quadrature identities, critical points, Hessians."""

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

    def f(theta):
        nodes.append(theta)
        return 1.0

    with pytest.raises(nc.QuadratureError, match="within 64 points"):
        nc.periodic_quadrature(f, tol=-1.0)
    steps = [theta * 64 / (2 * math.pi) for theta in nodes]
    assert all(abs(k - round(k)) < 1e-9 for k in steps)  # all on the 64-point grid
    assert any(round(k) % 2 for k in steps)  # the 64-point grid was reached


def test_quadrature_takes_a_float():
    # (1/2pi) int_0^{2pi} e^{cos t} dt is the modified Bessel value I_0(1)
    mean = nc.periodic_quadrature(lambda t: math.exp(math.cos(t)), tol=1e-14) / (2 * math.pi)
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
