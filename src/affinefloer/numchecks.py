"""Floating-point verification of the analytic coordinate and potential formulas.

Four families of checks, all derived from the torus fibration
|uv - 1| = R, |u|^2 - |v|^2 = lambda on the complement of the conic uv = 1:

* the flux integrals giving the two chart coordinates

      xi  = (1/2pi) int_0^{2pi} (1/2) log((lambda + sqrt(lambda^2 + 4|1+Re^{it}|^2))/2) dt
      psi = same with lambda replaced by -lambda

  together with eta = log R, which must satisfy xi + psi = 0 for R < 1 and
  xi + psi = log R for R > 1;

* the mean of log|1 + R e^{it}| over the circle, which vanishes for R < 1
  and equals log R for R > 1 (Cauchy integral formula);

* the critical points of the potential W = u + e^{-L} v^2/(uv - 1): in the
  (v, w = uv - 1) chart, exactly the three points v = e^{L/3} zeta, w = 1
  with zeta^3 = 1, whose critical values 3 e^{-L/3} zeta^{-1} are the
  eigenvalues of quantum multiplication by the anticanonical class;

* the Hessian of F(x, y) = x^2 + y^2/x, whose orthogonality ratio
  -F_xy / F_yy = y/x makes verticals and rays through the origin an
  orthogonal net.

Integrands are smooth, even and 2pi-periodic, so uniform trapezoid sums
converge spectrally and need only the nodes in [0, pi]; we double the point
count until the Richardson-style difference of successive refinements is
below tolerance.  Root finding is Newton on the gradient from deterministic
starts.  Everything is pure and deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

QUADRATURE_START = 32  # trapezoid points before the first doubling
QUADRATURE_MAX = 1 << 22  # trapezoid points at which doubling gives up
# The smallest quadrature tolerance that float rounding cannot decide.  Every
# integrand of the report is a logarithm over |1 + R e^{it}| <= 6 (R <= 5),
# so no integral exceeds about 2pi log 6 ~ 11 (the largest is about 5.7), and
# 2^-52 of 11 is about 2.5e-15: two sums that close may differ by rounding
# alone.  1e-14 leaves four such units.
TOL_FLOOR = 1e-14
NEWTON_STARTS = 12  # Newton starts, evenly spaced on the circle |v| = e^{L/3}
NEWTON_MAX_ITER = 80
ROOT_DEDUP_RADIUS = 1e-6  # roots closer than this in |dv| + |dw| are one root
HESSIAN_STEP = 1e-5  # central-difference step of `hessian_identity`
GRID_CELLS = 5  # `relation_grid` points per R-interval


class QuadratureError(RuntimeError):
    """Raised when trapezoid doubling fails to reach tolerance in budget."""


class RootFindingError(RuntimeError):
    """Raised when Newton iteration fails to produce the expected roots."""


@dataclass(frozen=True)
class FiberParams:
    """Torus fiber parameters: radius R of |uv - 1| and moment level lambda."""

    R: float
    lam: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")


@dataclass(frozen=True)
class SyzCoordinates:
    eta: float
    xi: float
    psi: float


@dataclass(frozen=True)
class HessianReport:
    closed_form: tuple[tuple[float, float], tuple[float, float]]
    max_rel_error: float
    ratio: float


def periodic_quadrature(
    f: Callable[[float], float],
    tol: float = 1e-10,
) -> float:
    """Trapezoid integral of an even 2pi-periodic function over [0, 2pi).

    `f` takes one float and must be even, f(theta) = f(2pi - theta), so an
    n-point grid needs only its nodes in [0, pi]: f(0) + f(pi) + twice each
    interior node.  Doubles the uniform grid, up to QUADRATURE_MAX points,
    until two successive values differ by at most tol; for periodic
    integrands the uniform rule is already spectrally accurate, so the
    difference of refinements is a reliable error estimate.
    """
    n = QUADRATURE_START
    step = 2 * math.pi / n
    interior = math.fsum(map(f, [k * step for k in range(1, n // 2)]))
    prev = math.fsum((f(0.0), f(math.pi), 2 * interior)) * step
    while n < QUADRATURE_MAX:
        n *= 2
        step = 2 * math.pi / n
        # the new odd nodes below pi; their mirror images above pi are equal
        odd = math.fsum(map(f, [k * step for k in range(1, n // 2, 2)]))
        refined = prev / 2 + odd * (2 * step)
        if abs(refined - prev) <= tol:
            return refined
        prev = refined
    raise QuadratureError(f"no convergence to {tol} within {QUADRATURE_MAX} points")


def log_integral(R: float, tol: float = 1e-10) -> float:
    """int_0^{2pi} log|1 + R e^{i theta}| d theta; 0 for R < 1, 2pi log R for R > 1."""
    if R <= 0:
        raise ValueError("R must be positive")
    if R == 1:
        raise ValueError("R = 1 is the singular radius")

    def f(theta: float) -> float:
        return 0.5 * math.log1p(R * (R + 2 * math.cos(theta)))

    return periodic_quadrature(f, tol=tol)


def syz_coordinates(params: FiberParams, tol: float = 1e-10) -> SyzCoordinates:
    """Chart coordinates of the torus fiber by adaptive flux quadrature."""
    if params.R == 1 and params.lam == 0:
        raise ValueError("(R, lambda) = (1, 0) is the singular fiber")
    R, lam = params.R, params.lam

    def integrand(sign: float) -> Callable[[float], float]:
        shift, lam2 = sign * lam, lam * lam

        def f(theta: float) -> float:
            mod2 = 1 + R * (R + 2 * math.cos(theta))  # |1 + R e^{i theta}|^2
            return 0.5 * math.log((shift + math.sqrt(lam2 + 4 * mod2)) / 2)

        return f

    xi = periodic_quadrature(integrand(+1.0), tol=tol) / (2 * math.pi)
    psi = periodic_quadrature(integrand(-1.0), tol=tol) / (2 * math.pi)
    return SyzCoordinates(eta=math.log(R), xi=xi, psi=psi)


def _potential_gradient(v: complex, w: complex, t: float) -> tuple[complex, complex]:
    """Gradient of W(v, w) = (1 + w)/v + t v^2 / w with t = e^{-Lambda}."""
    return (-(1 + w) / v**2 + 2 * t * v / w, 1 / v - t * v**2 / w**2)


def _potential_hessian(v: complex, w: complex, t: float):
    return (
        (2 * (1 + w) / v**3 + 2 * t / w, -1 / v**2 - 2 * t * v / w**2),
        (-1 / v**2 - 2 * t * v / w**2, 2 * t * v**2 / w**3),
    )


def critical_points(Lambda: float) -> list[tuple[tuple[complex, complex], complex]]:
    """All critical points of W with their critical values, by multi-start
    Newton on the gradient in the (v, w) chart.

    Returns exactly three ((v, w), value) pairs, sorted by value argument;
    raises RootFindingError if the expected count is not found or residuals
    stay above 1e-12.
    """
    if Lambda <= 0:
        raise ValueError("Lambda must be positive")
    t = math.exp(-Lambda)
    radius = math.exp(Lambda / 3)
    roots: list[tuple[complex, complex]] = []
    for idx in range(NEWTON_STARTS):
        v = radius * cmath.exp(2j * math.pi * idx / NEWTON_STARTS)
        w = complex(1.1, 0.1)
        for _ in range(NEWTON_MAX_ITER):
            gv, gw = _potential_gradient(v, w, t)
            if abs(gv) + abs(gw) < 1e-14:
                break
            (h11, h12), (h21, h22) = _potential_hessian(v, w, t)
            det = h11 * h22 - h12 * h21
            if det == 0:
                break
            dv = (gv * h22 - gw * h12) / det
            dw = (gw * h11 - gv * h21) / det
            v, w = v - dv, w - dw
            if not (1e-9 < abs(v) < 1e9 * radius and 1e-9 < abs(w) < 1e9):
                break  # diverged or hit a pole; other starts will cover
        else:
            continue
        gv, gw = _potential_gradient(v, w, t)
        if math.hypot(abs(gv), abs(gw)) > 1e-12:
            continue
        if all(abs(v - rv) + abs(w - rw) > ROOT_DEDUP_RADIUS for rv, rw in roots):
            roots.append((v, w))
    if len(roots) != 3:
        raise RootFindingError(
            f"expected 3 critical points, found {len(roots)} "
            f"(Lambda={Lambda}, starts={NEWTON_STARTS})"
        )

    def value(v: complex, w: complex) -> complex:
        return (1 + w) / v + t * v**2 / w

    results = [((v, w), value(v, w)) for v, w in roots]
    results.sort(key=lambda item: cmath.phase(item[1]))
    return results


def expected_critical_values(Lambda: float) -> list[complex]:
    """Closed form 3 e^{-Lambda/3} e^{-2 pi i n/3}, sorted by argument."""
    vals = [
        3 * cmath.exp(-Lambda / 3) * cmath.exp(-2j * math.pi * k / 3) for k in range(3)
    ]
    return sorted(vals, key=cmath.phase)


def hessian_identity(x: float, y: float) -> HessianReport:
    """Hessian of F(x, y) = x^2 + y^2/x, closed form against central
    differences, plus the orthogonality ratio -F_xy/F_yy = y/x."""
    if x <= 0:
        raise ValueError("x must be positive")

    def F(px: float, py: float) -> float:
        return px * px + py * py / px

    closed = (
        (2 + 2 * y * y / x**3, -2 * y / x**2),
        (-2 * y / x**2, 2 / x),
    )

    def second(di: tuple[float, float], dj: tuple[float, float]) -> float:
        hi, hj = HESSIAN_STEP, HESSIAN_STEP
        return (
            F(x + hi * di[0] + hj * dj[0], y + hi * di[1] + hj * dj[1])
            - F(x + hi * di[0] - hj * dj[0], y + hi * di[1] - hj * dj[1])
            - F(x - hi * di[0] + hj * dj[0], y - hi * di[1] + hj * dj[1])
            + F(x - hi * di[0] - hj * dj[0], y - hi * di[1] - hj * dj[1])
        ) / (4 * hi * hj)

    ex, ey = (1.0, 0.0), (0.0, 1.0)
    fd = (
        (second(ex, ex), second(ex, ey)),
        (second(ey, ex), second(ey, ey)),
    )
    scale = max(abs(v) for row in closed for v in row)
    max_rel = max(
        abs(c - f) / scale for crow, frow in zip(closed, fd) for c, f in zip(crow, frow)
    )
    ratio = -closed[0][1] / closed[1][1]
    return HessianReport(closed, max_rel, ratio)


def relation_grid() -> tuple[list[float], list[float]]:
    """The (R, lambda) verification grid: R in [0.2, 0.9] union [1.1, 5],
    lambda in [-2, 2], GRID_CELLS points per R-interval."""
    n = GRID_CELLS
    rs = [0.2 + (0.9 - 0.2) * k / (n - 1) for k in range(n)]
    rs += [1.1 + (5.0 - 1.1) * k / (n - 1) for k in range(n)]
    lams = [-2.0 + 4.0 * k / (2 * n - 1) for k in range(2 * n)]
    return rs, lams


def _check(name: str, error, tolerance: float) -> dict:
    """One report entry.  `error` is the measured error, or the
    QuadratureError of a quadrature that did not converge: a failed check."""
    if isinstance(error, QuadratureError):
        return {"name": name, "max_error": None, "tolerance": tolerance, "pass": False,
                "error": str(error)}
    return {"name": name, "max_error": error, "tolerance": tolerance, "pass": error <= tolerance}


def check_tolerance(tol: float) -> float:
    """`tol` if it is finite and at least TOL_FLOOR, so that float rounding
    cannot decide a quadrature to it; ValueError otherwise."""
    if not (math.isfinite(tol) and tol >= TOL_FLOOR):
        raise ValueError(
            f"tol must be finite and at least the rounding floor {TOL_FLOOR:g}, got {tol!r}"
        )
    return tol


def numeric_report(tol: float) -> dict:
    """All numeric checks with measured errors, as one JSON-ready report.
    Raises ValueError for a tolerance `check_tolerance` rejects."""
    check_tolerance(tol)
    checks: list[dict] = []

    grid_R, grid_lam = relation_grid()
    worst = 0.0
    monotone = True
    try:
        for R in grid_R:
            prev_xi = None
            for lam in grid_lam:
                coords = syz_coordinates(FiberParams(R, lam), tol=tol)
                expected = 0.0 if R < 1 else coords.eta
                worst = max(worst, abs(coords.xi + coords.psi - expected))
                if prev_xi is not None and coords.xi < prev_xi - tol:
                    monotone = False
                prev_xi = coords.xi
        monotone_error = 0.0 if monotone else 1.0
    except QuadratureError as exc:
        worst = monotone_error = exc
    checks.append(_check("coordinate_relation_grid", worst, 1e-8))
    checks.append(_check("xi_monotone_in_lambda", monotone_error, 0.0))

    for R, expected, bound in ((0.5, 0.0, 1e-8), (2.0, 2 * math.pi * math.log(2), 1e-8)):
        try:
            err = abs(log_integral(R, tol=tol) - expected)
        except QuadratureError as exc:
            err = exc
        checks.append(_check(f"log_integral_R_{R}", err, bound))

    for Lambda in (1.0, 3.0, 6.0):
        found = [val for _, val in critical_points(Lambda)]
        expect = expected_critical_values(Lambda)
        rel = max(
            abs(f - e) / abs(e) for f, e in zip(found, expect)
        )
        checks.append(_check(f"critical_values_Lambda_{Lambda}", rel, 1e-10))

    worst_h = 0.0
    positive_definite = True
    for x in (0.5, 1.0, 1.3, 2.0):
        for y in (-0.4, 0.0, 3.0):
            report = hessian_identity(x, y)
            worst_h = max(worst_h, report.max_rel_error)
            (a, b), (_, c) = report.closed_form
            if not (a + c > 0 and a * c - b * b > 0):
                positive_definite = False
    checks.append(_check("hessian_closed_vs_finite_difference", worst_h, 1e-6))
    checks.append(_check("hessian_positive_definite", 0.0 if positive_definite else 1.0, 0.0))

    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
