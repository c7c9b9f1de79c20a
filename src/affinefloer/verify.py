"""Cross-check sweeps of the triangle product against its independent oracles.

Each sweep compares one computation with an independent oracle up to a
bound and returns a `Sweep`: how many comparisons it made and a one-line
description of each that disagreed.  A call that raises ArithmeticError on a
pair is a mismatch naming the error text.  Library calls go through module
attributes (`floer.mu2`), so a replacement installed on a module is the one
the sweep runs.  `SUITES` is the one table of `verify` suites: these sweeps
and the floating-point checks of `numchecks.numeric_report`.  The CLI builds
its `verify` command from it; the acceptance tests call the same sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import affine, floer, numchecks, polyring
from . import homotopy as _homotopy
from . import tropical as _tropical
from . import wrapped as _wrapped


@dataclass(frozen=True)
class Sweep:
    """Outcome of one sweep: comparisons made and the ones that disagreed."""

    checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _outcome(run):
    """run(), or "raised (<text>)" when it raises ArithmeticError."""
    try:
        return run()
    except ArithmeticError as exc:
        return f"raised ({exc})"


def ring_expansion(a: int, i: int, n: int, b: int, j: int, m: int) -> dict[tuple[int, int], int]:
    """Q_{a,i} of degree n times Q_{b,j} of degree m, expanded over the
    degree n + m basis by `polyring.q_product` and keyed by (a, i), as mu2's
    coefficients are.  A degree-0 factor is the ring's unit Q_{0,0}."""
    expansion = polyring.q_product((a, i, n), (b, j, m))
    return {(col, depth): c for (col, depth, _), c in expansion.items()}


def ring(max_degree: int) -> Sweep:
    """Q-basis expansion of Q_{a,i} Q_{b,j} against mu2 for every pair of
    ring basis elements with factor degrees up to max_degree."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    checked = 0
    mismatches: list[str] = []
    for n in range(1, max_degree + 1):
        for m in range(1, max_degree + 1):
            for a, i, _ in polyring.qbasis_indices(n):
                for b, j, _ in polyring.qbasis_indices(m):
                    checked += 1
                    expanded = _outcome(lambda: ring_expansion(a, i, n, b, j, m))
                    coeffs = _outcome(lambda: floer.mu2(
                        floer.basis_vector(n, n + m, b, j), floer.basis_vector(0, n, a, i)
                    ).coeffs())
                    if expanded != coeffs:
                        mismatches.append(
                            f"Q_({a},{i})@{n} * Q_({b},{j})@{m}: "
                            f"ring {expanded} vs product {coeffs}"
                        )
    return Sweep(checked, tuple(mismatches))


def homotopy(max_k: int) -> Sweep:
    """For every k <= max_k: 2^k admissible sequences, equal to the
    brute-force search over [-2, 2]^(k+1), and per-height counts C(k, s) for
    (i, j) in {(0, 0), (1, 2)} over h = i+j-1 .. i+j+k+1."""
    if max_k < 0:
        raise ValueError("max_k must be at least 0")
    checked = 0
    mismatches: list[str] = []
    for k in range(max_k + 1):
        listed = _homotopy.enumerate_admissible(k)
        brute = _homotopy.brute_force_admissible(k, 2)
        checked += 2
        if len(listed) != 2**k:
            mismatches.append(f"k={k}: {len(listed)} admissible sequences, expected {2**k}")
        if listed != brute:
            mismatches.append(
                f"k={k}: enumeration and brute force differ on "
                f"{sorted(set(listed) ^ set(brute))}"
            )
        for i, j in ((0, 0), (1, 2)):
            for h in range(i + j - 1, i + j + k + 2):
                s = h - (i + j)
                want = math.comb(k, s) if 0 <= s <= k else 0
                count = _homotopy.homotopy_count(k, i, j, h)
                checked += 1
                if count != want:
                    mismatches.append(
                        f"homotopy_count(k={k}, i={i}, j={j}, h={h}) = {count}, expected {want}"
                    )
    return Sweep(checked, tuple(mismatches))


def tropical(max_nm: int) -> Sweep:
    """Tropical structure constants against mu2 at every output height of
    every cp2 pair with factor degrees up to max_nm.  A witness that does
    not balance is reported as a mismatch."""
    if max_nm < 1:
        raise ValueError("max_nm must be at least 1")
    checked = 0
    mismatches: list[str] = []
    for n in range(1, max_nm + 1):
        for m in range(1, max_nm + 1):
            heights = affine.CP2.column_counts(n + m)
            for a, i in sorted(floer.index_range(0, n)):
                for b, j in sorted(floer.index_range(n, n + m)):
                    coeffs = _outcome(lambda: floer.mu2(
                        floer.basis_vector(n, n + m, b, j), floer.basis_vector(0, n, a, i)
                    ).coeffs())
                    for h in range(heights[a + b]):
                        checked += 1
                        want = coeffs.get((a + b, h), 0) if isinstance(coeffs, dict) else coeffs
                        try:
                            count = _tropical.tropical_structure_constant(a, i, n, b, j, m, h)
                        except ArithmeticError as exc:
                            count = f"unbalanced ({exc})"
                        if count != want:
                            mismatches.append(
                                f"q_({a},{i})@{n} * q_({b},{j})@{m} at h={h}: "
                                f"tropical {count} vs product {want}"
                            )
    return Sweep(checked, tuple(mismatches))


def wrapped(max_degree: int) -> Sweep:
    """Wrapped products against the localized-ring oracle for d1 + d2 <=
    max_degree on the window |a| <= d + 2, |i| <= 2, in every case."""
    if max_degree < 0:
        raise ValueError("max_degree must be at least 0")
    checked = 0
    mismatches: list[str] = []
    for case in _wrapped.Complement:
        for d1 in range(max_degree + 1):
            for d2 in range(max_degree + 1 - d1):
                for q1 in _wrapped.wrapped_basis(case, d1, a_max=d1 + 2, i_max=2):
                    for q2 in _wrapped.wrapped_basis(case, d2, a_max=d2 + 2, i_max=2):
                        checked += 1
                        got = _outcome(lambda: _wrapped.wrapped_product(case, q2, q1))
                        want = _outcome(lambda: _wrapped.laurent_product_in_qbasis(
                            case, _wrapped.rational_function(q1), _wrapped.rational_function(q2)
                        ))
                        if got != want:
                            mismatches.append(
                                f"case {case.name}: q_({q1.a},{q1.i})@{d1} * "
                                f"q_({q2.a},{q2.i})@{d2}: product {got} vs Laurent {want}"
                            )
    return Sweep(checked, tuple(mismatches))


@dataclass(frozen=True)
class Suite:
    """One `verify` suite.  The CLI option `flag` ("max_degree" is
    `--max-degree`) sets its bound, `default` when absent; a bound above
    `cap` is refused on the suite alone and lowered to it under `all`."""

    check: Optional[str]  # None: the numeric report, one check per entry
    flag: str
    default: Any
    sweep: Callable[[Any], Any]
    cap: float = math.inf

    def run(self, bound=None) -> tuple[Any, list[tuple[str, bool, str]]]:
        """The JSON result of the sweep at bound (None: the default), lowered
        to the cap, and its checks, each as (name, pass, detail)."""
        found = self.sweep(min(self.default if bound is None else bound, self.cap))
        if self.check is None:
            return found, [
                (c["name"], c["pass"], c.get("error") or f"max_error={c['max_error']:.3e}")
                for c in found["checks"]
            ]
        detail = f"{found.checked} checked"
        if found.mismatches:
            detail += f", {len(found.mismatches)} mismatches, first: {found.mismatches[0]}"
        result = {"checked": found.checked, "mismatches": list(found.mismatches)}
        return result, [(self.check, found.ok, detail)]


# the `verify` suites, in the order `verify all` runs them
SUITES = {
    "ring": Suite("ring_isomorphism", "max_degree", 6, ring),
    "homotopy": Suite("homotopy_word_counts", "max_k", 8, homotopy),
    "tropical": Suite("tropical_counts_match_products", "max", 4, tropical),
    "wrapped": Suite("wrapped_products_match_localized_ring", "max_degree", 6, wrapped, cap=3),
    "numeric": Suite(None, "tol", 1e-9, numchecks.numeric_report),
}
