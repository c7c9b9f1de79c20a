"""Cross-check sweeps of the triangle product against its independent oracles.

Each sweep compares one computation with an independent oracle up to a
bound and returns a `Sweep`: how many comparisons it made and a one-line
description of each that disagreed.  A call that raises ArithmeticError on a
pair is a mismatch naming the error text.  The cp2 suites and the tests share
one pair sweep, `_pairs`; the ring suite checks its points against the ring's
basis.  Library calls go through module attributes (`floer.mu2`), so the sweep
runs a replacement installed on a module.  The CLI builds `verify` from
`SUITES`, the one table of suites: these sweeps and `numchecks.numeric_report`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional

from . import affine, floer, numchecks, polyring
from . import homotopy as _homotopy
from . import tropical as _tropical
from . import wrapped as _wrapped


class Sweep(NamedTuple):
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


def _pairs(max_degree: int):
    """(a, i, n, b, j, m, coeffs) for each pair of cp2 points q_(a,i)@n, q_(b,j)@m
    with 1 <= n, m <= max_degree, in (n, m, a, i, b, j) order: coeffs is mu2's
    product of the pair by (column, depth), or its "raised (<text>)"."""
    for n in range(1, max_degree + 1):
        for m in range(1, max_degree + 1):
            for a, i, _ in affine.fractional_points(affine.CP2, n):
                for b, j, _ in affine.fractional_points(affine.CP2, m):
                    yield a, i, n, b, j, m, _outcome(lambda: floer.mu2(
                        floer.basis_vector(n, n + m, b, j), floer.basis_vector(0, n, a, i)
                    ).coeffs())


def ring(max_degree: int) -> Sweep:
    """Q-basis expansion of Q_{a,i} Q_{b,j} against mu2 for every pair of
    ring basis elements with factor degrees up to max_degree."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    mismatches = []
    for d in range(1, max_degree + 1):
        if diff := set(affine.fractional_points(affine.CP2, d)) ^ set(polyring.qbasis_indices(d)):
            mismatches.append(f"degree {d}: cp2 points and ring basis differ on {sorted(diff)}")
    checked = 0
    for a, i, n, b, j, m, coeffs in _pairs(max_degree):
        checked += 1
        expanded = _outcome(lambda: ring_expansion(a, i, n, b, j, m))
        if expanded != coeffs:
            mismatches.append(
                f"Q_({a},{i})@{n} * Q_({b},{j})@{m}: ring {expanded} vs product {coeffs}"
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
    every cp2 pair with factor degrees up to max_nm (the ring suite checks the
    pairs against its basis).  An unbalanced witness is a mismatch."""
    if max_nm < 1:
        raise ValueError("max_nm must be at least 1")
    checked = 0
    mismatches: list[str] = []
    for a, i, n, b, j, m, coeffs in _pairs(max_nm):
        for h in range(affine.CP2.column_counts(n + m)[a + b]):
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


class Suite(NamedTuple):
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


# The `verify` suites, in the order `verify all` runs them.  Each sweep's
# work grows without bound in its bound; a cap is the largest bound that
# finishes in about ten seconds on a 2-core machine (ring 13: 9.5 s,
# tropical 13: 9.1 s; one more step takes 14 to 15 s).  Homotopy 12 takes
# 0.29 to 0.41 s, but its word oracle tabulates 5^floor((k+1)/2) suffixes
# (390 625 at k = 16; a traced peak of 4.9 MiB at 12 and 21 MiB at 13), so
# a higher homotopy cap needs a memory figure as well as a time.
SUITES = {
    "ring": Suite("ring_isomorphism", "max_degree", 6, ring, cap=13),
    "homotopy": Suite("homotopy_word_counts", "max_k", 8, homotopy, cap=12),
    "tropical": Suite("tropical_counts_match_products", "max", 4, tropical, cap=13),
    "wrapped": Suite("wrapped_products_match_localized_ring", "max_degree", 3, wrapped, cap=3),
    "numeric": Suite(None, "tol", 1e-9, numchecks.numeric_report),
}
