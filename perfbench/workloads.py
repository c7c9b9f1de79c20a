"""The three benchmark workloads, built from the library's public functions.

Each workload is a function `setup(pkg, seed) -> list[Phase]` that receives a
freshly imported `affinefloer` package and generates every input of one
sweep.  The seed only permutes the order of the items inside each phase; the
set of items, and therefore the digest of the computed structure constants,
does not depend on it.

An item's `run(payload)` returns `(result, failed)`: `result` is a
hashable summary of what the library computed (it feeds the digest) and
`failed` is how many of the item's `checks` comparisons disagreed.  Every
library call goes through a module attribute (`floer.mu2`, not a bound
name), so the tracer's wrappers, installed after set-up, see the call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# Sizes, chosen so that one sweep takes about one to three seconds on a
# 2-core machine and every oracle phase does measurable work.
DP6_WIDTHS = (1, 1, 1)
DP6_MAX_TOTAL_DEGREE = 3  # pairs with n + m <= 3 (n, m >= 1)
DP6_MAX_POINT_DENOMINATOR = 10
FOURWAY_MAX_FACTOR_DEGREE = 4  # cp2 pairs with n, m <= 4
WORDS_MAX_K = 6  # enumerate_admissible vs brute_force_admissible(k, 2)
WORDS_BRUTE_BOUND = 2
PARTITION_MAX_TOTAL = 8  # every composition of sum k_t <= 8
WRAPPED_MAX_DEGREE = 3  # d1 + d2 <= 3, window |a| <= d + 1, |i| <= 1
SYZ_TOL = 1e-10
SYZ_RELATION_LIMIT = 1e-8
CRITICAL_VALUE_LIMIT = 1e-10
CRITICAL_LAMBDAS = (1.0, 3.0, 6.0)
ASSOC_MAX_TOTAL_DEGREE = 7  # cp2 triples with n1 + n2 + n3 <= 7


@dataclass(frozen=True)
class Item:
    key: tuple
    checks: int
    payload: object


@dataclass
class Phase:
    """One sweep phase.  `is_query` marks the workload's query unit, the only
    phase whose per-item latencies feed `query_p50_us`."""

    name: str
    items: list[Item]
    run: Callable[[object], tuple[object, int]]
    is_query: bool = False


def _shuffled(items: list[Item], rng: random.Random) -> list[Item]:
    items = sorted(items, key=lambda item: item.key)
    rng.shuffle(items)
    return items


def _sorted_terms(coeffs: dict) -> tuple:
    return tuple(sorted(coeffs.items()))


def dp6_products(pkg, seed: int) -> list[Phase]:
    """Every composable basis pair on dp6, both orders, against C(k, s)."""
    affine, floer = pkg.affine, pkg.floer
    rng = random.Random(seed)
    polygon = affine.dp6_model(DP6_WIDTHS)
    problems = affine.validate(polygon)
    if problems:
        raise ValueError(f"dp6{DP6_WIDTHS} is invalid: {problems}")

    pairs = []
    for n in range(1, DP6_MAX_TOTAL_DEGREE):
        for m in range(1, DP6_MAX_TOTAL_DEGREE - n + 1):
            for p in affine.fractional_points(polygon, n):
                for q in affine.fractional_points(polygon, m):
                    a, i, b, j = p.a, p.i, q.a, q.i
                    payload = (
                        (a, i, n, b, j, m),
                        floer.basis_vector(0, n, a, i),
                        floer.basis_vector(n, n + m, b, j),
                        floer.basis_vector(0, m, b, j),
                        floer.basis_vector(m, m + n, a, i),
                    )
                    pairs.append(Item((a, i, n, b, j, m), 2, payload))

    def product_pair(payload):
        (a, i, n, b, j, m), q1, q2, p1, p2 = payload
        forward = floer.mu2(q2, q1, polygon).coeffs()
        backward = floer.mu2(p2, p1, polygon).coeffs()
        k = floer.critical_cover(polygon, a, b, n, m).total
        row = {(a + b, i + j + s): math.comb(k, s) for s in range(k + 1)}
        failed = (forward != backward) + (forward != row)
        return (_sorted_terms(forward), k), failed

    def point_count(d):
        listed = len(affine.fractional_points(polygon, d))
        return listed, int(listed != affine.count_points(polygon, d))

    points = [Item((d,), 1, d) for d in range(DP6_MAX_POINT_DENOMINATOR + 1)]
    return [
        Phase("pairs", _shuffled(pairs, rng), product_pair, is_query=True),
        Phase("points", _shuffled(points, rng), point_count),
    ]


def _cp2_pairs(floer, max_degree: int):
    for n in range(1, max_degree + 1):
        for m in range(1, max_degree + 1):
            for a, i in sorted(floer.index_range(0, n)):
                for b, j in sorted(floer.index_range(n, n + m)):
                    yield a, i, n, b, j, m


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def cp2_fourway(pkg, seed: int) -> list[Phase]:
    """cp2 pairs checked against the ring, word and tropical oracles, then
    the oracle modules' own sweeps."""
    floer, polyring, homotopy = pkg.floer, pkg.polyring, pkg.homotopy
    tropical, wrapped, numchecks = pkg.tropical, pkg.wrapped, pkg.numchecks
    rng = random.Random(seed)

    pairs = []
    for a, i, n, b, j, m in _cp2_pairs(floer, FOURWAY_MAX_FACTOR_DEGREE):
        heights = range((n + m - abs(a + b)) // 2 + 1)
        payload = (
            (a, i, n, b, j, m),
            floer.basis_vector(0, n, a, i),
            floer.basis_vector(n, n + m, b, j),
            polyring.QBasisIndex(a, i, n),
            polyring.QBasisIndex(b, j, m),
            floer.k_value_cp2(a, b),
            heights,
        )
        pairs.append(Item((a, i, n, b, j, m), 1 + 2 * len(heights), payload))

    def four_ways(payload):
        (a, i, n, b, j, m), q1, q2, left, right, k, heights = payload
        coeffs = floer.mu2(q2, q1).coeffs()
        product = polyring.multiply(polyring.q_monomial(left), polyring.q_monomial(right))
        ring = {(idx.a, idx.i): c for idx, c in polyring.expand_in_qbasis(product).items()}
        failed = int(ring != coeffs)
        words, triangles = [], []
        for h in heights:
            want = coeffs.get((a + b, h), 0)
            words.append(homotopy.homotopy_count(k, i, j, h))
            triangles.append(tropical.tropical_structure_constant(a, i, n, b, j, m, h))
            failed += (words[-1] != want) + (triangles[-1] != want)
        result = (_sorted_terms(coeffs), _sorted_terms(ring), tuple(words), tuple(triangles))
        return result, failed

    def words_vs_brute(k):
        listed = homotopy.enumerate_admissible(k)
        brute = homotopy.brute_force_admissible(k, WORDS_BRUTE_BOUND)
        failed = (len(listed) != 2**k) + (listed != brute)
        return tuple(listed), failed

    def partition(payload):
        k_list, s = payload
        value = tropical.partition_constant(k_list, s)
        return value, int(value != math.comb(sum(k_list), s))

    def wrapped_vs_laurent(payload):
        case, q1, q2, l1, l2 = payload
        got = wrapped.wrapped_product(case, q2, q1)
        want = wrapped.laurent_product_in_qbasis(case, l1, l2)
        return _sorted_terms(got), int(got != want)

    def syz_relation(params):
        coords = numchecks.syz_coordinates(params, tol=SYZ_TOL)
        expected = 0.0 if params.R < 1 else coords.eta
        return None, int(not abs(coords.xi + coords.psi - expected) <= SYZ_RELATION_LIMIT)

    def critical_values(payload):
        lam, expected = payload
        found = [value for _, value in numchecks.critical_points(lam)]
        ok = len(found) == len(expected) and all(
            abs(f - e) / abs(e) <= CRITICAL_VALUE_LIMIT for f, e in zip(found, expected)
        )
        return None, int(not ok)

    words = [Item((k,), 2, k) for k in range(WORDS_MAX_K + 1)]
    partitions = [
        Item((k_list, s), 1, (k_list, s))
        for total in range(PARTITION_MAX_TOTAL + 1)
        for k_list in _compositions(total)
        for s in range(total + 1)
    ]
    wrapped_pairs = []
    for case in wrapped.Complement:
        for d1 in range(WRAPPED_MAX_DEGREE + 1):
            for d2 in range(WRAPPED_MAX_DEGREE + 1 - d1):
                for q1 in wrapped.wrapped_basis(case, d1, a_max=d1 + 1, i_max=1):
                    for q2 in wrapped.wrapped_basis(case, d2, a_max=d2 + 1, i_max=1):
                        key = (case.name, q1.a, q1.i, q1.d, q2.a, q2.i, q2.d)
                        payload = (
                            case,
                            q1,
                            q2,
                            wrapped.rational_function(q1),
                            wrapped.rational_function(q2),
                        )
                        wrapped_pairs.append(Item(key, 1, payload))
    radii, levels = numchecks.relation_grid()
    grid = [
        Item((R, lam), 1, numchecks.FiberParams(R, lam)) for R in radii for lam in levels
    ]
    critical = [
        Item((lam,), 1, (lam, numchecks.expected_critical_values(lam)))
        for lam in CRITICAL_LAMBDAS
    ]
    return [
        Phase("pairs", _shuffled(pairs, rng), four_ways, is_query=True),
        Phase("words", _shuffled(words, rng), words_vs_brute),
        Phase("partition", _shuffled(partitions, rng), partition),
        Phase("wrapped", _shuffled(wrapped_pairs, rng), wrapped_vs_laurent),
        Phase("syz", _shuffled(grid, rng), syz_relation),
        Phase("critical", _shuffled(critical, rng), critical_values),
    ]


def cp2_assoc(pkg, seed: int) -> list[Phase]:
    """Both bracketings of every cp2 basis triple, through ring_product."""
    floer = pkg.floer
    rng = random.Random(seed)
    triples = []
    top = ASSOC_MAX_TOTAL_DEGREE
    for n1 in range(1, top - 1):
        for n2 in range(1, top - n1):
            for n3 in range(1, top - n1 - n2 + 1):
                d2, d3 = n1 + n2, n1 + n2 + n3
                for a1, i1 in sorted(floer.index_range(0, n1)):
                    for a2, i2 in sorted(floer.index_range(n1, d2)):
                        for a3, i3 in sorted(floer.index_range(d2, d3)):
                            key = (a1, i1, n1, a2, i2, n2, a3, i3, n3)
                            payload = (
                                floer.basis_vector(0, n1, a1, i1),
                                floer.basis_vector(n1, d2, a2, i2),
                                floer.basis_vector(d2, d3, a3, i3),
                            )
                            triples.append(Item(key, 1, payload))

    def both_bracketings(payload):
        q1, q2, q3 = payload
        left = floer.ring_product(floer.ring_product(q1, q2), q3).coeffs()
        right = floer.ring_product(q1, floer.ring_product(q2, q3)).coeffs()
        return _sorted_terms(left), int(left != right)

    return [Phase("triples", _shuffled(triples, rng), both_bracketings, is_query=True)]


WORKLOADS = {
    "dp6-products": dp6_products,
    "cp2-fourway": cp2_fourway,
    "cp2-assoc": cp2_assoc,
}
