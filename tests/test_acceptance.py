"""Acceptance suite: the eight exit criteria, one test each.

Every test prints a single [PASS]/[FAIL] line (visible with pytest -s or in
captured output on failure) and asserts the criterion at its stated
tolerance and runtime budget.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

from affinefloer import affine, homotopy, numchecks, tropical, verify, wrapped
from affinefloer.floer import basis_vector, index_range, k_value_cp2, mu2, ring_product
from affinefloer.wrapped import Complement
from support import e_element, wrap_step


def _report(name: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{state}] {name}{suffix}")
    return ok


def test_criterion_1_hilbert_polynomial():
    start = time.perf_counter()
    m = affine.cp2_model()
    ok = all(
        len(affine.fractional_points(m, d)) == (d + 2) * (d + 1) // 2
        for d in range(0, 51)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _report(
        "criterion 1: point counts equal (d+2)(d+1)/2 for d <= 50",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_ring_isomorphism():
    start = time.perf_counter()
    sweep = verify.ring(6)
    elapsed = time.perf_counter() - start
    ok = sweep.ok and elapsed < 30.0
    assert _report(
        "criterion 2: products match the polynomial ring for n,m <= 6",
        ok,
        f"{sweep.checked} pairs, {len(sweep.mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_associativity():
    failures = 0
    triples = 0
    for n1 in range(1, 8):
        for n2 in range(1, 9 - n1):
            for n3 in range(1, 10 - n1 - n2):
                for key1 in index_range(0, n1):
                    q1 = basis_vector(0, n1, *key1)
                    for key2 in index_range(n1, n1 + n2):
                        q2 = basis_vector(n1, n1 + n2, *key2)
                        left = ring_product(q1, q2)
                        for key3 in index_range(n1 + n2, n1 + n2 + n3):
                            q3 = basis_vector(n1 + n2, n1 + n2 + n3, *key3)
                            triples += 1
                            if ring_product(left, q3) != ring_product(
                                q1, ring_product(q2, q3)
                            ):
                                failures += 1
    assert _report(
        "criterion 3: associativity for basis triples of total degree <= 9",
        failures == 0,
        f"{triples} triples",
    )


def test_criterion_4_homotopy_oracle():
    sweep = verify.homotopy(8)
    ok = sweep.ok
    for n in range(1, 5):
        for m in range(1, 5):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    k = k_value_cp2(a, b)
                    coeffs = mu2(
                        basis_vector(n, n + m, b, j), basis_vector(0, n, a, i)
                    ).coeffs()
                    for h in range((n + m - abs(a + b)) // 2 + 1):
                        ok = ok and coeffs.get((a + b, h), 0) == homotopy.homotopy_count(
                            k, i, j, h
                        )
    assert _report(
        "criterion 4: word enumeration = brute force = binomials = product coefficients",
        ok,
        f"{sweep.checked} word checks, {len(sweep.mismatches)} mismatches",
    )


def test_criterion_5_tropical_equivalence(monkeypatch):
    sweep = verify.tropical(4)
    ok = sweep.ok
    for n in range(1, 5):
        for m in range(1, 5):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    for h in range((n + m - abs(a + b)) // 2 + 1):
                        triangle = tropical.build_triangle(a, i, n, b, j, m, h)
                        if triangle is not None:
                            ok = ok and tropical.check_balancing(triangle)
    # Position invariance: the singularity moved one unit below the bend and
    # one unit above it gives the same multiplicity.
    for k in range(1, 11):
        for s in range(0, k + 1):
            args = (-k, 0, k, k, 0, k, s)
            bend = tropical.build_triangle(*args).bend
            counts = set()
            for side in (-1, 1):
                moved = affine.Singularity(0, bend.xi + side)
                with monkeypatch.context() as patch:
                    patch.setattr(tropical, "CP2", replace(affine.CP2, singularities=(moved,)))
                    counts.add(tropical.build_triangle(*args).multiplicity)
            ok = ok and len(counts) == 1
    fig = tropical.build_triangle(-2, 0, 2, 2, 0, 2, 1)
    ok = ok and fig is not None and fig.multiplicity == 2
    ok = ok and fig.bend == affine.RationalPoint(0, Fraction(-1, 4))
    assert _report(
        "criterion 5: tropical multiplicities = product coefficients, balanced, position-free",
        ok,
        f"{sweep.checked} structure constants",
    )


def test_criterion_6_partition_identity_and_dp6_counts():
    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    ok = True
    for total in range(0, 13):
        for k_list in compositions(total):
            for s in range(total + 1):
                ok = ok and tropical.partition_constant(k_list, s) == math.comb(total, s)
    d6 = affine.dp6_model()
    for d in range(0, 11):
        ok = ok and len(affine.fractional_points(d6, d)) == affine.count_points(d6, d)
    assert _report(
        "criterion 6: composition sums equal binomials (sum k <= 12); dp6 counts match scan",
        ok,
    )


def _continuation(case, r, q):
    """The image of q under the continuation map of level r, the product
    with e_r, or None unless that product is one term with coefficient 1."""
    product = wrapped.wrapped_product(case, e_element(case, r), q)
    if list(product.values()) != [1]:
        return None
    ((a, i),) = product
    return affine.FractionalPoint(a, i, q.d + r)


def test_criterion_7_wrapped_products_and_continuation():
    sweep = verify.wrapped(4)
    ok = sweep.ok
    centers = {
        Complement.L: (Fraction(0), Fraction(0)),
        Complement.C: (Fraction(0), Fraction(-1, 2)),
        Complement.D: (Fraction(0), Fraction(-1, 3)),
    }
    for case in Complement:
        step = wrap_step(case)
        cx, cy = centers[case]
        for r in range(step, 7, step):
            factor = Fraction(2, 2 + r)
            for q in wrapped.wrapped_basis(case, 2, a_max=3, i_max=2):
                image = _continuation(case, r, q)
                src = (Fraction(q.a, 2), Fraction(-q.i, 2))
                dst = image and (Fraction(image.a, image.d), Fraction(-image.i, image.d))
                ok = ok and dst == (cx + (src[0] - cx) * factor, cy + (src[1] - cy) * factor)
        for r1 in range(step, 7, step):
            for r2 in range(step, 7 - r1 + step, step):
                for q in wrapped.wrapped_basis(case, 1, a_max=2, i_max=1):
                    first, direct = _continuation(case, r1, q), _continuation(case, r1 + r2, q)
                    ok = ok and None not in (first, direct)
                    ok = ok and _continuation(case, r2, first) == direct
    assert _report(
        "criterion 7: wrapped products = localized ring; continuation = e_r = dilation",
        ok,
        f"{sweep.checked} products",
    )


def test_criterion_8_numeric_checks():
    start = time.perf_counter()
    grid_R, grid_lam = numchecks.relation_grid()
    assert len(grid_R) * len(grid_lam) == 100
    report = numchecks.numeric_report(tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = report["pass"] and elapsed < 60.0
    assert _report(
        "criterion 8: coordinate relations, log integral, critical values, Hessian",
        ok,
        f"{elapsed:.1f}s",
    )
