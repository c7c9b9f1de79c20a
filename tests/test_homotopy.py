"""Word combinatorics: reduction, admissible sequences, and the count oracle."""

import math
from itertools import product

import pytest

from affinefloer import homotopy as ht
from affinefloer.floer import basis_vector, index_range, k_value_cp2, mu2


def test_free_reduce_examples():
    assert ht.free_reduce(ht.word([("a", 1), ("b", 1), ("b", -1), ("a", -1)])).is_identity()
    w = ht.word([("a", 2), ("b", 1), ("a", -1)])
    assert ht.free_reduce(w) == w
    ab = ht.word([("a", 1), ("b", 1)])
    assert ht.free_reduce(ht.FreeWord(ab.runs + ht.inverse(ab).runs)).is_identity()


def test_free_reduce_merges_runs():
    w = ht.word([("a", 1), ("a", 2), ("b", 1), ("b", -1), ("a", -3)])
    assert ht.free_reduce(w).is_identity()


def test_triangle_word_examples():
    assert ht.free_reduce(ht.triangle_word(0, 0, 0, 0, [0])).is_identity()
    # h off by the winding relation: reduces to a^-1, not trivial
    w = ht.free_reduce(ht.triangle_word(0, 0, 1, 1, [1, -1]))
    assert w == ht.word([("a", -1)])
    # h matching the winding relation: trivial
    assert ht.free_reduce(ht.triangle_word(0, 0, 0, 1, [1, -1])).is_identity()
    with pytest.raises(ValueError):
        ht.triangle_word(0, 0, 0, 2, [1, -1])


def test_enumerate_admissible_small():
    assert ht.enumerate_admissible(0) == [(0,)]
    assert ht.enumerate_admissible(2) == [
        (0, 0, 0),
        (0, 1, -1),
        (1, -1, 0),
        (1, 0, -1),
    ]
    assert len(ht.enumerate_admissible(5)) == 32


def test_admissible_counts_are_powers_of_two():
    for k in range(0, 9):
        assert len(ht.enumerate_admissible(k)) == 2**k


def _delta_from_binary(s_seq):
    """delta_r = s_r - s_{r-1} with s_{-1} = s_k = 0 appended."""
    padded = [0] + list(s_seq) + [0]
    return tuple(padded[r + 1] - padded[r] for r in range(len(s_seq) + 1))


def test_binary_bijection():
    for k in range(0, 7):
        admissible = set(ht.enumerate_admissible(k))
        via_binary = {_delta_from_binary(bits) for bits in product((0, 1), repeat=k)}
        assert via_binary == admissible
        for deltas in admissible:
            assert _delta_from_binary(ht.binary_from_delta(deltas)) == deltas


def _brute_force_by_full_product(k, bound):
    """The word oracle as a plain loop: build and reduce the word of every
    candidate in [-bound, bound]^(k+1)."""
    hits = []
    for deltas in product(range(-bound, bound + 1), repeat=k + 1):
        if sum(deltas) != 0:
            continue
        h = ht.output_height(0, 0, k, deltas)
        if ht.free_reduce(ht.triangle_word(0, 0, h, k, deltas)).is_identity():
            hits.append(deltas)
    return sorted(hits)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_pruned_search_matches_full_product_loop(bound):
    for k in range(0, 7):
        assert ht.brute_force_admissible(k, bound) == _brute_force_by_full_product(k, bound)


def test_brute_force_matches_enumeration():
    # bound 2 for k <= 8 is swept by verify.homotopy (acceptance criterion 4)
    assert ht.brute_force_admissible(0, 3) == [(0,)]
    assert len(ht.brute_force_admissible(4, 1)) == 16
    with pytest.raises(ValueError):
        ht.brute_force_admissible(2, 0)
    with pytest.raises(ValueError):
        ht.brute_force_admissible(-1, 2)


def test_admissible_words_are_trivial_and_others_not():
    for k in range(0, 6):
        admissible = set(ht.enumerate_admissible(k))
        for deltas in product((-2, -1, 0, 1, 2), repeat=k + 1):
            h = ht.output_height(0, 0, k, deltas)
            trivial = ht.free_reduce(ht.triangle_word(0, 0, h, k, deltas)).is_identity()
            assert trivial == (deltas in admissible)


def test_homotopy_count_examples():
    assert ht.homotopy_count(2, 0, 0, 1) == 2
    for k in range(0, 9):
        assert ht.homotopy_count(k, 1, 2, 3) == 1  # h = i + j term
    assert ht.homotopy_count(3, 0, 0, 5) == 0


def test_homotopy_count_binomials_and_total():
    for k in range(0, 9):
        for i, j in ((0, 0), (1, 0), (2, 3)):
            for h in range(i + j - 2, i + j + k + 3):
                s = h - (i + j)
                expected = math.comb(k, s) if 0 <= s <= k else 0
                assert ht.homotopy_count(k, i, j, h) == expected
        assert sum(ht.homotopy_count(k, 0, 0, h) for h in range(0, k + 1)) == 2**k


def test_counts_match_triangle_product_coefficients():
    for n in range(1, 5):
        for m in range(1, 5):
            for (a, i) in index_range(0, n):
                for (b, j) in index_range(n, n + m):
                    k = k_value_cp2(a, b)
                    coeffs = mu2(
                        basis_vector(n, n + m, b, j), basis_vector(0, n, a, i)
                    ).coeffs()
                    for h in range((n + m - abs(a + b)) // 2 + 1):
                        assert coeffs.get((a + b, h), 0) == ht.homotopy_count(k, i, j, h)
