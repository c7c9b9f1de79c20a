"""Word combinatorics: reduction, admissible sequences, and the count oracle."""

import math
from itertools import product

import pytest

from affinefloer import homotopy as ht

# The literal word definition, the reference for the library's word search.
# A word is a tuple of (generator, nonzero exponent) runs; () is the identity.


def word(runs):
    """Build a word, dropping zero exponents but not merging or reducing."""
    return tuple((g, e) for g, e in runs if e != 0)


def inverse(w):
    return tuple((g, -e) for g, e in reversed(w))


def free_reduce(w):
    """Fully reduced form; the empty word is the identity."""
    return ht._reduce_onto((), w)


def triangle_word(i, j, h, k, deltas):
    """The (unreduced) boundary word a^(i+j-h+k) * prod_r (a^r b)^(delta_r)."""
    if len(deltas) != k + 1:
        raise ValueError(f"need {k + 1} deltas, got {len(deltas)}")
    runs = [("a", i + j - h + k)]
    for r, delta in enumerate(deltas):
        runs.extend(ht._power_runs(r, delta))
    return word(runs)


def output_height(i, j, k, deltas):
    """The unique h the candidate can contribute to: i+j-h+k + sum(r*delta_r) = 0."""
    return i + j + k + sum(r * d for r, d in enumerate(deltas))


def test_free_reduce_examples():
    assert free_reduce(word([("a", 1), ("b", 1), ("b", -1), ("a", -1)])) == ()
    w = word([("a", 2), ("b", 1), ("a", -1)])
    assert free_reduce(w) == w
    ab = word([("a", 1), ("b", 1)])
    assert free_reduce(ab + inverse(ab)) == ()


def test_free_reduce_merges_runs():
    w = word([("a", 1), ("a", 2), ("b", 1), ("b", -1), ("a", -3)])
    assert free_reduce(w) == ()


def test_triangle_word_examples():
    assert free_reduce(triangle_word(0, 0, 0, 0, [0])) == ()
    # h off by the winding relation: reduces to a^-1, not trivial
    w = free_reduce(triangle_word(0, 0, 1, 1, [1, -1]))
    assert w == word([("a", -1)])
    # h matching the winding relation: trivial
    assert free_reduce(triangle_word(0, 0, 0, 1, [1, -1])) == ()
    with pytest.raises(ValueError):
        triangle_word(0, 0, 0, 2, [1, -1])


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


def is_admissible(deltas):
    """The structural rule read off a whole sequence: entries in {-1, 0, 1},
    nonzero entries alternating, the first +1 and the last -1."""
    nonzero = [d for d in deltas if d != 0]
    if any(abs(d) > 1 for d in deltas):
        return False
    if not nonzero:
        return True
    if nonzero[0] != 1 or nonzero[-1] != -1:
        return False
    return all(u != v for u, v in zip(nonzero, nonzero[1:]))


def _filtered_product(k):
    """The admissible sequences of length k+1 by filtering all 3^(k+1)."""
    return sorted(d for d in product((-1, 0, 1), repeat=k + 1) if is_admissible(d))


def test_walk_equals_the_filtered_product():
    for k in range(0, 10):
        assert ht.enumerate_admissible(k) == _filtered_product(k)


def test_a_walk_allowing_a_leading_minus_one_is_caught(monkeypatch):
    steps = ht._steps
    for k in range(0, 4):

        def leading_minus_one(owed, left, k=k):
            allowed = steps(owed, left)
            return ((-1, False),) + allowed if left == k + 1 else allowed

        with monkeypatch.context() as patch:
            patch.setattr(ht, "_steps", leading_minus_one)
            walked = ht.enumerate_admissible(k)
        assert walked[0][0] == -1
        assert walked != _filtered_product(k)
    assert ht.enumerate_admissible(3) == _filtered_product(3)


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
        h = output_height(0, 0, k, deltas)
        if free_reduce(triangle_word(0, 0, h, k, deltas)) == ():
            hits.append(deltas)
    return sorted(hits)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_pruned_search_matches_full_product_loop(bound):
    for k in range(0, 7):
        assert ht.brute_force_admissible(k, bound) == _brute_force_by_full_product(k, bound)


def test_a_join_key_keeping_the_leading_a_run_is_caught(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(ht, "_strip_a", lambda word: word)
        for k in range(1, 5):
            assert ht.brute_force_admissible(k, 2) != _brute_force_by_full_product(k, 2)
    assert ht.brute_force_admissible(4, 2) == _brute_force_by_full_product(4, 2)


def test_a_suffix_key_not_inverted_is_caught(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(ht, "_inverse", list)
        for k in range(1, 5):
            assert ht.brute_force_admissible(k, 2) != _brute_force_by_full_product(k, 2)
    assert ht.brute_force_admissible(4, 2) == _brute_force_by_full_product(4, 2)


def test_brute_force_matches_enumeration():
    # bound 2 for k <= 8 is swept by verify.homotopy (acceptance criterion 4)
    for k in range(9, 12):
        assert ht.brute_force_admissible(k, 2) == ht.enumerate_admissible(k)
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
            h = output_height(0, 0, k, deltas)
            trivial = free_reduce(triangle_word(0, 0, h, k, deltas)) == ()
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
