"""Free-group bookkeeping for the triangle-count derivation by boundary words.

Boundary loops of candidate triangles live in the free group on two
generators: `a` winds once around the cylinder fiber, `b` traverses the
middle section path upward.  A candidate is encoded by integers
(delta_0, ..., delta_k), and its boundary word is

    a^(i+j-h+k) * prod_{r=0..k} (a^r b)^(delta_r).

The triangle exists exactly when the word reduces to the identity.  Delta
sequences that kill all the b's are *admissible*: entries in {-1, 0, 1},
nonzero entries alternating in sign, first nonzero +1, last nonzero -1.
`enumerate_admissible` lists them by a depth-first walk of that rule, one
entry at a time, which meets no sequence it then rejects; the walk does not
use the binary strings below, and `brute_force_admissible`'s word search
stays the independent check of it.  The admissible sequences biject with
binary strings (s_0, ..., s_{k-1}) via
delta_r = s_r - s_{r-1} (with s_{-1} = s_k = 0), so there are 2^k of them,
and the output height satisfies h - (i+j) = k - sum(s_r).  Counting the
admissible sequences hitting a given h therefore reproduces the binomial
C(k, h-(i+j)) independently of both the section-count argument and the
ring oracle.

Words are tuples of run-length encoded (generator, exponent) runs, so that
a word reduces in time linear in its runs.  `brute_force_admissible` meets
in the middle: it tabulates every suffix of deltas by its reduced inverse
word with the leading a-run stripped, then walks the prefixes and joins each
with the suffixes stored under its own stripped reduced word.  Every
candidate is still decided by free reduction alone.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

Run = tuple[str, int]  # (generator "a" or "b", nonzero exponent)
DeltaSequence = tuple[int, ...]


def _reduce_onto(stack: Sequence[Run], runs: Iterable[Run]) -> tuple[Run, ...]:
    """Append runs to an already reduced word, cancelling as they meet."""
    out = list(stack)
    for gen, exp in runs:
        if out and out[-1][0] == gen:
            total = out[-1][1] + exp
            if total:
                out[-1] = (gen, total)
            else:
                out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def _inverse(runs: Sequence[Run]) -> list[Run]:
    """The runs of the inverse word."""
    return [(gen, -exp) for gen, exp in reversed(runs)]


def _strip_a(word: tuple[Run, ...]) -> tuple[Run, ...]:
    """A reduced word without its leading a-run."""
    return word[1:] if word and word[0][0] == "a" else word


def _power_runs(r: int, delta: int) -> list[Run]:
    """Runs of (a^r b)^delta, with a^0 dropped."""
    if delta >= 0:
        unit = [("a", r), ("b", 1)] if r else [("b", 1)]
    else:
        unit = [("b", -1), ("a", -r)] if r else [("b", -1)]
    return unit * abs(delta)


def _steps(owed: bool, left: int) -> tuple[tuple[int, bool], ...]:
    """The (entry, owed after it) pairs the walk may place next, in
    increasing entry order.  `owed` holds while the last nonzero entry is +1,
    so the next nonzero one must be -1; `left` counts the open positions,
    this one included.  A +1 is placed only where a later position can pay
    it back, so every walk ends in an admissible sequence."""
    if owed:
        return ((-1, False), (0, True)) if left > 1 else ((-1, False),)
    return ((0, False), (1, True)) if left > 1 else ((0, False),)


def enumerate_admissible(k: int) -> list[DeltaSequence]:
    """All admissible sequences of length k+1, in lexicographic order.

    A depth-first walk of the structural rule: entries in {-1, 0, 1},
    nonzero entries alternating, the first +1 and the last -1.  Each
    position is filled in increasing order with the entries `_steps`
    allows, so the walk visits only admissible prefixes and emits each of
    the 2^k sequences once, already sorted.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    found: list[DeltaSequence] = []

    def walk(prefix: DeltaSequence, owed: bool) -> None:
        left = k + 1 - len(prefix)
        if not left:
            found.append(prefix)
            return
        for delta, owes in _steps(owed, left):
            walk(prefix + (delta,), owes)

    walk((), False)
    return found


def binary_from_delta(deltas: Sequence[int]) -> tuple[int, ...]:
    """Partial sums of an admissible sequence; lands in {0,1}^k."""
    s, out = 0, []
    for d in deltas[:-1]:
        s += d
        out.append(s)
    return tuple(out)


@functools.cache
def _height_counts(k: int) -> tuple[int, ...]:
    """Entry t counts the admissible sequences of length k+1 with
    k - sum(s_r) = t; the sequences are enumerated once per k."""
    counts = [0] * (k + 1)
    for deltas in enumerate_admissible(k):
        counts[k - sum(binary_from_delta(deltas))] += 1
    return tuple(counts)


def homotopy_count(k: int, i: int, j: int, h: int) -> int:
    """Number of admissible candidates landing on output height h.

    Equals C(k, h-(i+j)) for 0 <= h-(i+j) <= k and 0 otherwise; computed by
    counting the admissible sequences with h-(i+j) = k - sum(s_r).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    target = h - (i + j)
    return _height_counts(k)[target] if 0 <= target <= k else 0


def brute_force_admissible(k: int, bound: int) -> list[DeltaSequence]:
    """Oracle: every delta in [-bound, bound]^(k+1) whose boundary word is
    trivial, in lexicographic order.

    With h the candidate's forced output height, the word is a^(-E) * P for
    P = prod (a^r b)^(delta_r) and E = sum r*delta_r, the a-exponent sum of
    P.  It reduces to the identity exactly when P reduces to a pure a-power
    (that power is then a^E).  The search meets in the middle: P = X * Y
    with X the factors of positions 0 .. split-1 and Y those of split .. k,
    where split = (k + 2) // 2.  Writing strip(W) for a reduced word W
    without its leading a-run, for reduced X and Y

        XY = a^t for some t  <=>  X = a^t * Y^-1  <=>  strip(X) = strip(Y^-1).

    So every suffix (delta_split .. delta_k) is stored under strip of its
    reduced inverse, which is built from position k down, one inverted
    factor at a time, and each key's suffixes are sorted.  The prefixes are
    walked depth first in lexicographic order, reduced one factor at a
    time, and each full prefix is joined with the suffixes stored under
    strip of its reduced word, so the output is lexicographic with no final
    sort.  Free reduction decides every candidate; neither the structural
    rule nor its walk is read.  The table holds
    (2 * bound + 1)^(k + 1 - split) suffixes.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    split = (k + 2) // 2
    deltas = range(-bound, bound + 1)
    factors = [[(delta, _power_runs(r, delta)) for delta in deltas] for r in range(k + 1)]
    inverses = [[(delta, _inverse(runs)) for delta, runs in row] for row in factors]
    tails: dict[tuple[Run, ...], list[DeltaSequence]] = {}

    def tabulate(suffix: DeltaSequence, word: tuple[Run, ...]) -> None:
        r = k - len(suffix)
        if r < split:
            tails.setdefault(_strip_a(word), []).append(suffix)
            return
        for delta, runs in inverses[r]:
            tabulate((delta,) + suffix, _reduce_onto(word, runs) if delta else word)

    tabulate((), ())
    for stored in tails.values():
        stored.sort()
    found: list[DeltaSequence] = []

    def walk(prefix: DeltaSequence, word: tuple[Run, ...]) -> None:
        last = len(prefix) + 1 == split
        for delta, runs in factors[len(prefix)]:
            reduced = _reduce_onto(word, runs) if delta else word
            if last:
                found.extend(prefix + (delta,) + tail for tail in tails.get(_strip_a(reduced), ()))
            else:
                walk(prefix + (delta,), reduced)

    walk((), ())
    return found
