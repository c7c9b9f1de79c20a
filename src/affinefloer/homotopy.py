"""Free-group bookkeeping for the triangle-count derivation by boundary words.

Boundary loops of candidate triangles live in the free group on two
generators: `a` winds once around the cylinder fiber, `b` traverses the
middle section path upward.  A candidate is encoded by integers
(delta_0, ..., delta_k), and its boundary word is

    a^(i+j-h+k) * prod_{r=0..k} (a^r b)^(delta_r).

The triangle exists exactly when the word reduces to the identity.  Delta
sequences that kill all the b's are *admissible*: entries in {-1, 0, 1},
nonzero entries alternating in sign, first nonzero +1, last nonzero -1.
They biject with binary strings (s_0, ..., s_{k-1}) via
delta_r = s_r - s_{r-1} (with s_{-1} = s_k = 0), so there are 2^k of them,
and the output height satisfies h - (i+j) = k - sum(s_r).  Counting the
admissible sequences hitting a given h therefore reproduces the binomial
C(k, h-(i+j)) independently of both the section-count argument and the
ring oracle.

Words are lists of run-length encoded (generator, exponent) runs, so that
`brute_force_admissible` reduces each one in time linear in its runs.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import Iterable, Sequence

Run = tuple[str, int]  # (generator "a" or "b", nonzero exponent)
DeltaSequence = tuple[int, ...]


def _reduce_onto(stack: Sequence[Run], runs: Iterable[Run]) -> tuple[list[Run], int]:
    """Append runs to an already reduced word, cancelling as they meet.

    Returns the reduced word and the number of b-letters that cancelled."""
    out = list(stack)
    lost = 0
    for gen, exp in runs:
        if out and out[-1][0] == gen:
            before = out[-1][1]
            total = before + exp
            if gen == "b":
                lost += abs(before) + abs(exp) - abs(total)
            if total:
                out[-1] = (gen, total)
            else:
                out.pop()
        else:
            out.append((gen, exp))
    return out, lost


def _power_runs(r: int, delta: int) -> list[Run]:
    """Runs of (a^r b)^delta, with a^0 dropped."""
    if delta >= 0:
        unit = [("a", r), ("b", 1)] if r else [("b", 1)]
    else:
        unit = [("b", -1), ("a", -r)] if r else [("b", -1)]
    return unit * abs(delta)


def is_admissible(deltas: Sequence[int]) -> bool:
    """Structural cancellation conditions on a delta sequence."""
    nonzero = [d for d in deltas if d != 0]
    if any(abs(d) > 1 for d in deltas):
        return False
    if not nonzero:
        return True
    if nonzero[0] != 1 or nonzero[-1] != -1:
        return False
    return all(u != v for u, v in zip(nonzero, nonzero[1:]))


def enumerate_admissible(k: int) -> list[DeltaSequence]:
    """All admissible sequences of length k+1, in lexicographic order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sorted(
        deltas for deltas in product((-1, 0, 1), repeat=k + 1) if is_admissible(deltas)
    )


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
    (that power is then a^E).  The search is depth-first over delta_0 ..
    delta_k, in increasing delta at each position, and carries the
    free-reduced prefix of P with its number of b-letters.  A prefix is
    pruned once it holds more b-letters than the remaining positions can
    supply, at most `bound` each.  The prune is exact: in the reduced
    product of prefix and suffix every b of the prefix must cancel against
    a b of the suffix, and reduction only removes letters.  So the search
    still decides every candidate in [-bound, bound]^(k+1); a full sequence
    is kept when its reduced P has no b-letter left.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    steps = [
        [(delta, _power_runs(r, delta)) for delta in range(-bound, bound + 1)]
        for r in range(k + 1)
    ]
    hits: list[DeltaSequence] = []

    def extend(r: int, prefix: list[Run], b_letters: int, deltas: DeltaSequence) -> None:
        room = bound * (k - r)  # b-letters the positions after r can supply
        for delta, runs in steps[r]:
            reduced, lost = _reduce_onto(prefix, runs)
            left = b_letters + abs(delta) - lost
            if left > room:
                continue
            if r == k:
                hits.append(deltas + (delta,))
            else:
                extend(r + 1, reduced, left, deltas + (delta,))

    extend(0, [], 0, ())
    return hits
