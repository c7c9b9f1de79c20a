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
`brute_force_admissible` reduces each one in time linear in its runs.  Its
search memoizes the completions of each state (position r, reduced prefix),
which free reduction's confluence makes exact, so a state that many delta
prefixes reach is expanded once; a step is skipped before it is reduced
when the b-letters it can cancel cannot bring the prefix within reach of
the positions left.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

Run = tuple[str, int]  # (generator "a" or "b", nonzero exponent)
DeltaSequence = tuple[int, ...]


def _reduce_onto(stack: Sequence[Run], runs: Iterable[Run]) -> tuple[tuple[Run, ...], int]:
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
    return tuple(out), lost


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
    (that power is then a^E).  The search runs over states (r, w): w is the
    free-reduced product of the factors before position r.  The completions
    of a state are the suffixes (delta_r .. delta_k) after which the reduced
    P has no b-letter left, listed by trying delta_r in increasing order and
    prepending it to each completion of the state it leads to; so every list
    is in lexicographic order, and each state is expanded once and memoized.
    The memo is exact because free reduction is confluent: every way of
    cancelling a word ends in the same reduced word, so a prefix followed by
    a suffix reduces to what its reduced word followed by that suffix
    reduces to.  Two prefixes with one reduced word therefore have the same
    completions, whatever their deltas.

    A state is pruned when w holds more b-letters than the positions after
    r can supply, at most `bound` each.  The prune is exact: in the reduced
    product of prefix and suffix every b of the prefix must cancel against
    a b of the suffix, and reduction only removes letters.  The step to
    delta is skipped before it is reduced when w's b-letters less |delta|
    already exceed what the positions after r supply, since each b that
    (a^r b)^delta appends cancels at most one b of w; a delta of 0 appends
    nothing and keeps w as it is.  So the search still decides every
    candidate in [-bound, bound]^(k+1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    steps = [
        [(delta, abs(delta), _power_runs(r, delta)) for delta in range(-bound, bound + 1)]
        for r in range(k + 1)
    ]
    memo: dict[tuple[int, tuple[Run, ...]], list[DeltaSequence]] = {}

    def completions(r: int, prefix: tuple[Run, ...], b_letters: int) -> list[DeltaSequence]:
        found = memo.get((r, prefix))
        if found is not None:
            return found
        found = []
        room = bound * (k - r)  # b-letters the positions after r can supply
        for delta, size, runs in steps[r]:
            if not size:
                reduced, left = prefix, b_letters
            elif b_letters - size > room:
                continue
            else:
                reduced, lost = _reduce_onto(prefix, runs)
                left = b_letters + size - lost
            if left > room:
                continue
            if r == k:
                found.append((delta,))
            else:
                found.extend([(delta,) + tail for tail in completions(r + 1, reduced, left)])
        memo[(r, prefix)] = found
        return found

    return completions(0, (), 0)
