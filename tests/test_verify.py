"""The shared cross-check sweeps: bounds, work counts and reported mismatches."""

import pytest

from affinefloer import floer, homotopy, verify, wrapped


def test_ring_small():
    sweep = verify.ring(2)
    assert sweep.ok
    assert sweep.checked == (3 + 6) ** 2


def test_ring_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify.ring(0)


def test_sweeps_pass_and_count_their_work():
    # k = 0, 1, 2: two sequence checks plus 2 * (k + 3) height checks each
    assert verify.homotopy(2) == verify.Sweep(2 * 3 + 2 * (3 + 4 + 5), ())
    # (n, m) = (1, 1): 1, 2, 3, 2, 1 pairs land in columns -2..2 at degree 2,
    # which hold 1, 1, 2, 1, 1 heights
    sweep = verify.tropical(1)
    assert sweep.ok and sweep.checked == 1 * 1 + 2 * 1 + 3 * 2 + 2 * 1 + 1 * 1
    assert verify.wrapped(1).ok


def _off_by_one(fn):
    def planted(*args):
        out = fn(*args)
        if isinstance(out, int):
            return out + 1
        if isinstance(out, dict):
            return {key: c + 1 for key, c in out.items()}
        return floer.FormalSum.from_dict(out.d1, out.d2, {k: c + 1 for k, c in out.terms})

    return planted


@pytest.mark.parametrize(
    "module, name, sweep, bound, label",
    [
        (floer, "mu2", verify.ring, 1, "ring {"),
        (floer, "mu2", verify.tropical, 1, "tropical "),
        (homotopy, "homotopy_count", verify.homotopy, 1, "homotopy_count(k="),
        (wrapped, "wrapped_product", verify.wrapped, 0, "vs Laurent"),
    ],
)
def test_planted_fault_is_named(monkeypatch, module, name, sweep, bound, label):
    monkeypatch.setattr(module, name, _off_by_one(getattr(module, name)))
    result = sweep(bound)
    assert not result.ok
    assert 0 < len(result.mismatches) <= result.checked
    assert all(line.count("\n") == 0 for line in result.mismatches)
    assert label in result.mismatches[0]


@pytest.mark.parametrize(
    "sweep, bound", [(verify.homotopy, -1), (verify.tropical, 0), (verify.wrapped, -1)]
)
def test_sweeps_that_would_check_nothing_are_rejected(sweep, bound):
    with pytest.raises(ValueError, match="must be at least"):
        sweep(bound)
