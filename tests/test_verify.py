"""The shared cross-check sweeps: bounds, work counts and reported mismatches."""

import sys
from dataclasses import replace

import pytest

from affinefloer import affine, cli, floer, homotopy, verify, wrapped


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
    _assert_named(sweep(bound), label)


def _assert_named(result, label):
    assert not result.ok
    assert 0 < len(result.mismatches) <= result.checked
    assert all(line.count("\n") == 0 for line in result.mismatches)
    assert label in result.mismatches[0]


@pytest.fixture
def cold_cp2_memos():
    """Empty cp2's product and cover memos for one test, so that a planted
    count is called, and restore them after, so that none of its results
    outlive the test."""
    memos = (affine.CP2._products, affine.CP2._covers)
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    yield
    for memo, entries in zip(memos, saved):
        memo.clear()
        memo.update(entries)


def _covering_shifted(fn, delta):
    """fn with every covering count it returns moved by delta.  A count one
    too low drops a product's top term; one too high adds a term that breaks
    closure in mu2 (or the depth rule of a complement in the wrapped
    product), which raises.  A sweep names either as a mismatch.  A shifted
    cover keeps the record's column counts and derives its total again."""

    def planted(*args):
        out = fn(*args)
        if isinstance(out, floer.CriticalCover):
            return replace(out, k_list=tuple(k + delta for k in out.k_list))
        return out + delta

    return planted


def _plant_covering_count(monkeypatch, name, delta):
    """Plant the shifted count in every module that binds the function, as a
    defect in it would act."""
    original = getattr(floer, name)
    planted = _covering_shifted(original, delta)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("affinefloer.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, planted)


@pytest.mark.parametrize(
    "name, sweep, bound, label",
    [
        # the one per-wall rule feeds mu2 and the wrapped product alike
        ("wall_count", verify.ring, 1, "ring {"),
        ("wall_count", verify.tropical, 1, "tropical "),
        ("wall_count", verify.wrapped, 0, "vs Laurent"),
        # the tropical oracle counts its own k, so a wrong cover moves only mu2
        ("critical_cover", verify.tropical, 1, "tropical "),
    ],
)
def test_planted_covering_count_is_named(monkeypatch, cold_cp2_memos, name, sweep, bound, label):
    _plant_covering_count(monkeypatch, name, -1)
    _assert_named(sweep(bound), label)


@pytest.mark.parametrize(
    "name, sweep, bound, label",
    [
        # mu2 raises on closure: a mismatch of the pair, not an abort
        ("wall_count", verify.ring, 1, "vs product raised ("),
        ("wall_count", verify.tropical, 1, "vs product raised ("),
        ("wall_count", verify.wrapped, 0, "vs Laurent"),
        ("critical_cover", verify.tropical, 1, "vs product raised ("),
    ],
)
def test_one_over_covering_count_is_named(monkeypatch, cold_cp2_memos, name, sweep, bound, label):
    _plant_covering_count(monkeypatch, name, 1)
    _assert_named(sweep(bound), label)


def test_one_over_wrapped_count_raises_and_is_named(monkeypatch):
    # case C keeps i <= (d - |a|)/2, so one extra term leaves it and raises
    _plant_covering_count(monkeypatch, "wall_count", 1)
    sweep = verify.wrapped(1)
    assert any("case C" in line and "product raised (" in line for line in sweep.mismatches)


def test_one_over_covering_count_fails_the_check_with_exit_one(
    monkeypatch, cold_cp2_memos, capsys
):
    _plant_covering_count(monkeypatch, "wall_count", 1)
    assert cli.main(["verify", "ring", "--max-degree", "1"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert captured.err.startswith("failed check ring_isomorphism: 9 checked, 9 mismatches")


@pytest.mark.parametrize(
    "sweep, bound", [(verify.homotopy, -1), (verify.tropical, 0), (verify.wrapped, -1)]
)
def test_sweeps_that_would_check_nothing_are_rejected(sweep, bound):
    with pytest.raises(ValueError, match="must be at least"):
        sweep(bound)
