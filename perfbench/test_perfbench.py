"""The benchmark's own correctness gate.

    python3 -m pytest perfbench/test_perfbench.py -q

One sweep per workload must reproduce the pinned digest with no failed
check, and a single wrong coefficient planted in `mu2` must be caught.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_source()
PKG = run.import_package()
PINNED = json.loads(run.DIGESTS.read_text())


def plant_wrong_coefficient(floer, monkeypatch) -> None:
    """Make the first multi-term product of the sweep one too large in its
    last coefficient; every other product stays correct."""
    original = floer.mu2
    planted = []

    def mu2(q2, q1, *args, **kwargs):
        out = original(q2, q1, *args, **kwargs)
        coeffs = out.coeffs()
        if not planted and len(coeffs) > 1:
            planted.append(max(coeffs))
            coeffs[max(coeffs)] += 1
            return floer.FormalSum.from_dict(out.d1, out.d2, coeffs)
        return out

    monkeypatch.setattr(floer, "mu2", mu2)


@pytest.mark.parametrize("name", sorted(run.workloads.WORKLOADS))
@pytest.mark.parametrize("planted", [False, True])
def test_sweep_gate(name, planted, monkeypatch):
    phases = run.workloads.WORKLOADS[name](PKG, seed=3)
    if planted:
        plant_wrong_coefficient(PKG.floer, monkeypatch)
    rep = run.sweep(phases)
    assert rep["attempted"] > 0
    if planted:
        assert rep["failed"] > 0
        assert rep["digest"] != PINNED[name]
    else:
        assert rep["failed"] == 0, rep["errors"][:3]
        assert rep["digest"] == PINNED[name]


def test_digest_ignores_seed():
    digests = set()
    for seed in (1, 2):
        digests.add(run.sweep(run.workloads.WORKLOADS["cp2-fourway"](PKG, seed))["digest"])
    assert digests == {PINNED["cp2-fourway"]}
