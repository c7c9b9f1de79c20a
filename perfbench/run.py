"""Closed-loop benchmark of affinefloer's cross-checked structure constants.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  One thread issues one query at a time.  Each repetition
is a fresh Python process, as one CLI invocation is: it imports the package
(so every per-process cache starts cold), generates the workload's inputs
and reports that it is ready, then runs one checked sweep over them.  The
parent times set-up from starting the child to that report.  Repetitions
run one after another until S seconds have passed; each metric is the
median over them.  Times are reported at a fixed reference speed of the
machine, measured by a small loop run through each sweep (`speed_factor`).

With --trace 0 the last line is the end-to-end metrics; with --trace 1,
untraced and traced repetitions alternate and the last line is the
per-layer metrics of the traced ones.  `--workload all` runs every workload
in turn, each in its own process.  Exit status is 0 when the run completed,
whether or not its checks passed; the JSON line carries `correct`.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: numpy reads these when it is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
PACKAGE = "affinefloer"
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"
MIN_REPS = 3
READY = "ready"
# End-to-end times are reported at the machine speed where one
# `calibration_loop()` takes this long: about its mean on the 2-core Intel
# Xeon machine (Python 3.11) the bounds were set on, when that machine was
# slow.  During a sweep the loop runs once every CALIBRATION_EVERY_NS.
CALIBRATION_REF_S = 0.0026
CALIBRATION_EVERY_NS = 100_000_000

import tracer as tracing  # noqa: E402  (sibling modules: the script's directory is on the path)
import workloads  # noqa: E402


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path, or fail."""
    if not (SOURCE / PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError(f"no {PACKAGE} package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def import_package():
    """Import the package, and fail unless it came from the checkout."""
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SOURCE):
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {SOURCE}")
    return pkg


def calibration_loop() -> int:
    """A fixed piece of the interpreter work the library does most:
    `Fraction` arithmetic, and dict updates keyed by small tuples."""
    acc: dict = {}
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(i % 17 + 1, i % 13 + 2)
        key = (i % 23, x.denominator % 7)
        acc[key] = acc.get(key, 0) + i * i
        for j in range(8):
            key = (j, i % 5)
            acc[key] = acc.get(key, 0) + j
    return len(acc)


def speed_factor(rep: dict) -> float:
    """What turns this repetition's times into times at the reference
    speed: CALIBRATION_REF_S over the mean time of the calibration loops
    run during its sweep.  The shared machine's speed changes by a third
    and more within seconds; sampled through the sweep, the loop's time
    follows the sweep's own."""
    return CALIBRATION_REF_S / statistics.fmean(rep["calibration_s"])


def digest(records: list) -> str:
    return hashlib.sha256("\n".join(sorted(map(repr, records))).encode()).hexdigest()


def sweep(phases, tracer=None) -> dict:
    """Run every item of every phase once, in order, one at a time.  Between
    items, once every CALIBRATION_EVERY_NS, run `calibration_loop()` once;
    its time is left out of `sweep_s` and of every latency."""
    clock = time.perf_counter_ns
    latencies: list[int] = []
    calibration_ns: list[int] = []
    records: list = []
    errors: list[str] = []
    attempted = failed = 0
    query_id = 0
    calibration_loop()  # untimed: the interpreter specialises its code on the first run
    start = clock()
    next_calibration = start
    for phase in phases:
        run = phase.run
        for item in phase.items:
            begin = clock()
            if begin >= next_calibration:
                calibration_loop()
                end = clock()
                calibration_ns.append(end - begin)
                next_calibration = end + CALIBRATION_EVERY_NS
                begin = end
            if tracer is not None:
                tracer.open_query(phase.name, query_id)
            try:
                result, bad = run(item.payload)
            except Exception as exc:  # a raising check is a failed check
                result, bad = ("error", type(exc).__name__), item.checks
                errors.append(f"{phase.name} {item.key}: {type(exc).__name__}: {exc}")
            if tracer is not None:
                tracer.close_query()
            if phase.is_query:
                latencies.append(clock() - begin)
            records.append((phase.name, item.key, result))
            attempted += item.checks
            failed += bad
            query_id += 1
    sweep_s = (clock() - start - sum(calibration_ns)) / 1e9
    return {
        "sweep_s": sweep_s,
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "calibration_s": [ns / 1e9 for ns in calibration_ns],
        "digest": digest(records),
        "errors": errors,
    }


def child_main(args) -> int:
    """One repetition, in its own process: set up, say `ready`, sweep once,
    and print the sweep's figures as one JSON line."""
    use_checkout_source()
    pkg = import_package()
    phases = workloads.WORKLOADS[args.workload](pkg, args.seed)
    print(READY, flush=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pkg)
    rep = sweep(phases, tracer)
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    if tracer is not None:
        rep["layers"] = tracer.metrics(rep["sweep_s"])
        if args.spans:
            write_spans(Path(args.spans), provenance(args), tracer)
    print(json.dumps(rep), flush=True)
    return 0


def repetition(args, traced: bool, spans: Path | None = None) -> dict:
    """Run one repetition in a child process.  `setup_s` is the time from
    starting the child to its report that the inputs are generated."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child"]
    argv += ["--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(int(traced))]
    if spans is not None:
        argv += ["--spans", str(spans)]
    ready = False
    start = time.perf_counter_ns()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        for line in child.stdout:
            if line.rstrip("\n") == READY:
                ready = True
                break
        setup_s = (time.perf_counter_ns() - start) / 1e9
        lines = child.stdout.read().splitlines()
    if child.returncode != 0 or not ready or not lines:
        raise RuntimeError(f"repetition exited with status {child.returncode}: {' '.join(argv)}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = setup_s
    return rep


def tail_percentile(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest of p90, p99, p99.9, p99.99 with at least ten samples
    beyond it, as (percentile, value, samples beyond)."""
    ordered = sorted(samples)
    best = None
    for p in (90.0, 99.0, 99.9, 99.99):
        beyond = int(len(ordered) * (100.0 - p) / 100.0)
        if beyond < 10:
            break
        best = (p, ordered[len(ordered) - beyond - 1], beyond)
    return best


def read_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def read_cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": read_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": read_cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def say(line: str) -> None:
    print(line, flush=True)


def report_end_to_end(reps: list[dict]) -> dict:
    """Medians over the repetitions of times scaled to the reference speed
    (see `speed_factor`); the median of the raw times is printed beside."""
    latencies_us = [ns / 1e3 for rep in reps for ns in rep["latencies"]]
    speeds = [speed_factor(r) for r in reps]
    metrics = {
        "setup_s": ([r["setup_s"] for r in reps], speeds, "s"),
        "sweep_s": ([r["sweep_s"] for r in reps], speeds, "s"),
        "checks_per_s": (
            [r["attempted"] / r["sweep_s"] for r in reps],
            [1 / f for f in speeds],
            "1/s",
        ),
        "query_p50_us": (
            latencies_us,
            [f for r, f in zip(reps, speeds) for _ in r["latencies"]],
            "us",
        ),
    }
    calibration_s = [t for r in reps for t in r["calibration_s"]]
    say(
        f"calibration_loop = {statistics.fmean(calibration_s):.6g} s raw "
        f"(mean of {len(calibration_s)}; reference {CALIBRATION_REF_S} s)"
    )
    out = {}
    for name, (samples, scales, unit) in metrics.items():
        value = statistics.median(x * f for x, f in zip(samples, scales))
        raw = statistics.median(samples)
        say(f"{name} = {value:.6g} {unit}  (median of {len(samples)}; raw {raw:.6g})")
        out[name] = {"value": value, "unit": unit}
    peak = statistics.median(r["peak_rss_mb"] for r in reps)
    say(f"peak_rss_mb = {peak:.6g} MB  (median of {len(reps)} repetition processes)")
    out["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    tail = tail_percentile(latencies_us)
    if tail is not None:
        p, value, beyond = tail
        say(
            f"query_p{p:g}_us = {value:.6g} us  (raw, n={len(latencies_us)}, "
            f"{beyond} beyond; not gated)"
        )
    return out


def report_per_layer(untraced: list[dict], traced: list[dict], spans_path: Path) -> dict:
    """Medians over the traced repetitions; times are scaled to the
    reference speed, as the end-to-end ones are."""
    plain_s = statistics.median(r["sweep_s"] * speed_factor(r) for r in untraced)
    traced_s = statistics.median(r["sweep_s"] * speed_factor(r) for r in traced)
    out = {}
    for name in traced[0]["layers"]:
        unit = _layer_unit(name)
        values = [r["layers"][name] for r in traced]
        if unit == "s":
            values = [v * speed_factor(r) for v, r in zip(values, traced)]
        value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
        say(f"{name} = {value:.6g} {unit}")
    for name, value in (
        ("trace.sweep_s", traced_s),
        ("trace.untraced_sweep_s", plain_s),
        ("trace.overhead_s", traced_s - plain_s),
    ):
        out[name] = {"value": value, "unit": "s"}
    say(
        f"tracing overhead = {traced_s - plain_s:.6g} s per sweep "
        f"({100 * (traced_s - plain_s) / plain_s:.1f}% of the untraced {plain_s:.6g} s; "
        f"medians of {len(traced)} traced and {len(untraced)} untraced sweeps, "
        "scaled to the reference speed)"
    )
    say(f"spans of the first traced sweep: {spans_path.relative_to(ROOT)}")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "%"
    return "count"


def write_spans(path: Path, prov: dict, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": prov}) + "\n")
        for span in tracer.span_records():
            fh.write(json.dumps(span) + "\n")


def run_one(args) -> int:
    try:
        use_checkout_source()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pinned = json.loads(DIGESTS.read_text()).get(args.workload)
    prov = provenance(args)
    say(f"provenance {json.dumps(prov)}")

    # Stop before a repetition that would likely end after --seconds.
    # With --trace 1 every second repetition is traced; the first traced
    # one writes its spans.
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    reps: list[dict] = []
    rep_s: list[float] = []
    start = time.perf_counter()
    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    while len(reps) < min_reps or (
        time.perf_counter() - start + statistics.median(rep_s) <= args.seconds
    ):
        begin = time.perf_counter()
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(repetition(args, traced, spans_path if len(reps) == 1 and traced else None))
        rep_s.append(time.perf_counter() - begin)

    attempted = sum(r["attempted"] for r in reps) + len(reps)  # + one digest check each
    failed = sum(r["failed"] for r in reps)
    digests = {r["digest"] for r in reps}
    failed += sum(r["digest"] != pinned for r in reps)
    for error in sorted({e for r in reps for e in r["errors"]})[:10]:
        say(f"error {error}")
    verdict = "matches" if digests == {pinned} else "DIFFERS from"
    say(f"digest {' '.join(sorted(digests))} ({verdict} pinned {pinned})")
    say(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} checks)")

    untraced = [r for r in reps if "layers" not in r]
    if args.trace:
        traced = [r for r in reps if "layers" in r]
        metrics = report_per_layer(untraced, traced, spans_path)
    else:
        metrics = report_end_to_end(untraced)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        say(f"== {name}")
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one repetition in this process (see `repetition`).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
