"""Command-line front end.

Subcommands:

  points INSTANCE D              enumerate the (1/D)-integral points
  mu2 INSTANCE N M A I B J       one triangle product, with the polynomial
                                 identity checked on cp2
  verify SUITE [bounds]          one suite of `verify.SUITES`, or all of them,
                                 with the bound flags that table declares
  render INSTANCE OUT.svg        figure of the polygon, points, one triangle
  numeric                        JSON report of all floating-point checks

INSTANCE is a builtin name ("cp2", "dp6") or a path to a JSON instance file,
given by position only.  An instance equal to the cp2 builtin counts as cp2,
whatever its name.  Every command prints a human summary by default or a
machine-readable report with --json, and exits 0 exactly when all of its
checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

from . import affine, floer, numchecks, polyring, render, tropical, verify
from .affine import AffinePolygon


class CommandReport:
    """Machine-readable outcome of one command."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.results: dict = {}
        self.checks: list[dict] = []
        self._start = time.perf_counter()

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "pass": bool(passed), "detail": detail})
        return passed

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "elapsed_seconds": round(time.perf_counter() - self._start, 6),
        }

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)


def resolve_instance(args) -> tuple[str, AffinePolygon]:
    """(name, polygon) from the positional INSTANCE and --widths.

    Every instance, the cp2 builtin included, is an `AffinePolygon`: products
    compute k geometrically on each of them.  The polygon is validated here
    once for every command; an invalid one, or --widths given with any
    instance but dp6, raises ValueError (exit 2).
    """
    name = args.instance
    if args.widths is not None and name != "dp6":
        raise ValueError(f"--widths applies to the dp6 builtin only, not to {name}")
    if name == "cp2":
        polygon = affine.CP2
    elif name == "dp6":
        polygon = affine.dp6_model(args.widths or (1, 1, 1))
    else:
        polygon = affine.load_polygon(name)
    problems = affine.validate(polygon)
    if problems:
        raise ValueError(f"invalid instance {name}: " + "; ".join(problems))
    return name, polygon


POINTS_CAP = 10**6
"""The most (1/D)-integral points, and the most columns, that `points`
enumerates and `render --points` draws, and the most columns of the
denominator n + m that `mu2` reads."""


def _columns(polygon: AffinePolygon, d: int) -> int:
    """The number of columns eta = a/d in the polygon's eta-range."""
    return math.floor(polygon.eta_max * d) - math.ceil(polygon.eta_min * d) + 1


def _count_within_cap(polygon: AffinePolygon, d: int) -> int:
    """`affine.count_points(polygon, d)`, known in O(log d) before anything
    is enumerated; ValueError (exit 2) when the points or the columns
    eta = a/d of the listing would exceed `POINTS_CAP`."""
    count = affine.count_points(polygon, d)
    columns = _columns(polygon, d)
    if max(count, columns) > POINTS_CAP:
        raise ValueError(f"d = {d} gives {count} points in {columns} columns; "
                         f"the cap on each is {POINTS_CAP}")
    return count


def cmd_points(args) -> CommandReport:
    name, polygon = resolve_instance(args)
    report = CommandReport("points", {"instance": name, "d": args.d})
    count = _count_within_cap(polygon, args.d)
    points = affine.fractional_points(polygon, args.d)
    report.results["count"] = len(points)
    if args.json or args.report_out:
        report.results["points"] = [{"a": p.a, "i": p.i, "d": p.d} for p in points]
    report.check("count_matches_membership_scan", len(points) == count)
    if not args.json:
        for p in points:
            if p.d == 0:
                print("q_(0,0)  (unit)")
            else:
                spot = affine.embed(polygon, p)
                print(f"q_({p.a},{p.i})  at (eta, xi) = ({spot.eta}, {spot.xi})")
        print(f"total: {len(points)} points")
    return report


def cmd_mu2(args) -> CommandReport:
    name, polygon = resolve_instance(args)
    if args.n >= 0 and args.m >= 0:  # mu2 itself rejects a negative denominator
        columns = _columns(polygon, args.n + args.m)
        if columns > POINTS_CAP:
            raise ValueError(f"denominator n + m = {args.n + args.m} has {columns} columns; "
                             f"the cap is {POINTS_CAP}")
    report = CommandReport("mu2", {"instance": name, **{f: getattr(args, f) for f in "nmaibj"}})
    q1 = floer.basis_vector(0, args.n, args.a, args.i)
    q2 = floer.basis_vector(args.n, args.n + args.m, args.b, args.j)
    product = floer.mu2(q2, q1, polygon)
    report.results["product"] = floer.sum_to_json(product)
    report.check("computed", True)
    is_cp2 = polygon == affine.CP2
    if is_cp2:
        expansion = verify.ring_expansion(args.a, args.i, args.n, args.b, args.j, args.m)
        report.check("matches_polynomial_identity", expansion == product.coeffs())
    if not args.json:
        def terms(label) -> str:
            return " + ".join((f"{c}*" if c != 1 else "") + label(a, i) for (a, i), c in product.terms)
        print(f"mu2(q_({args.b},{args.j})@{args.m}, q_({args.a},{args.i})@{args.n}) = "
              + terms(lambda a, i: f"q_({a},{i})"))
        if is_cp2:
            q = polyring.q_label
            print(f"i.e. {q(args.a, args.i, args.n)} * {q(args.b, args.j, args.m)} = "
                  + terms(lambda a, i: q(a, i, args.n + args.m)))
    return report


# verify flag -> the default of a suite it bounds: an int, or a tolerance
_FLAGS = {suite.flag: suite.default for suite in verify.SUITES.values()}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _run_suites(report: CommandReport, args, names) -> CommandReport:
    """Run the named suites of `verify.SUITES` in order into the report."""
    for name in names:
        suite = verify.SUITES[name]
        report.results[name], checks = suite.run(getattr(args, suite.flag))
        for check in checks:
            report.check(*check)
    if not args.json:
        for check in report.checks:
            state = "pass" if check["pass"] else "FAIL"
            print(f"[{state}] {check['name']}  ({check['detail']})")
    return report


def cmd_verify(args) -> CommandReport:
    """Run one suite, or all.  A single suite rejects a flag it does not read
    and a bound above its cap; `all` reads every flag."""
    if args.suite != "all":
        suite = verify.SUITES[args.suite]
        for flag in _FLAGS:
            value = getattr(args, flag)
            if value is not None and flag != suite.flag:
                raise ValueError(f"{_option(flag)} is not read by the {args.suite} suite")
            if value is not None and value > suite.cap:
                raise ValueError(f"{_option(flag)} {value} is above the {args.suite} suite's "
                                 f"cap of {suite.cap}")
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    return _run_suites(CommandReport("verify", {"suite": args.suite}), args, names)


def cmd_render(args) -> CommandReport:
    name, polygon = resolve_instance(args)
    inputs = {f: getattr(args, f) for f in ("out", "points", "triangle")}
    report = CommandReport("render", {"instance": name, **inputs})
    triangle = None
    if args.triangle is not None:
        if polygon != affine.CP2:
            raise ValueError("triangle rendering is available for the cp2 instance only")
        a, i, n, b, j, m, h = args.triangle
        triangle = tropical.build_triangle(a, i, n, b, j, m, h)
        report.check("triangle_exists", triangle is not None)
        if triangle is not None:
            report.results["triangle"] = tropical.triangle_to_json(triangle)
    if args.points is not None and args.points >= 1:  # render_svg refuses a smaller D
        _count_within_cap(polygon, args.points)
    svg = render.render_svg(polygon, d=args.points, triangle=triangle)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    report.results["svg_bytes"] = len(svg)
    report.check("written", True, args.out)
    if not args.json:
        print(f"wrote {args.out} ({len(svg)} bytes)")
    return report


def cmd_numeric(args) -> CommandReport:
    flag = verify.SUITES["numeric"].flag
    return _run_suites(CommandReport("numeric", {flag: getattr(args, flag)}), args, ("numeric",))


def tolerance(text: str) -> float:
    """argparse type of a real bound: a float that `numchecks.check_tolerance`
    accepts; a float it refuses is an argparse error giving its reason."""
    value = float(text)
    try:
        return numchecks.check_tolerance(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_instance_args(parser) -> None:
    parser.add_argument(
        "instance", metavar="INSTANCE",
        help="builtin name (cp2, dp6) or JSON instance path",
    )
    parser.add_argument(
        "--widths", type=int, nargs=3, metavar=("W1", "W2", "W3"),
        help="affine widths of the dp6 builtin (default 1 1 1)",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser (subcommand parsers are built from the same class)
    that reports invalid arguments as one `error:` line and exit status 2,
    like invalid input found inside a command, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="affinefloer",
        description="Exact bases, products and cross-checks on singular affine polygons.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--out", dest="report_out", metavar="PATH",
        help="also write the JSON report to PATH",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_points = sub.add_parser("points", help="enumerate (1/d)-integral points")
    _add_instance_args(p_points)
    p_points.add_argument("d", type=int)
    p_points.set_defaults(func=cmd_points)

    p_mu2 = sub.add_parser("mu2", help="one triangle product")
    _add_instance_args(p_mu2)
    for field in ("n", "m", "a", "i", "b", "j"):
        p_mu2.add_argument(field, type=int)
    p_mu2.set_defaults(func=cmd_mu2)

    p_verify = sub.add_parser("verify", help="cross-verification sweeps")
    p_verify.add_argument("suite", choices=(*verify.SUITES, "all"))
    for flag, default in _FLAGS.items():
        kind = int if isinstance(default, int) else tolerance
        p_verify.add_argument(_option(flag), dest=flag, type=kind)
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="write an SVG figure")
    _add_instance_args(p_render)
    p_render.add_argument("out", metavar="OUT.svg")
    p_render.add_argument("--points", type=int, metavar="D")
    p_render.add_argument(
        "--triangle", type=int, nargs=7, metavar=("A", "I", "N", "B", "J", "M", "H")
    )
    p_render.set_defaults(func=cmd_render)

    p_numeric = sub.add_parser("numeric", help="floating-point checks report")
    numeric = verify.SUITES["numeric"]
    p_numeric.add_argument(_option(numeric.flag), type=tolerance, default=numeric.default)
    p_numeric.set_defaults(func=cmd_numeric)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.report_out:  # an unwritable path is refused before the command prints
            open(args.report_out, "a", encoding="utf-8").close()
        report = args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        for check in report.checks:
            if not check["pass"]:
                detail = f": {check['detail']}" if check["detail"] else ""
                print(f"failed check {check['name']}{detail}", file=sys.stderr)
    if args.json or args.report_out:  # the report's text is built only to be read
        text = json.dumps(report.to_json(), indent=2)
        if args.json:
            print(text)
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
