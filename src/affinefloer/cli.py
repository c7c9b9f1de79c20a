"""Command-line front end.

Subcommands:

  points INSTANCE D              enumerate the (1/D)-integral points
  mu2 INSTANCE N M A I B J       one triangle product, with the polynomial
                                 identity checked on cp2
  verify SUITE [bounds]          cross-verification sweeps
                                 (ring | homotopy | tropical | wrapped |
                                  numeric | all)
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


def cmd_points(args) -> CommandReport:
    name, polygon = resolve_instance(args)
    report = CommandReport("points", {"instance": name, "d": args.d})
    points = affine.fractional_points(polygon, args.d)
    report.results["count"] = len(points)
    report.results["points"] = [{"a": p.a, "i": p.i, "d": p.d} for p in points]
    report.check(
        "count_matches_membership_scan",
        len(points) == affine.count_points(polygon, args.d),
    )
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
    report = CommandReport(
        "mu2",
        {"instance": name, "n": args.n, "m": args.m, "a": args.a, "i": args.i,
         "b": args.b, "j": args.j},
    )
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
        terms = " + ".join(
            (f"{c}*" if c != 1 else "") + f"q_({a},{i})" for (a, i), c in product.terms
        )
        print(f"mu2(q_({args.b},{args.j})@{args.m}, q_({args.a},{args.i})@{args.n}) = {terms}")
        if is_cp2:
            rhs = " + ".join(
                (f"{c}*" if c != 1 else "")
                + polyring.q_label(a, i, args.n + args.m)
                for (a, i), c in product.terms
            )
            print(
                f"i.e. {polyring.q_label(args.a, args.i, args.n)} * "
                f"{polyring.q_label(args.b, args.j, args.m)} = {rhs}"
            )
    return report


# verify suite -> (check name, sweep run with the suite's bound)
_SWEEPS = {
    "ring": ("ring_isomorphism", lambda args: verify.ring(args.max_degree)),
    "homotopy": ("homotopy_word_counts", lambda args: verify.homotopy(args.max_k)),
    "tropical": ("tropical_counts_match_products", lambda args: verify.tropical(args.max)),
    "wrapped": (
        "wrapped_products_match_localized_ring",
        lambda args: verify.wrapped(min(args.max_degree, 3)),
    ),
}

# verify flag -> (default, the suites that read it)
_VERIFY_FLAGS = {
    "max_degree": (6, ("ring", "wrapped")),
    "max_k": (8, ("homotopy",)),
    "max": (4, ("tropical",)),
    "tol": (1e-9, ("numeric",)),
}


def _run_suites(report: CommandReport, args, suites) -> CommandReport:
    """Run each suite into the report; the numeric suite adds one check per
    floating-point check, every other suite one check for its sweep."""
    for suite in suites:
        if suite == "numeric":
            numeric = numchecks.numeric_report(tol=args.tol)
            report.results["numeric"] = numeric
            for item in numeric["checks"]:
                detail = item.get("error") or f"max_error={item['max_error']:.3e}"
                report.check(item["name"], item["pass"], detail)
        else:
            name, run = _SWEEPS[suite]
            sweep = run(args)
            report.results[suite] = {
                "checked": sweep.checked, "mismatches": list(sweep.mismatches)
            }
            detail = f"{sweep.checked} checked"
            if sweep.mismatches:
                detail += f", {len(sweep.mismatches)} mismatches, first: {sweep.mismatches[0]}"
            report.check(name, sweep.ok, detail)
    if not args.json:
        for check in report.checks:
            state = "pass" if check["pass"] else "FAIL"
            print(f"[{state}] {check['name']}  ({check['detail']})")
    return report


def cmd_verify(args) -> CommandReport:
    """Run one suite, or all.  A single suite rejects a flag it does not read,
    and wrapped a --max-degree above its cap of 3; `all` reads every flag."""
    if args.suite == "wrapped" and (args.max_degree or 0) > 3:
        raise ValueError(f"--max-degree {args.max_degree} is above the wrapped suite's cap of 3")
    for dest, (default, readers) in _VERIFY_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.suite not in ("all", *readers):
            raise ValueError(f"--{dest.replace('_', '-')} is not read by the {args.suite} suite")
    suites = (*_SWEEPS, "numeric") if args.suite == "all" else (args.suite,)
    return _run_suites(CommandReport("verify", {"suite": args.suite}), args, suites)


def cmd_render(args) -> CommandReport:
    name, polygon = resolve_instance(args)
    report = CommandReport(
        "render", {"instance": name, "out": args.out, "points": args.points,
                   "triangle": args.triangle},
    )
    triangle = None
    if args.triangle is not None:
        if polygon != affine.CP2:
            raise ValueError("triangle rendering is available for the cp2 instance only")
        a, i, n, b, j, m, h = args.triangle
        triangle = tropical.build_triangle(a, i, n, b, j, m, h)
        report.check("triangle_exists", triangle is not None)
        if triangle is not None:
            report.results["triangle"] = tropical.triangle_to_json(triangle)
    svg = render.render_svg(polygon, d=args.points, triangle=triangle)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    report.results["svg_bytes"] = len(svg)
    report.check("written", True, args.out)
    if not args.json:
        print(f"wrote {args.out} ({len(svg)} bytes)")
    return report


def cmd_numeric(args) -> CommandReport:
    return _run_suites(CommandReport("numeric", {"tol": args.tol}), args, ("numeric",))


def tolerance(text: str) -> float:
    """argparse type of --tol: a float that `numchecks.check_tolerance`
    accepts.  argparse reports text that is not a float as invalid input and
    a rejected tolerance with the reason `check_tolerance` gives."""
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
    p_verify.add_argument("suite", choices=(*_SWEEPS, "numeric", "all"))
    p_verify.add_argument("--max-degree", type=int, dest="max_degree")
    p_verify.add_argument("--max-k", type=int, dest="max_k")
    p_verify.add_argument("--max", type=int)
    p_verify.add_argument("--tol", type=tolerance)
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
    p_numeric.add_argument("--tol", type=tolerance, default=1e-9)
    p_numeric.set_defaults(func=cmd_numeric)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for check in report.checks:
            if not check["pass"]:
                detail = f": {check['detail']}" if check["detail"] else ""
                print(f"failed check {check['name']}{detail}", file=sys.stderr)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
