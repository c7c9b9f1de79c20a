"""End-to-end CLI behavior: outputs, JSON reports, exit codes, SVG files."""

import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from affinefloer import affine, cli, numchecks, verify
from support import polygon_to_json


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code = cli.main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_points_cp2_counts(capsys):
    for d, expected in ((4, 15), (1, 3), (0, 1)):
        code, data = run_json(["points", "cp2", str(d)], capsys)
        assert code == 0
        assert data["results"]["count"] == expected
        assert all(c["pass"] for c in data["checks"])


def test_points_human_output(capsys):
    code, out = run(["points", "cp2", "1"], capsys)
    assert code == 0
    assert "total: 3 points" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["points", "cp2", "1"],
        ["mu2", "INSTANCE.json", "1", "1", "0", "0", "1", "0"],
        ["render", "INSTANCE.json", "x.svg"],
    ],
    ids=["points-cp2", "mu2-json", "render-json"],
)
def test_widths_off_dp6_exits_two_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "INSTANCE.json").write_text(json.dumps(polygon_to_json(affine.dp6_model())))
    assert cli.main(argv + ["--widths", "2", "1", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and "--widths" in error
    assert not (tmp_path / "x.svg").exists()


def test_points_dp6_with_widths(capsys):
    # columns at eta = 0..4 hold 2, 3, 4, 4, 3 points
    code, data = run_json(["points", "--widths", "2", "1", "1", "dp6", "1"], capsys)
    assert code == 0
    assert data["results"]["count"] == 16


def test_mu2_reports_product_and_identity(capsys):
    code, data = run_json(["mu2", "cp2", "1", "1", "-1", "0", "1", "0"], capsys)
    assert code == 0
    assert data["results"]["product"]["terms"] == [
        {"a": 0, "i": 0, "c": 1},
        {"a": 0, "i": 1, "c": 1},
    ]
    assert {c["name"] for c in data["checks"]} == {"computed", "matches_polynomial_identity"}


def test_mu2_fig_case(capsys):
    code, data = run_json(["mu2", "cp2", "2", "2", "-2", "0", "2", "0"], capsys)
    assert code == 0
    assert [t["c"] for t in data["results"]["product"]["terms"]] == [1, 2, 1]


def test_mu2_trivial_case(capsys):
    code, data = run_json(["mu2", "cp2", "1", "1", "0", "0", "0", "0"], capsys)
    assert code == 0
    assert data["results"]["product"]["terms"] == [{"a": 0, "i": 0, "c": 1}]


@pytest.mark.parametrize(
    "args, term",
    [
        (["1", "0", "0", "0", "0", "0"], {"a": 0, "i": 0, "c": 1}),
        (["0", "1", "0", "0", "1", "0"], {"a": 1, "i": 0, "c": 1}),
        (["0", "0", "0", "0", "0", "0"], {"a": 0, "i": 0, "c": 1}),
    ],
    ids=["unit-right", "unit-left", "unit-unit"],
)
def test_mu2_with_a_unit_factor_checks_the_identity_on_cp2(args, term, capsys):
    code, data = run_json(["mu2", "cp2"] + args, capsys)
    assert code == 0
    assert data["results"]["product"]["terms"] == [term]
    assert [(c["name"], c["pass"]) for c in data["checks"]] == [
        ("computed", True),
        ("matches_polynomial_identity", True),
    ]
    code, dp6 = run_json(["mu2", "dp6"] + args, capsys)
    assert code == 0
    assert dp6["results"]["product"] == data["results"]["product"]


def test_mu2_checks_the_polynomial_identity_at_large_degree(capsys):
    code, data = run_json(["mu2", "cp2", "200", "200", "0", "50", "0", "50"], capsys)
    assert code == 0
    assert ("matches_polynomial_identity", True) in [(c["name"], c["pass"]) for c in data["checks"]]


def test_mu2_inadmissible_exits_nonzero(capsys):
    assert cli.main(["mu2", "cp2", "1", "1", "5", "0", "1", "0"]) == 2
    capsys.readouterr()


def test_verify_suites_pass(capsys):
    for suite, bound, check in (
        ("ring", ["--max-degree", "3"], "ring_isomorphism"),
        ("homotopy", ["--max-k", "5"], "homotopy_word_counts"),
        ("tropical", ["--max", "3"], "tropical_counts_match_products"),
        ("wrapped", ["--max-degree", "2"], "wrapped_products_match_localized_ring"),
    ):
        code, data = run_json(["verify", suite] + bound, capsys)
        assert code == 0
        assert [(c["name"], c["pass"]) for c in data["checks"]] == [(check, True)]
        assert data["results"][suite]["checked"] > 0
        assert data["results"][suite]["mismatches"] == []


def test_verify_numeric_and_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["--json", "--out", str(out_path), "verify", "numeric"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text() == stdout  # one report, elapsed_seconds included
    data = json.loads(out_path.read_text())
    assert data["command"] == "verify"
    assert all(c["pass"] for c in data["checks"])


def test_numeric_subcommand(capsys):
    code, data = run_json(["numeric"], capsys)
    assert code == 0
    assert data["results"]["numeric"]["pass"]


def test_unconverged_quadrature_is_a_failed_check(monkeypatch, capsys):
    # one doubling is too few for the smallest tolerance the CLI accepts
    monkeypatch.setattr(numchecks, "QUADRATURE_MAX", 2 * numchecks.QUADRATURE_START)
    code, data = run_json(["numeric", "--tol", str(numchecks.TOL_FLOOR)], capsys)
    assert code == 1
    assert not data["results"]["numeric"]["pass"]
    failed = [c for c in data["checks"] if not c["pass"]]
    assert failed and all("no convergence" in c["detail"] for c in failed)


def test_render_points(tmp_path, capsys):
    out = tmp_path / "figure.svg"
    code, _ = run(["render", "cp2", "--points", "4", str(out)], capsys)
    assert code == 0
    svg = out.read_text()
    assert svg.count("<circle") == 15
    assert "<svg" in svg and "polyline" in svg


def test_render_triangle(tmp_path, capsys):
    out = tmp_path / "triangle.svg"
    code, data = run_json(
        ["render", "cp2", "--triangle", "-2", "0", "2", "2", "0", "2", "1", str(out)],
        capsys,
    )
    assert code == 0
    assert data["results"]["triangle"]["bend"] == ["0", "-1/4"]
    assert "mult 2" in out.read_text()


def test_failed_check_exits_one(tmp_path, capsys):
    out = tmp_path / "none.svg"
    code = cli.main(
        ["render", "cp2", "--triangle", "-2", "0", "2", "2", "0", "2", "5", str(out)]
    )
    assert code == 1
    assert "triangle_exists" in capsys.readouterr().err


def test_mu2_prints_polynomial_identity(capsys):
    code, out = run(["mu2", "cp2", "1", "1", "-1", "0", "1", "0"], capsys)
    assert code == 0
    assert "x * z = y^2 + p" in out


def test_render_dp6_draws_both_vertical_facets(tmp_path, capsys):
    out = tmp_path / "dp6.svg"
    code, _ = run(["render", "dp6", "--points", "2", str(out)], capsys)
    assert code == 0
    svg = out.read_text()
    # dp6 (1,1,1) spans eta in [0, 3] with both facets from xi = -1 to 0
    for x in ("40.00", "700.00"):
        assert f'<polyline points="{x},260.00 {x},40.00" fill="none" stroke="#333333"' in svg


def test_render_base_only(tmp_path, capsys):
    out = tmp_path / "base.svg"
    code, _ = run(["render", "cp2", str(out)], capsys)
    assert code == 0
    assert out.exists()


def test_instance_file_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(polygon_to_json(affine.dp6_model((1, 2, 1)))))
    code, data = run_json(["points", str(path), "1"], capsys)
    assert code == 0
    assert data["results"]["count"] == len(
        affine.fractional_points(affine.dp6_model((1, 2, 1)), 1)
    )


def test_missing_file_exit_code(capsys):
    assert cli.main(["points", "/nonexistent/instance.json", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["points", "2"],
        ["render", "dp6", "x.svg", "--triangle", "-2", "0", "2", "2", "0", "2", "1"],
        ["render", "cp2", "x.svg", "--points", "0"],
        ["render", "cp2", "x.svg", "--points", "-1"],
    ],
)
def test_invalid_input_exits_two_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if argv == ["points", "2"]:  # D is missing: argparse itself exits with 2
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    else:
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "argv, count",
    [
        (["points", "cp2", "100000000000000000000"], 5000000000000000000150000000000000000001),
        (["--json", "points", "cp2", "100000000000000000000"],
         5000000000000000000150000000000000000001),
        (["points", "dp6", "1", "--widths", "1", "1", "1000000"], 500004500005),
        (["render", "cp2", "x.svg", "--points", "100000"], 5000150001),
    ],
    ids=["points-cp2-1e20", "json-points-cp2-1e20", "points-dp6-wide", "render-cp2-1e5"],
)
def test_a_listing_above_the_points_cap_exits_two_with_one_line(
    argv, count, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert f" {count} points " in line and f"cap on each is {cli.POINTS_CAP}" in line
    assert not (tmp_path / "x.svg").exists()


def test_the_points_cap_admits_a_listing_of_exactly_the_cap(tmp_path, monkeypatch, capsys):
    # cp2 has 6 points in 5 columns at d = 2, and 10 points in 7 columns at d = 3
    monkeypatch.setattr(cli, "POINTS_CAP", 6)
    monkeypatch.chdir(tmp_path)
    code, data = run_json(["points", "cp2", "2"], capsys)
    assert code == 0 and data["results"]["count"] == 6
    assert cli.main(["render", "cp2", "x.svg", "--points", "2"]) == 0
    assert cli.main(["points", "cp2", "3"]) == 2
    assert cli.main(["render", "cp2", "y.svg", "--points", "3"]) == 2
    assert not (tmp_path / "y.svg").exists()
    capsys.readouterr()


def _refuse_column_walks(monkeypatch):
    def walk(polygon, d):
        raise AssertionError(f"column walk at d = {d}")

    monkeypatch.setattr(affine, "_column_walk", walk)


@pytest.mark.parametrize(
    "argv, d, columns",
    [
        (["mu2", "cp2", "1", "2", "0", "0", "0", "0"], 3, 7),
        (["--json", "mu2", "cp2", "2", "1", "0", "0", "0", "0"], 3, 7),
        (["mu2", "dp6", "1", "1", "0", "0", "0", "0", "--widths", "1", "1", "2"], 2, 9),
    ],
    ids=["cp2", "json-cp2", "dp6-112"],
)
def test_mu2_above_the_column_cap_exits_two_before_any_column_walk(
    argv, d, columns, monkeypatch, capsys
):
    # cp2 has 2d + 1 columns at denominator d, dp6 (1,1,2) has 4d + 1
    monkeypatch.setattr(cli, "POINTS_CAP", 6)
    _refuse_column_walks(monkeypatch)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: denominator n + m = {d} has {columns} columns; the cap is 6\n"


def test_mu2_admits_a_denominator_of_exactly_the_column_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli, "POINTS_CAP", 5)  # cp2 has 5 columns at d = 2
    code, data = run_json(["mu2", "cp2", "1", "1", "-1", "0", "1", "0"], capsys)
    assert code == 0 and all(c["pass"] for c in data["checks"])
    assert cli.main(["mu2", "cp2", "2", "1", "0", "0", "0", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["mu2", "cp2", "-1", "10000000", "0", "0", "0", "0"], "denominator must be nonnegative"),
        (["mu2", "cp2", "4", "-1", "9", "0", "0", "0"], "q_(9,0) with denominator 4 is not admissible"),
    ],
    ids=["negative-n", "negative-m"],
)
def test_a_negative_denominator_is_left_to_the_product(argv, error, monkeypatch, capsys):
    # cp2 has 9 columns at n = 4; n + m = 9999999 would be far above the cap
    monkeypatch.setattr(cli, "POINTS_CAP", 9)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def test_mu2_at_a_million_plus_a_million_exits_two_with_one_line(monkeypatch, capsys):
    _refuse_column_walks(monkeypatch)
    assert cli.main(["mu2", "cp2", "1000000", "1000000", "0", "0", "0", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == (f"error: denominator n + m = 2000000 has 4000001 columns; "
                    f"the cap is {cli.POINTS_CAP}")


def test_human_points_builds_no_json_report(tmp_path, monkeypatch, capsys):
    code, human = run(["points", "cp2", "2"], capsys)
    assert code == 0
    reports = []
    to_json = cli.CommandReport.to_json

    def record(report):
        reports.append(report)
        return to_json(report)

    monkeypatch.setattr(cli.CommandReport, "to_json", record)
    assert run(["points", "cp2", "2"], capsys) == (0, human)
    assert reports == []
    out = tmp_path / "report.json"
    assert run(["--out", str(out), "points", "cp2", "2"], capsys) == (0, human)
    (report,) = reports
    points = json.loads(out.read_text())["results"]["points"]
    assert len(points) == 6 and points == report.results["points"]


_WIDTHS = ["--widths", "2", "1", "3"]


@pytest.mark.parametrize(
    "command, rest",
    [("points", ["3"]), ("mu2", ["1", "1", "0", "0", "1", "0"]), ("render", ["x.svg"])],
)
def test_widths_may_stand_before_or_after_the_instance(
    command, rest, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for argv in (
        [command, *_WIDTHS, "dp6", *rest],
        [command, "dp6", *_WIDTHS, *rest],
        [command, "dp6", *rest, *_WIDTHS],
    ):
        code, data = run_json(argv, capsys)
        assert code == 0
        del data["elapsed_seconds"]
        svg = (tmp_path / "x.svg").read_text() if command == "render" else None
        outputs.append((data, svg))
    assert outputs[0] == outputs[1] == outputs[2]
    if command == "points":
        widths = affine.dp6_model((2, 1, 3))
        assert outputs[0][0]["results"]["count"] == len(affine.fractional_points(widths, 3))


@pytest.mark.parametrize("option", ["--builtin", "--instance"])
def test_instance_is_named_only_by_position(option, capsys):
    # the instance is named by position only; the old options are unknown
    with pytest.raises(SystemExit) as exc:
        cli.main(["--json", "points", option, "dp6", "cp2", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_report_json_round_trips(capsys):
    code, data = run_json(["points", "cp2", "2"], capsys)
    assert code == 0
    assert json.loads(json.dumps(data)) == data
    assert set(data) == {"command", "inputs", "results", "checks", "elapsed_seconds"}


def _write_instance(tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    return str(path)


def _bad_monodromy_instance(tmp_path):
    data = polygon_to_json(affine.CP2)
    data["singularities"][0]["mult"] = 2  # the bottom still jumps by 1
    return _write_instance(tmp_path, data)


def test_mu2_rejects_invalid_instance(tmp_path, capsys):
    path = _bad_monodromy_instance(tmp_path)
    assert cli.main(["mu2", path, "1", "1", "-1", "0", "0", "0"]) == 2
    assert "monodromy inconsistency" in capsys.readouterr().err


def test_points_rejects_invalid_instance(tmp_path, capsys):
    path = _bad_monodromy_instance(tmp_path)
    assert cli.main(["points", path, "2"]) == 2
    assert "monodromy inconsistency" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, key",
    [
        (lambda data: data.pop("bottom"), "bottom"),
        (lambda data: data.update(eta_min=0.5), "eta_min"),
        (lambda data: data["corners"].update(left="yes"), "corners"),
    ],
)
def test_malformed_instance_names_the_key(tmp_path, capsys, change, key):
    data = polygon_to_json(affine.CP2)
    change(data)
    assert cli.main(["points", _write_instance(tmp_path, data), "2"]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "change, key",
    [
        (lambda data: data.update(eta_min=False), "eta_min"),
        (lambda data: data["top"][0].__setitem__(1, False), "top"),
        (lambda data: data["singularities"][0].update(mult=True), "singularities"),
    ],
    ids=["eta_min", "top", "mult"],
)
def test_boolean_in_instance_exits_two_with_one_line(tmp_path, capsys, change, key):
    # dp6's eta_min, first top height and multiplicity are 0, 0 and 1, so
    # each boolean stands where an equal number was
    data = polygon_to_json(affine.dp6_model())
    change(data)
    assert cli.main(["--json", "points", _write_instance(tmp_path, data), "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{key}'" in captured.err and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["numeric"], ["verify", "numeric"]])
@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf", "tiny"])
def test_tolerance_must_be_positive_and_finite(command, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["numeric"], ["verify", "numeric"]])
def test_tolerance_below_the_rounding_floor_exits_two(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--tol", "1e-300"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and "--tol" in error and "1e-14" in error


def test_unknown_suite_exits_two_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and "'bogus'" in error


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "homotopy", "--max-k", "-1"],
        ["verify", "tropical", "--max", "0"],
        ["verify", "wrapped", "--max-degree", "-1"],
    ],
)
def test_sweep_bound_that_checks_nothing_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def _option(flag):
    return "--" + flag.replace("_", "-")


_TABLE_FLAGS = list(dict.fromkeys(suite.flag for suite in verify.SUITES.values()))


@pytest.mark.parametrize(
    "argv, flag, suite",
    [
        (["verify", "ring", "--max", "0", "--max-k", "0"], "--max-k", "ring"),
        (["verify", "homotopy", "--max-degree", "0"], "--max-degree", "homotopy"),
        (["verify", "homotopy", "--max", "0"], "--max", "homotopy"),
        (["verify", "tropical", "--max-k", "3"], "--max-k", "tropical"),
        (["verify", "wrapped", "--tol", "1e-3"], "--tol", "wrapped"),
        (["verify", "numeric", "--max-degree", "2"], "--max-degree", "numeric"),
    ]
    + [
        (["verify", name, _option(flag), "1"], _option(flag), name)
        for name, suite in verify.SUITES.items()
        for flag in _TABLE_FLAGS
        if flag != suite.flag
    ],
)
def test_a_flag_the_suite_does_not_read_exits_two(argv, flag, suite, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and f"{flag} " in error and f" {suite} suite" in error


@pytest.mark.parametrize("degree", ["4", "5"])
def test_a_wrapped_degree_above_the_cap_exits_two(degree, capsys):
    assert cli.main(["verify", "wrapped", "--max-degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and "--max-degree" in error and "cap of 3" in error


def _record_bounds(monkeypatch):
    """Swap each table suite's sweep for one that records its bound and
    compares nothing; returns the suite -> bound record."""
    seen = {}
    for name, suite in verify.SUITES.items():
        empty = verify.Sweep(0, ()) if suite.check else {"checks": []}

        def sweep(bound, name=name, empty=empty):
            seen[name] = bound
            return empty
        monkeypatch.setitem(verify.SUITES, name, replace(suite, sweep=sweep))
    return seen


def test_verify_all_reads_every_flag(monkeypatch, capsys):
    seen = _record_bounds(monkeypatch)
    argv = ["verify", "all", "--max-degree", "5", "--max-k", "3", "--max", "2", "--tol", "1e-8"]
    assert cli.main(argv) == 0
    assert seen == {"ring": 5, "homotopy": 3, "tropical": 2, "wrapped": 3, "numeric": 1e-8}
    seen.clear()
    assert cli.main(["verify", "all"]) == 0
    assert seen == {"ring": 6, "homotopy": 8, "tropical": 4, "wrapped": 3, "numeric": 1e-9}
    for name, bound in list(seen.items()):
        seen.clear()
        assert cli.main(["verify", name]) == 0
        assert seen == {name: bound}
    capsys.readouterr()


# suite -> (its smallest valid bound, a bound just below it)
_LEAST_BOUND = {
    "ring": (1, 0),
    "homotopy": (0, -1),
    "tropical": (1, 0),
    "wrapped": (0, -1),
    "numeric": (numchecks.TOL_FLOOR, numchecks.TOL_FLOOR / 2),
}


@pytest.mark.parametrize("name", verify.SUITES)
def test_each_suite_reports_its_checks_at_its_least_bound(name, capsys):
    suite = verify.SUITES[name]
    least, below = _LEAST_BOUND[name]
    with pytest.raises(ValueError):
        suite.run(below)
    code, data = run_json(["verify", name, _option(suite.flag), str(least)], capsys)
    assert code in (0, 1)
    assert list(data["results"]) == [name]
    names = [c["name"] for c in data["checks"]]
    if suite.check is None:
        assert names == [c["name"] for c in data["results"][name]["checks"]] and names
    else:
        assert names == [suite.check]


def test_an_unwritable_report_path_exits_two_before_any_output(tmp_path, capsys):
    for argv in (["points", "cp2", "1"], ["--json", "points", "cp2", "1"]):
        assert cli.main(["--out", str(tmp_path / "missing" / "x.json")] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = captured.err.splitlines()
        assert error.startswith("error: ") and "x.json" in error
    assert cli.main(["--out", str(tmp_path), "points", "cp2", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_a_report_path_is_left_as_it_was_when_the_command_exits_two(tmp_path, capsys):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    assert cli.main(["--out", str(kept), "points", "cp2", "-1"]) == 2
    assert kept.read_text() == "earlier report\n"
    assert cli.main(["--out", str(kept), "points", "cp2", "1"]) == 0
    assert json.loads(kept.read_text())["results"]["count"] == 3
    capsys.readouterr()


def test_a_deeply_nested_instance_file_exits_two_with_one_line(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["points", str(path), "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and "too deeply nested" in error


def _instance_file(tmp_path, polygon):
    return _write_instance(tmp_path, polygon_to_json(polygon))


def test_json_copy_of_cp2_gets_the_polynomial_identity(tmp_path, capsys):
    path = _instance_file(tmp_path, affine.CP2)
    code, data = run_json(["mu2", path, "1", "1", "-1", "0", "1", "0"], capsys)
    assert code == 0
    assert [(c["name"], c["pass"]) for c in data["checks"]] == [
        ("computed", True),
        ("matches_polynomial_identity", True),
    ]
    code, out = run(["mu2", path, "1", "1", "-1", "0", "1", "0"], capsys)
    assert code == 0 and "x * z = y^2 + p" in out


def test_json_copy_of_cp2_renders_a_triangle(tmp_path, capsys):
    path = _instance_file(tmp_path, affine.CP2)
    out = tmp_path / "triangle.svg"
    code, data = run_json(
        ["render", path, "--triangle", "-2", "0", "2", "2", "0", "2", "1", str(out)], capsys
    )
    assert code == 0
    assert data["results"]["triangle"]["bend"] == ["0", "-1/4"]
    assert "mult 2" in out.read_text()


def test_dp6_file_gets_neither_identity_nor_triangle(tmp_path, capsys):
    path = _instance_file(tmp_path, affine.dp6_model((1, 1, 1)))
    code, data = run_json(["mu2", path, "1", "1", "0", "0", "1", "0"], capsys)
    assert code == 0
    assert [c["name"] for c in data["checks"]] == ["computed"]
    code = cli.main(
        ["render", path, str(tmp_path / "x.svg"), "--triangle", "-2", "0", "2", "2", "0", "2", "1"]
    )
    assert code == 2
    assert "cp2 instance only" in capsys.readouterr().err


# -- the README's examples -------------------------------------------------------

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_block(heading, lang):
    """The first ```lang block after the README line `heading`."""
    section = _README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_parse_and_its_instance_is_cp2():
    # parsed, not run: a changed option or positional leaves the README stale
    parser = cli.build_parser()
    block = _readme_block("## CLI", "sh")
    lines = [line for line in block.splitlines() if line.startswith("affinefloer ")]
    assert lines
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    instance = affine.polygon_from_json(json.loads(_readme_block("## CLI", "json")))
    assert affine.validate(instance) == []
    assert instance == affine.CP2
