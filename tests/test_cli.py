"""End-to-end CLI behavior: outputs, JSON reports, exit codes, SVG files."""

import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinefloer import affine, cli, numchecks, verify
from support import polygon_to_json, replace


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


_CP2_1E20 = "denominator 100000000000000000000 has 200000000000000000001 columns"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["points", "cp2", "100000000000000000000"], _CP2_1E20),
        (["--json", "points", "cp2", "100000000000000000000"], _CP2_1E20),
        (["points", "dp6", "1", "--widths", "1", "1", "1000000"],
         "denominator 1 has 1000003 columns"),
        (["render", "cp2", "x.svg", "--points", "100000"], "d = 100000 gives 5000150001 points"),
    ],
    ids=["points-cp2-1e20", "json-points-cp2-1e20", "points-dp6-wide", "render-cp2-1e5"],
)
def test_a_listing_above_the_points_cap_exits_two_with_one_line(
    argv, error, tmp_path, monkeypatch, capsys
):
    # the columns of D are refused first, then the points of the listing
    _refuse_column_walks(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}; the cap is {cli.POINTS_CAP}\n"
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
    assert captured.err == f"error: denominator {d} has {columns} columns; the cap is 6\n"


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
        (["mu2", "cp2", "4", "-1", "9", "0", "0", "0"], "denominator must be nonnegative"),
    ],
    ids=["negative-n", "negative-m"],
)
def test_a_negative_denominator_is_left_to_the_product(argv, error, monkeypatch, capsys):
    # cp2 has 9 columns at n = 4; n + m = 9999999 would be far above the cap
    monkeypatch.setattr(cli, "POINTS_CAP", 9)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def test_a_negative_m_is_refused_before_the_table_of_n_is_built(monkeypatch, capsys):
    _refuse_column_walks(monkeypatch)
    assert cli.main(["mu2", "cp2", "600000", "-1", "0", "0", "0", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: denominator must be nonnegative\n"
    assert 600000 not in affine.CP2._columns


def test_mu2_at_a_million_plus_a_million_exits_two_with_one_line(monkeypatch, capsys):
    _refuse_column_walks(monkeypatch)
    assert cli.main(["mu2", "cp2", "1000000", "1000000", "0", "0", "0", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: denominator 2000000 has 4000001 columns; the cap is {cli.POINTS_CAP}"


@pytest.mark.parametrize("n, m", [(3, 1), (1, 3), (10**30, 1)])
def test_render_triangle_above_the_column_cap_exits_two_before_any_column_walk(
    n, m, tmp_path, monkeypatch, capsys
):
    # cp2 has 2d + 1 columns at denominator d; the triangle reads those of
    # n and m, and the one of them above the cap is max(n, m)
    monkeypatch.setattr(cli, "POINTS_CAP", 6)
    _refuse_column_walks(monkeypatch)
    monkeypatch.chdir(tmp_path)
    argv = ["render", "cp2", "x.svg", "--triangle", "0", "0", str(n), "0", "0", str(m), "0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    d = max(n, m)
    assert captured.err == f"error: denominator {d} has {2 * d + 1} columns; the cap is 6\n"
    assert not (tmp_path / "x.svg").exists()


def test_render_triangle_admits_denominators_of_exactly_the_column_cap(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "POINTS_CAP", 5)  # cp2 has 5 columns at d = 2
    monkeypatch.chdir(tmp_path)
    triangle = ["--triangle", "-2", "0", "2", "2", "0", "2", "1"]
    code, data = run_json(["render", "cp2", "x.svg", *triangle], capsys)
    assert code == 0 and all(c["pass"] for c in data["checks"])


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


@pytest.mark.parametrize("name", ["ring", "homotopy", "tropical"])
def test_a_bound_above_the_suite_cap_exits_two_and_the_cap_runs(name, monkeypatch, capsys):
    seen = _record_bounds(monkeypatch)
    suite = verify.SUITES[name]
    assert cli.main(["verify", name, _option(suite.flag), str(suite.cap + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and seen == {}
    (error,) = captured.err.splitlines()
    assert error == (f"error: {_option(suite.flag)} {suite.cap + 1} is above the {name} "
                     f"suite's cap of {suite.cap}")
    assert cli.main(["verify", name, _option(suite.flag), str(suite.cap)]) == 0
    assert seen == {name: suite.cap}
    capsys.readouterr()


def test_verify_all_lowers_each_bound_above_a_cap_to_the_cap(monkeypatch, capsys):
    seen = _record_bounds(monkeypatch)
    argv = ["verify", "all", "--max-degree", "100", "--max-k", "100", "--max", "100"]
    assert cli.main(argv) == 0
    assert seen == {"ring": 13, "homotopy": 12, "tropical": 13, "wrapped": 3, "numeric": 1e-9}
    capsys.readouterr()


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


# sha256 of each suite's `--json verify SUITE` output at its default bound,
# with the `elapsed_seconds` line dropped
_VERIFY_DIGESTS = {
    "ring": "e01a30fe35a1d4f2b6f394ec81c9ce4415057d135d57ae8c444bb40681840569",
    "tropical": "ef36f0be6456f8660930a13859e3809a0f6f15a910bdad413fd2f3c3aec1405d",
    "homotopy": "ecc56352ed946f95a02c8549a00bc37d42ef9e834800bd85e925a38ed411cfca",
    "wrapped": "ffe079f5c9786200b8173fd983d2220f148300d5920b5b833393e0f42c2ad7b1",
}


@pytest.mark.parametrize("name", _VERIFY_DIGESTS)
def test_each_sweep_report_at_its_default_bound_is_pinned(name, capsys):
    code, out = run(["--json", "verify", name], capsys)
    kept = "".join(line for line in out.splitlines(True) if '"elapsed_seconds"' not in line)
    assert (code, hashlib.sha256(kept.encode()).hexdigest()) == (0, _VERIFY_DIGESTS[name])


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


_LIMITED = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python has no int-to-str digit limit"
)


@contextlib.contextmanager
def _int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@_LIMITED
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
def test_a_constant_above_the_int_digit_limit_reaches_stdout(mode, capsys):
    # k = 2 * 1100 between dp6's facets: C(2200, 1100) has 661 digits
    with _int_digit_limit(640):
        code = cli.main([*mode, "mu2", "dp6", "1100", "1100", "3300", "0", "0", "0"])
        assert sys.get_int_max_str_digits() == 640
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    middle = math.comb(2200, 1100)
    if mode:
        terms = json.loads(captured.out)["results"]["product"]["terms"]
        assert {"a": 3300, "i": 1100, "c": middle} in terms and len(terms) == 2201
    else:
        assert f" + {middle}*q_(3300,1100) + " in captured.out


@_LIMITED
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
def test_an_instance_rational_above_the_int_digit_limit_exits_two(mode, tmp_path, capsys):
    data = polygon_to_json(affine.CP2)
    data["eta_min"] = "-" + "1" * 5000 + "/" + "1" * 5000  # -1, in 5 000 digits
    path = _write_instance(tmp_path, data)
    with _int_digit_limit(4300):
        assert cli.main([*mode, "mu2", path, "1", "1", "-1", "0", "1", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: instance key 'eta_min' is malformed")


@_LIMITED
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("command", ["points", "mu2"])
def test_a_denominator_at_the_int_digit_limit_is_refused_by_its_columns(
    command, mode, monkeypatch, capsys
):
    # 640 nines is the longest D that argv parses under a limit of 640; the
    # refused denominator (D, or D + 1 for mu2) or its count has 641 digits
    nines = 10**640 - 1
    argv = ["points", "cp2", str(nines)]
    d = nines
    if command == "mu2":
        argv = ["mu2", "cp2", str(nines), "1", "0", "0", "0", "0"]
        d = nines + 1
    _refuse_column_walks(monkeypatch)
    with _int_digit_limit(640):
        assert cli.main([*mode, *argv]) == 2
        assert sys.get_int_max_str_digits() == 640
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: denominator {d} has {2 * d + 1} columns; the cap is {cli.POINTS_CAP}\n"
    )


# -- the CLI contract as a property -----------------------------------------------

# The integers of one argv: all small, where most commands compute, or
# each small or of any size up to 10^30.
_SMALL = st.integers(0, 3).map(str)
_INTS = st.sampled_from([_SMALL, st.one_of(_SMALL, st.integers(-(10**30), 10**30).map(str))])
# a flag that no command or suite reads, and flags that some do not read
_FOREIGN = st.sampled_from(
    [[], [], [], ["--frobnicate"], ["--max-k", "1"], ["--widths", "1", "1", "1"]]
)
_BOUNDS = st.sampled_from(["-1", "0", "1", "2"])


def _verify_argv(suite, draw):
    """verify SUITE with every bound flag it reads (all of them for `all`),
    each within {-1, 0, 1, 2}, so that no sweep runs at its default."""
    suites = verify.SUITES.values() if suite == "all" else (verify.SUITES[suite],)
    bounds = [[_option(s.flag), draw(_BOUNDS)] for s in suites]
    return ["verify", suite, *(word for bound in bounds for word in bound)]


def _edge_mu2(draw):
    """mu2 on cp2, or on dp6 with random widths, with a the first or last
    column of n's table and b of m's, i = j = 0 and n, m <= 300: where the
    covering count k is largest."""
    n, m = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    if draw(st.booleans()):
        instance, polygon = ["cp2"], affine.CP2
    else:
        widths = draw(st.lists(st.integers(1, 5), min_size=3, max_size=3))
        instance, polygon = ["dp6", "--widths", *map(str, widths)], affine.dp6_model(widths)
    a, b = (
        draw(st.sampled_from([math.ceil(polygon.eta_min * d), math.floor(polygon.eta_max * d)]))
        for d in (n, m)
    )
    return ["mu2", *instance, *map(str, (n, m, a, 0, b, 0))]


def _instances(ints):
    """cp2, dp6 with or without widths, a dp6 copy in a JSON file, a
    malformed file and a missing path; every *.json and *.svg name stands
    for a file of one temporary directory."""
    return st.one_of(
        st.sampled_from([["cp2"], ["dp6"], ["dp6.json"], ["malformed.json"], ["missing.json"]]),
        st.lists(ints, min_size=3, max_size=3).map(lambda widths: ["dp6", "--widths", *widths]),
    )


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["points", "mu2", "mu2-edge", "render", "verify", "numeric"]))
    if command == "mu2-edge":
        argv = _edge_mu2(draw)
    elif command == "verify":
        argv = _verify_argv(draw(st.sampled_from([*verify.SUITES, "all"])), draw)
    elif command == "numeric":
        argv = ["numeric", "--tol", draw(_BOUNDS)]
    else:
        ints = draw(_INTS)
        argv = [command, *draw(_instances(ints))]
        if command == "points":
            argv.append(draw(ints))
        elif command == "mu2":
            argv += draw(st.lists(ints, min_size=6, max_size=6))
        else:
            argv.append("x.svg")
            if draw(st.booleans()):
                argv += ["--points", draw(ints)]
            if draw(st.booleans()):
                argv += ["--triangle", *draw(st.lists(ints, min_size=7, max_size=7))]
    options = [flag for flag in ("--json", "--out") if draw(st.booleans())]
    if "--out" in options:
        options.append("report.json")
    return [*options, *argv, *draw(_FOREIGN)]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "dp6.json").write_text(json.dumps(polygon_to_json(affine.dp6_model())))
    (path / "malformed.json").write_text('{"eta_min": "0", "eta_max": ')
    return path


@settings(derandomize=True, max_examples=300, deadline=2000, database=None)
@given(argv=_argv())
def test_the_cli_contract_holds_for_any_argv(contract_dir, argv):
    # exit 0, 1 or 2 and nothing escapes; exit 2 writes one `error:` line;
    # a --json report parses; exit 0 means every reported check passed
    argv = [str(contract_dir / w) if w.endswith((".json", ".svg")) else w for w in argv]
    report_file = contract_dir / "report.json"
    report_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses an argv by exiting
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
        return
    if "--json" in argv or "--out" in argv:
        text = out.getvalue() if "--json" in argv else report_file.read_text()
        failed = not all(check["pass"] for check in json.loads(text)["checks"])
    else:
        failed = "failed check" in err.getvalue()
    assert failed == (code == 1)


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
