"""End-to-end CLI behavior: outputs, JSON reports, exit codes, SVG files."""

import json

import pytest

from affinefloer import affine, cli, numchecks


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
    (tmp_path / "INSTANCE.json").write_text(json.dumps(affine.polygon_to_json(affine.dp6_model())))
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
    capsys.readouterr()
    assert code == 0
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
    path.write_text(json.dumps(affine.polygon_to_json(affine.dp6_model((1, 2, 1)))))
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
    data = affine.polygon_to_json(affine.CP2)
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
    data = affine.polygon_to_json(affine.CP2)
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
    data = affine.polygon_to_json(affine.dp6_model())
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


def _instance_file(tmp_path, polygon):
    return _write_instance(tmp_path, affine.polygon_to_json(polygon))


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
