import json
import os
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from taylorpade import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def schema():
    text = resources.files("taylorpade").joinpath("report_schema.json").read_text()
    return json.loads(text)


def validate(report, schema):
    jsonschema.validate(report, schema)


def test_shape_report(capsys, schema):
    code, out = run_cli(["shape", "-n", "2", "-d", "5", "-e", "4", "-m", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    validate(report, schema)
    payload = report["payload"]
    assert (payload["rows"], payload["cols"]) == (15, 15)
    assert payload["square"] is True
    assert payload["ambient_projective_dim"] == 35
    assert report["annotations"]  # the golden-layout note rides along


def test_shape_3223(capsys, schema):
    code, out = run_cli(["shape", "-n", "3", "-d", "2", "-e", "2", "-m", "3"], capsys)
    report = json.loads(out)
    validate(report, schema)
    assert (report["payload"]["rows"], report["payload"]["cols"]) == (10, 10)
    assert report["payload"]["ambient_projective_dim"] == 19


def test_shape_2112(capsys, schema):
    code, out = run_cli(["shape", "-n", "2", "-d", "1", "-e", "1", "-m", "2"], capsys)
    report = json.loads(out)
    validate(report, schema)
    assert (report["payload"]["rows"], report["payload"]["cols"]) == (3, 3)
    assert any("P^5" in note for note in report["annotations"])


def test_defect_3223(capsys, schema):
    code, out = run_cli(
        ["defect", "-n", "3", "-d", "2", "-e", "2", "-m", "3", "--trials", "3",
         "--expect", "defective"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    validate(report, schema)
    assert report["payload"]["actual_dimension"] == 17
    assert report["payload"]["expected_dimension"] == 18


def test_defect_smoke_1_1_1_2(capsys, schema):
    code, out = run_cli(
        ["defect", "-n", "1", "-d", "1", "-e", "1", "-m", "2", "--trials", "2"], capsys
    )
    assert code == 0
    validate(json.loads(out), schema)


def test_expect_mismatch_exit_code(capsys):
    code, _ = run_cli(
        ["shape", "-n", "2", "-d", "5", "-e", "4", "-m", "7",
         "--expect", "rectangular"],
        capsys,
    )
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(["shape", "-n", "2", "-d", "5", "-e", "4", "-m", "4"], capsys)
    assert code == 2


def test_hessian_pade_report(capsys, schema):
    code, out = run_cli(
        ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--mode", "full",
         "--trials", "3", "--expect", "vanishes-probabilistic"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    validate(report, schema)
    cert = report["payload"]["certificate"]
    assert cert["degree_bound"] == 468
    assert report["payload"]["relations"]["residual_is_zero"] is True
    assert report["payload"]["relations"]["rank_M"] < 7


def test_hessian_poly_report(tmp_path, capsys, schema):
    poly = [
        [[1, 0, 0, 2, 0], 1, 1],
        [[0, 1, 0, 1, 1], 1, 1],
        [[0, 0, 1, 0, 2], 1, 1],
    ]
    path = tmp_path / "perazzo.json"
    path.write_text(json.dumps(poly))
    code, out = run_cli(
        ["hessian", "--poly", str(path), "--trials", "5",
         "--expect", "vanishes-probabilistic"],
        capsys,
    )
    assert code == 0
    validate(json.loads(out), schema)


def test_hessian_poly_fermat_nonzero(tmp_path, capsys):
    poly = [[[3, 0, 0], 1, 1], [[0, 3, 0], 1, 1], [[0, 0, 3], 1, 1]]
    path = tmp_path / "fermat3.json"
    path.write_text(json.dumps(poly))
    code, _ = run_cli(
        ["hessian", "--poly", str(path), "--trials", "5",
         "--expect", "nonzero-certified"],
        capsys,
    )
    assert code == 0


def test_poly_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, _ = run_cli(["hessian", "--poly", str(bad)], capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _ = run_cli(["hessian", "--poly", str(missing)], capsys)
    assert code == 2


def test_reports_are_byte_identical(capsys):
    argv = ["defect", "-n", "2", "-d", "1", "-e", "1", "-m", "2", "--trials", "3",
            "--seed", "9"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2


def test_survey_csv_e_max_1(capsys):
    code, out = run_cli(["survey", "--e-max", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [",".join(cli.SURVEY_COLUMNS)]


def test_survey_csv_e_max_4(capsys):
    code, out = run_cli(
        ["survey", "--e-max", "4", "--trials", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[:4] == ["5", "4", "7", "15"]
    assert row[4] == "True"
    assert row[5] == "vanishes-probabilistic"


def test_survey_json_e_max_5(capsys, schema):
    code, out = run_cli(["survey", "--e-max", "5", "--trials", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    validate(report, schema)
    rows = report["payload"]["rows"]
    cases = [(r["d"], r["e"], r["m"]) for r in rows]
    assert cases == [(5, 4, 7), (8, 5, 10)]
    for row, rank_M in zip(rows, (6, 10)):
        assert row["nondefective_hypersurface"] is True
        assert row["hessian_full"] == "vanishes-probabilistic"
        assert row["essential_corank"] == 0
        assert row["rank_M"] == rank_M


GOLDEN = Path(__file__).parent / "golden"
_P547 = ["-n", "2", "-d", "5", "-e", "4", "-m", "7"]
_P2112 = ["-n", "2", "-d", "1", "-e", "1", "-m", "2"]


GOLDEN_RUNS = {
    "survey_e5_t2_s7.json": ["survey", "--e-max", "5", "--trials", "2", "--seed", "7"],
    "survey_e5_t2_s7.csv":
        ["survey", "--e-max", "5", "--trials", "2", "--seed", "7", "--format", "csv"],
    "hessian_2_5_4_7_t3_s7_full.json":
        ["hessian", *_P547, "--trials", "3", "--seed", "7", "--mode", "full"],
    "hessian_2_5_4_7_t3_s7_essential.json":
        ["hessian", *_P547, "--trials", "3", "--seed", "7", "--mode", "essential"],
    "hessian_2_1_1_2_t3_full.json":
        ["hessian", *_P2112, "--trials", "3", "--mode", "full"],
    "hessian_2_1_1_2_t3_essential.json":
        ["hessian", *_P2112, "--trials", "3", "--mode", "essential"],
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_report_matches_golden(name, capsys, monkeypatch):
    # Reports recorded before the full certificate was derived from the
    # essential trials; the derivation must reproduce them byte for byte.
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    code, out = run_cli(GOLDEN_RUNS[name], capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_export_writes_script(tmp_path, capsys, schema):
    out_path = tmp_path / "pade.m2"
    code, out = run_cli(
        ["export", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    validate(json.loads(out), schema)
    script = out_path.read_text()
    assert "c_(7,0)" in script
    # export twice: identical bytes
    run_cli(
        ["export", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--out", str(out_path)],
        capsys,
    )
    assert out_path.read_text() == script


def test_out_file_for_json(tmp_path, capsys, schema):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        ["shape", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and out == ""
    validate(json.loads(out_path.read_text()), schema)


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "777")
    code, out = run_cli(["shape", "-n", "2", "-d", "1", "-e", "1", "-m", "2"], capsys)
    assert json.loads(out)["config"]["seed"] == 777


def _usage_error(argv, capsys):
    """Run argv and return stderr, asserting exit 2 with one error line."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("argv", [
    ["shape", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "0"],
    ["defect", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "-3"],
    ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "0"],
    ["survey", "--e-max", "5", "--trials", "0"],
    ["export", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "0"],
], ids=lambda argv: argv[0])
def test_trials_must_be_positive(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert "--trials" in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["pade", "poly"])
def test_hessian_rejects_rational_field(path, tmp_path, capsys):
    if path == "pade":
        argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7"]
    else:
        poly = tmp_path / "fermat3.json"
        fermat = [[[3, 0, 0], 1, 1], [[0, 3, 0], 1, 1], [[0, 0, 3], 1, 1]]
        poly.write_text(json.dumps(fermat))
        argv = ["hessian", "--poly", str(poly)]
    assert "prime field" in _usage_error(argv + ["--field", "rational"], capsys)


@pytest.mark.parametrize("content", [
    '[[[2, 0], 1, 0]]',  # zero denominator
    '[[[2, 0], 1, 1]',  # malformed JSON
    '[[[2, 0], "x", 1]]',  # non-integer field
    None,  # a directory, not a file
], ids=["zero-denominator", "bad-json", "non-integer", "directory"])
def test_poly_file_malformed(content, tmp_path, capsys):
    path = tmp_path / "poly.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    _usage_error(["hessian", "--poly", str(path)], capsys)
