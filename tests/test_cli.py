import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taylorpade.detcalc as detcalc_mod
import taylorpade.hessian as hessian_mod
import taylorpade.variety as variety_mod
from taylorpade import cli
from taylorpade.fields import PRIMES_62


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
_P20822 = ["-n", "2", "-d", "20", "-e", "8", "-m", "22"]


GOLDEN_RUNS = {
    "survey_e5_t2_s7.json": ["survey", "--e-max", "5", "--trials", "2", "--seed", "7"],
    "survey_e5_t2_s7.csv":
        ["survey", "--e-max", "5", "--trials", "2", "--seed", "7", "--format", "csv"],
    # recorded while every survey case ran all of its trials; the first trial
    # of each case has full rank, so the other four are now skipped
    "survey_e8_t5_s7.json": ["survey", "--e-max", "8", "--trials", "5", "--seed", "7"],
    "hessian_2_5_4_7_t3_s7_full.json":
        ["hessian", *_P547, "--trials", "3", "--seed", "7", "--mode", "full"],
    "hessian_2_5_4_7_t3_s7_essential.json":
        ["hessian", *_P547, "--trials", "3", "--seed", "7", "--mode", "essential"],
    "hessian_2_1_1_2_t3_full.json":
        ["hessian", *_P2112, "--trials", "3", "--mode", "full"],
    "hessian_2_1_1_2_t3_essential.json":
        ["hessian", *_P2112, "--trials", "3", "--mode", "essential"],
    "hessian_2_20_8_22_t1_s7_full.json":
        ["hessian", *_P20822, "--trials", "1", "--seed", "7", "--mode", "full"],
    "hessian_2_20_8_22_t1_s7_essential.json":
        ["hessian", *_P20822, "--trials", "1", "--seed", "7", "--mode", "essential"],
    "defect_2_25_9_27_t4_s7.json":
        ["defect", "-n", "2", "-d", "25", "-e", "9", "-m", "27",
         "--trials", "4", "--seed", "7"],
    # run from the golden directory, so that config.poly is the bare name
    "hessian_poly_perazzo_t3_s7.json":
        ["hessian", "--poly", "perazzo.json", "--trials", "3", "--seed", "7"],
    "defect_3_2_2_3_t4_s7_rational.json":
        ["defect", "-n", "3", "-d", "2", "-e", "2", "-m", "3",
         "--trials", "4", "--seed", "7", "--field", "rational"],
    "defect_2_12_6_14_t4_s7_rational.json":
        ["defect", "-n", "2", "-d", "12", "-e", "6", "-m", "14",
         "--trials", "4", "--seed", "7", "--field", "rational"],
    "defect_2_3_0_4_t4_s7.json":
        ["defect", "-n", "2", "-d", "3", "-e", "0", "-m", "4",
         "--trials", "4", "--seed", "7"],
    # recorded before taylor_coeffs ran on Kronecker keys: a GF(p) gate with
    # n = 3, and a rational one with n = 1
    "defect_3_4_3_6_t4_s7.json":
        ["defect", "-n", "3", "-d", "4", "-e", "3", "-m", "6",
         "--trials", "4", "--seed", "7"],
    "defect_1_3_2_6_t4_s7_rational.json":
        ["defect", "-n", "1", "-d", "3", "-e", "2", "-m", "6",
         "--trials", "4", "--seed", "7", "--field", "rational"],
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_report_matches_golden(name, capsys, monkeypatch):
    # Reports recorded with the list-of-ints GF(p) elimination, before the
    # packed-row kernel, and (the first six) before the full certificate was
    # derived from the essential trials; both changes must reproduce them
    # byte for byte.  (2,20,8,22) eliminates a 185x185 Hessian and 45x45
    # Pade matrices with inverse; (2,25,9,27) a 405x404 Jacobian, the sizes
    # at which rows span thousands of packed bytes.  The last three were
    # recorded while the gate still ranked the Jacobian of the coefficient
    # map: two over Q (one defective) and one with e = 0, where the Pade
    # matrix has no column besides sigma = 0.
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    monkeypatch.chdir(GOLDEN)
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
    argv = ["defect", *_P2112, "--trials", "2"]
    from_env = run_cli(argv, capsys)
    monkeypatch.delenv(cli.SEED_ENV)
    assert from_env == run_cli(argv + ["--seed", "777"], capsys)


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_env_seed_malformed(value, capsys, monkeypatch):
    # argparse's usage error, not a ValueError escaping before main's try,
    # and it names the variable the value came from
    monkeypatch.setenv(cli.SEED_ENV, value)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["shape", *_P2112])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "--seed" in captured.err
    assert "TAYLORPADE_SEED" in captured.err
    # an explicit --seed wins over the malformed variable
    assert cli.main(["shape", *_P2112, "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3


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


@pytest.mark.parametrize("argv", [
    ["shape", *_P547, "--prime", "4"],
    ["export", *_P547, "--prime", "4"],
    ["defect", *_P547, "--field", "rational", "--prime", "4"],
], ids=["shape", "export", "defect-rational"])
def test_prime_must_be_prime(argv, capsys, tmp_path, monkeypatch):
    # Rejected before any command runs, also where it builds no prime field.
    monkeypatch.chdir(tmp_path)
    assert "modulus 4 is not prime" in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flags", [
    (["defect", *_P547, "--field", "rational", "--prime", "7"], "--field rational"),
    (["defect", *_P547, "--field", "rational", "--prime-index", "3"], "--field rational"),
    (["hessian", *_P547, "--prime", "7", "--prime-index", "3"], "--prime-index"),
    (["survey", "--e-max", "5", "--prime", "7", "--prime-index", "3"], "--prime-index"),
], ids=["rational-prime", "rational-prime-index", "hessian-both", "survey-both"])
def test_conflicting_field_options(argv, flags, capsys, tmp_path, monkeypatch):
    # Each used to run with one of the options silently dropped.
    monkeypatch.chdir(tmp_path)
    assert flags in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag", [
    (["hessian", *_P547, "--trials", "1", "--order", "reverse"], "--order"),
    (["survey", "--e-max", "5", "--order", "reverse"], "--order"),
    (["defect", *_P547, "--order", "reverse"], "--order"),
    (["shape", *_P547, "--order", "reverse"], "--order"),
    (["survey", "--e-max", "5", "--mode", "essential"], "--mode"),
    (["defect", *_P547, "--mode", "essential"], "--mode"),
    (["shape", *_P547, "--mode", "essential"], "--mode"),
    (["export", *_P547, "--mode", "essential"], "--mode"),
    (["hessian", "--poly", str(GOLDEN / "perazzo.json"), "--mode", "essential"],
     "--mode"),
    (["survey", "--e-max", "2", "-n", "3", "-d", "9"], "-n, -d, -e or -m"),
    (["survey", "--e-max", "5", "-m", "7"], "-n, -d, -e or -m"),
    (["hessian", "--poly", str(GOLDEN / "perazzo.json"), *_P547], "-n, -d, -e or -m"),
], ids=["hessian-order", "survey-order", "defect-order", "shape-order",
        "survey-mode", "defect-mode", "shape-mode", "export-mode", "poly-mode",
        "survey-params", "survey-m", "poly-params"])
def test_ignored_option_is_refused(argv, flag, capsys, tmp_path, monkeypatch):
    # Each used to run as if the option were absent, yet record it in the
    # report config.
    monkeypatch.chdir(tmp_path)
    assert flag in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


def _count_eliminations(monkeypatch):
    """Return the list that every later ``eliminate`` call appends to."""
    calls = []
    real = detcalc_mod.eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (detcalc_mod, hessian_mod, variety_mod):
        monkeypatch.setattr(mod, "eliminate", counted)
    return calls


@pytest.mark.parametrize("e_max", ["3", "8"], ids=["no-case", "e8"])
def test_survey_rejects_rational_field(e_max, capsys, monkeypatch):
    # --e-max 3 has no case and used to exit 0; --e-max 8 used to run a gate
    # over Q before its first certificate refused the field
    calls = _count_eliminations(monkeypatch)
    argv = ["survey", "--e-max", e_max, "--trials", "1", "--field", "rational"]
    assert "prime field" in _usage_error(argv, capsys)
    assert calls == []


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["survey", "--e-max", "5", "--trials", "1", "--format", "csv"]) == 0
    capsys.readouterr()
    code, out = run_cli(["shape", *_P547], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["e_max"], config["format"]) == (None, "json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    env.pop(cli.SEED_ENV, None)
    fresh = subprocess.run([sys.executable, "-m", "taylorpade", "shape", *_P547],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (fresh.returncode, fresh.stdout) == (0, out)


def test_defect_counts_every_det_trial(capsys):
    # defect keeps all --trials det(P) evaluations; survey and hessian stop
    # at the first nonzero one
    assert cli.main(["defect", *_P547, "--trials", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["det_trials"], payload["det_nonzero_count"]) == (4, 4)


@pytest.mark.parametrize("command", ["export", "shape"])
def test_csv_only_for_survey(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, *_P547, "--format", "csv"]
    assert "csv" in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["pade", "poly"])
def test_hessian_rejects_rational_field(path, tmp_path, capsys, monkeypatch):
    calls = _count_eliminations(monkeypatch)
    if path == "pade":
        argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7"]
    else:
        poly = tmp_path / "fermat3.json"
        fermat = [[[3, 0, 0], 1, 1], [[0, 3, 0], 1, 1], [[0, 0, 3], 1, 1]]
        poly.write_text(json.dumps(fermat))
        argv = ["hessian", "--poly", str(poly)]
    assert "prime field" in _usage_error(argv + ["--field", "rational"], capsys)
    assert calls == []


def test_hessian_exits_2_when_every_sample_is_singular(capsys):
    # at p = 2 the Pade matrix of (2,8,5,10) is singular at all 9 samples of
    # trial 0 for this seed: the trial is refused at once, naming the prime
    start = time.perf_counter()
    argv = ["hessian", "-n", "2", "-d", "8", "-e", "5", "-m", "10",
            "--trials", "3", "--prime", "2", "--seed", "2"]
    err = _usage_error(argv, capsys)
    assert "singular mod 2 at all 9 sampled points" in err
    assert time.perf_counter() - start < 10


def test_pair_without_constant_term_1_exits_2(monkeypatch, capsys):
    # taylor_coeffs refuses a pair with P(0) != 1; the CLI reports it as a
    # one-line usage error
    def bad_pair(params, ctx, seed):
        p, q = real(params, ctx, seed)
        return {**p, (0,) * params.n: 2}, q

    real = variety_mod.random_rational_pair
    monkeypatch.setattr(variety_mod, "random_rational_pair", bad_pair)
    argv = ["defect", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "2"]
    assert "constant term 1" in _usage_error(argv, capsys)


@pytest.mark.parametrize("content", [
    '[[[2, 0], 1, 0]]',  # zero denominator
    '[[[2, 0], 1, 1]',  # malformed JSON
    '[[[2, 0], "x", 1]]',  # non-integer field
    '[[[-1, 3], 1, 1], [[1, 1], 1, 1]]',  # a Laurent term
    None,  # a directory, not a file
], ids=["zero-denominator", "bad-json", "non-integer", "negative-exponent", "directory"])
def test_poly_file_malformed(content, tmp_path, capsys):
    path = tmp_path / "poly.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    _usage_error(["hessian", "--poly", str(path)], capsys)


@pytest.mark.parametrize("target", ["poly", "pade"])
def test_constant_hessian_det_has_zero_bound(target, tmp_path, capsys, schema):
    # x0^2 and the 2x2 Pade matrix of (1,1,1,3) have a constant det(H): its
    # degree bound is 0, and a zero value proves it zero.
    if target == "poly":
        poly = tmp_path / "square.json"
        poly.write_text("[[[2, 0], 1, 1]]")
        argv = ["hessian", "--poly", str(poly)]
    else:
        argv = ["hessian", "-n", "1", "-d", "1", "-e", "1", "-m", "3"]
    code, out = run_cli(argv + ["--trials", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    validate(report, schema)
    cert = report["payload"]["certificate"]
    assert cert["verdict"] == "vanishes-probabilistic"
    assert cert["degree_bound"] == 0
    assert (cert["error_bound"], cert["error_bound_log10"]) == (0.0, None)


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", [
    ["shape", *_P2112],
    ["hessian", *_P2112, "--trials", "1"],
    ["export", *_P2112],
], ids=lambda argv: argv[0])
def test_out_path_unwritable(argv, target, tmp_path, capsys):
    out = tmp_path / "missing" / "report" if target == "missing-parent" else tmp_path
    assert "cannot write" in _usage_error(argv + ["--out", str(out)], capsys)
    assert not (tmp_path / "missing").exists()


def _poly_terms(nvars, exponent, denominator):
    term = st.tuples(
        st.lists(exponent, min_size=nvars, max_size=nvars),
        st.integers(-3, 3),
        denominator,
    ).map(list)
    return st.lists(term, min_size=1, max_size=4).map(json.dumps)


_POLY_TEXT = st.one_of(
    st.sampled_from([
        "[[[2, 0], 1, 1]]",
        "[[[1, 1, 0], 1, 1], [[0, 0, 2], -1, 2]]",
        "[[[3, 0, 0], 1, 1], [[0, 3, 0], 1, 1], [[0, 0, 3], 1, 1]]",
        "[[[1, 0, 0, 2, 0], 1, 1], [[0, 1, 0, 1, 1], 1, 1], [[0, 0, 1, 0, 2], 1, 1]]",
    ]),
    st.integers(1, 4).flatmap(
        lambda k: _poly_terms(k, st.integers(0, 3), st.integers(1, 3))),
    st.integers(0, 3).flatmap(
        lambda k: _poly_terms(k, st.integers(-1, 3), st.integers(-1, 2))),
    st.sampled_from(["", "[]", "{}", "[1, 2]", "[[[1], 1]]", "[[[1], 1, 1], [[1, 1], 1, 1]]"]),
    st.text(max_size=20),
)
# (n, d, e, m) with a square Pade matrix, so that `hessian` reaches a
# certificate more often than random parameters would; (3,2,2,3) is the
# defective one, which the certificate refuses.
_SQUARE_CASES = st.sampled_from(
    [(2, 1, 1, 2), (2, 4, 2, 5), (1, 1, 1, 3), (1, 2, 2, 5), (3, 2, 2, 3)])


def _mostly(draw, valid, everything):
    """Draw from ``valid`` three times in four, else from ``everything``, so
    that most examples get past argument checking."""
    return draw(valid if draw(st.integers(0, 3)) else everything)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [command]
    poly = None
    if command == "hessian" and draw(st.booleans()):
        poly = draw(_POLY_TEXT)
    elif command == "survey":
        argv += ["--e-max", str(_mostly(draw, st.integers(1, 4), st.integers(-1, 4)))]
    else:
        if command == "hessian" and draw(st.booleans()):
            n, d, e, m = draw(_SQUARE_CASES)
        else:
            n = _mostly(draw, st.integers(1, 3), st.integers(0, 3))
            d = draw(st.integers(0, 4))
            e = draw(st.integers(0, 4))
            m = _mostly(draw, st.integers(d + 1, 6), st.integers(0, 6))
        argv += ["-n", str(n), "-d", str(d), "-e", str(e), "-m", str(m)]
    argv += ["--trials", str(_mostly(draw, st.integers(1, 2), st.integers(-2, 2)))]
    argv += ["--seed", str(draw(st.integers(0, 3)))]
    for flag, choices in (("--field", ["prime", "rational"]),
                          ("--mode", ["full", "essential"]),
                          ("--order", ["paper", "reverse"]),
                          ("--format", ["json", "csv"])):
        argv += [flag, _mostly(draw, st.just(choices[0]), st.sampled_from(choices))]
    prime = _mostly(draw, st.none(), st.sampled_from([0, 1, 4, 5, PRIMES_62[0]]))
    if prime is not None:
        argv += ["--prime", str(prime)]
    out = _mostly(draw, st.none(), st.sampled_from(["directory", "missing-parent"]))
    if out == "directory":
        argv += ["--out", "."]
    elif out == "missing-parent":
        argv += ["--out", os.path.join("missing", "report")]
    if draw(st.booleans()):
        argv += ["--expect", draw(st.sampled_from(["square", "defective",
                                                   "vanishes-probabilistic"]))]
    return argv, poly


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_cli_argv_fuzz(case):
    # Valid-choice argv over all five commands: the CLI answers with a
    # report, an --expect mismatch or a one-line usage error, never a
    # traceback.
    argv, poly = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        if poly is not None:
            Path("poly.json").write_text(poly)
            argv = argv + ["--poly", "poly.json"]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
