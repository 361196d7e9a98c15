import contextlib
import importlib.util
import io
import json
import os
import re
import resource
import signal
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

import digests
import taylorpade.detcalc as detcalc_mod
import taylorpade.hessian as hessian_mod
import taylorpade.pade as pade_mod
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


def test_schema_matches_the_run_config(schema):
    # additionalProperties: false catches a config field the schema lacks; this
    # also catches a schema property, or version, that the CLI no longer writes
    assert set(schema["properties"]["config"]["properties"]) == set(cli.RunConfig._fields)
    assert schema["properties"]["schema_version"]["const"] == cli.SCHEMA_VERSION


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


_P547 = ["-n", "2", "-d", "5", "-e", "4", "-m", "7"]
_P2112 = ["-n", "2", "-d", "1", "-e", "1", "-m", "2"]


@pytest.mark.parametrize("name", digests.GOLDEN_RUNS)
def test_report_matches_golden(name):
    # Reports recorded with the list-of-ints GF(p) elimination, before the
    # packed-row kernel, and (the first six) before the full certificate was
    # derived from the essential trials; both changes must reproduce them
    # byte for byte.  (2,20,8,22) eliminates a 185x185 Hessian and 45x45
    # Pade matrices with inverse; (2,25,9,27) a 405x404 Jacobian, the sizes
    # at which rows span thousands of packed bytes.  The last three were
    # recorded while the gate still ranked the Jacobian of the coefficient
    # map: two over Q (one defective) and one with e = 0, where the Pade
    # matrix has no column besides sigma = 0.
    assert digests.check(digests.GOLDEN_RUNS[name]) == (digests.GOLDEN / name).read_text()


def test_export_writes_script(tmp_path, capsys, schema, monkeypatch):
    # Not a GOLDEN_RUNS entry: its golden is the script it writes, not its
    # stdout.  Exported twice, to the same bytes.
    name = "pade_2_5_4_7.m2"
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        code, out = run_cli(["export", *_P547, "--out", name], capsys)
        assert code == 0
        report = json.loads(out)
        validate(report, schema)
        assert report["payload"] == {
            "path": name, "rows": 15, "cols": 15, "n_variables": 36, "verdict": "exported"}
        assert (tmp_path / name).read_bytes() == (digests.GOLDEN / name).read_bytes()


def test_out_file_for_json(tmp_path, capsys, schema):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        ["shape", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and out == ""
    validate(json.loads(out_path.read_text()), schema)


def _python_env(base=os.environ):
    """``base`` with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    return env


def test_output_depends_on_argv_alone():
    # Without --seed a run takes seed 0: neither TAYLORPADE_SEED nor str
    # hashing's seed (PYTHONHASHSEED) changes any output.
    clean = {k: v for k, v in os.environ.items()
             if k not in ("TAYLORPADE_SEED", "PYTHONHASHSEED")}
    envs = [{}, {"TAYLORPADE_SEED": "777", "PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "1"}]
    for argv in (["defect", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "2"],
                 ["survey", "--e-max", "5", "--trials", "1"]):
        outs = []
        for extra in envs:
            run = subprocess.run([sys.executable, "-m", "taylorpade", *argv],
                                 capture_output=True, text=True, timeout=60,
                                 env=_python_env({**clean, **extra}))
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["config"]["seed"] == 0


def test_closed_stdout_ends_quietly():
    # A reader that closed the pipe (``| head -c 0``): no traceback, no second
    # error when the interpreter flushes stdout at exit, and an exit code of
    # its own, not 1, the code of an --expect mismatch.
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "taylorpade", "shape", *_P547],
                             stdout=write, stderr=subprocess.PIPE, text=True,
                             env=_python_env(), timeout=60)
    finally:
        os.close(write)
    assert run.returncode == cli.EXIT_CLOSED_STDOUT == 141
    assert "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) <= 1


def test_interrupt_ends_in_one_line(monkeypatch, capsys):
    # Ctrl-C inside a stage: no traceback, one error line, and 130, the
    # status a shell reports for a process that SIGINT ended.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(hessian_mod, "certify_hessian_pade", interrupted)
    code = cli.main(["hessian", *_P547, "--trials", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERRUPTED == 130
    assert (captured.out, captured.err) == ("", "error: interrupted\n")


def test_sigint_ends_a_survey_in_one_line():
    # The same from outside: one SIGINT about 1 s into a run of about 5 s,
    # so that on a fast host too the signal lands mid-run.
    child = subprocess.Popen([sys.executable, "-m", "taylorpade", "survey", "--e-max", "16"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=_python_env())
    try:
        time.sleep(1)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()  # does nothing once the child has exited
    assert (child.returncode, out, err) == (130, "", "error: interrupted\n")


@pytest.mark.parametrize("argv", [
    ["defect", "-n", "x", "-d", "1", "-e", "1", "-m", "2"],
    [],
    ["frobnicate"],
    ["shape", *_P547, "--expect"],
], ids=["not-an-int", "no-command", "unknown-command", "option-without-value"])
def test_malformed_command_line_ends_in_argparse_usage(argv):
    # argparse refuses these before cli.main's handlers run (cli.main raises
    # SystemExit(2)): its usage block, then one "taylorpade ...: error:" line.
    # Their text is argparse's, which may differ between Python versions, so
    # no digest pins it.
    run = subprocess.run([sys.executable, "-m", "taylorpade", *argv], capture_output=True,
                         text=True, env=_python_env(), timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert "Traceback" not in run.stderr
    assert "error:" in run.stderr.splitlines()[-1]


def test_out_of_memory_ends_in_one_line():
    # A P under pade.MAX_CELLS, (3,20,12,32) at 2.2 million cells, about
    # 110 MB, in a child whose address space is capped at 64 MB.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    run = subprocess.run([sys.executable, "-m", "taylorpade", "defect", "-n", "3", "-d", "20",
                          "-e", "12", "-m", "32", "--trials", "1"],
                         capture_output=True, text=True, env=_python_env(), timeout=60,
                         preexec_fn=cap)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command,extra", [("defect", ["--trials", "1"]),
                                           ("hessian", ["--trials", "1"]), ("export", [])])
def test_oversized_pade_matrix_is_refused_before_it_is_built(command, extra, capsys, tmp_path,
                                                             monkeypatch):
    # About 491 million cells: the run used to fill memory building P.
    # shape builds no P and answers.
    monkeypatch.chdir(tmp_path)
    params = ["-n", "3", "-d", "60", "-e", "30", "-m", "90"]
    assert "has 491340080 cells" in _usage_error([command, *params, *extra], capsys)
    assert list(tmp_path.iterdir()) == []
    code, out = run_cli(["shape", *params], capsys)
    payload = json.loads(out)["payload"]
    assert (code, payload["rows"] * payload["cols"]) == (0, 491340080)


def test_survey_refuses_an_oversized_case_before_running_any(capsys, monkeypatch):
    # --e-max 8 ends at (2,20,8,22), 2025 cells, just over a lowered ceiling;
    # the survey refuses it before its first case, (2,5,4,7), runs.
    monkeypatch.setattr(pade_mod, "MAX_CELLS", 2024)
    ran = []
    monkeypatch.setattr(cli, "_run_case", lambda *args: ran.append(args))
    err = _usage_error(["survey", "--e-max", "8"], capsys)
    assert err == ("error: the Pade matrix of (2, 20, 8, 22) has 2025 cells, "
                   "more than the 2024 this package builds\n")
    assert ran == []


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
    ["defect", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "-3"],
    ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "0"],
    ["survey", "--e-max", "5", "--trials", "0"],
], ids=lambda argv: argv[0])
def test_trials_must_be_positive(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert "--trials" in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


_PSI_12, _PSI_13 = "318665857834031151167461", "3317044064679887385961981"


@pytest.mark.parametrize("argv,message", [
    (["defect", *_P547, "--field", "rational", "--prime", "4"], "modulus 4 is not prime"),
    (["hessian", *_P547, "--trials", "2", "--mode", "essential", "--prime", _PSI_12],
     f"modulus {_PSI_12} is not prime"),
    (["survey", "--e-max", "5", "--prime", _PSI_13], f"--prime must be below {_PSI_13}"),
], ids=["defect-rational", "psi12", "psi13"])
def test_prime_must_be_prime(argv, message, capsys, tmp_path, monkeypatch):
    # Rejected before any command runs, also where it builds no prime field.
    # psi_12 is a strong pseudoprime to the bases 2..37, and psi_13 to 2..41,
    # where the primality test stops being exact.
    calls = _count_eliminations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert message in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []
    assert calls == []


@pytest.mark.parametrize("argv,flags", [
    (["defect", *_P547, "--field", "rational", "--prime", "7"], "--field rational"),
], ids=["rational-prime"])
def test_conflicting_field_options(argv, flags, capsys, tmp_path, monkeypatch):
    # It used to run with --prime silently dropped.
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
    (["hessian", "--poly", str(digests.GOLDEN / "perazzo.json"), "--mode", "essential"],
     "--mode"),
    (["survey", "--e-max", "2", "-n", "3", "-d", "9"], "-n"),
    (["survey", "--e-max", "5", "-m", "7"], "-m"),
    (["hessian", "--poly", str(digests.GOLDEN / "perazzo.json"), *_P547], "-n, -d, -e or -m"),
], ids=["hessian-order", "survey-order", "defect-order", "shape-order",
        "survey-mode", "defect-mode", "shape-mode", "export-mode", "poly-mode",
        "survey-params", "survey-m", "poly-params"])
def test_ignored_option_is_refused(argv, flag, capsys, tmp_path, monkeypatch):
    # Each used to run as if the option were absent, yet record it in the
    # report config.  hessian declares --mode and -n, -d, -e, -m, but --poly
    # reads none of them; test_undeclared_option_is_refused covers every
    # option a command does not declare.
    monkeypatch.chdir(tmp_path)
    assert flag in _usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["shape", "-d", "5", "-e", "4", "-m", "7"], "this command needs -n, -d, -e and -m"),
    (["survey", "--trials", "2"], "survey needs --e-max"),
    (["hessian", "--poly", "poly.json", "--prime", "3"], "denominator divisible by p=3"),
], ids=["shape-without-n", "survey-without-e-max", "poly-denominator-mod-p"])
def test_missing_or_unusable_input_is_refused(argv, message, capsys, tmp_path, monkeypatch):
    # x0^2/3 + x1^2 has no image in GF(3)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text("[[[2, 0], 1, 3], [[0, 2], 1, 1]]")
    assert message in _usage_error(argv, capsys)


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
    assert "--field" in _usage_error(argv, capsys)
    assert calls == []


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", readme, re.MULTILINE))
    assert table == {command: " ".join(flags) for command, flags in cli.OPTIONS.items()}


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["survey", "--e-max", "5", "--trials", "1", "--format", "csv"]) == 0
    capsys.readouterr()
    code, out = run_cli(["shape", *_P547], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["e_max"], config["format"]) == (None, "json")
    for module in ("taylorpade", "taylorpade.cli"):
        fresh = subprocess.run([sys.executable, "-m", module, "shape", *_P547],
                               capture_output=True, text=True, env=_python_env(), timeout=60)
        assert (fresh.returncode, fresh.stdout) == (0, out)


def test_cli_starts_without_modules_no_verdict_reads():
    # Every run imports the CLI first.  dataclasses pulls in inspect, fractions
    # pulls in decimal, csv serves only --format csv and hashlib loads OpenSSL;
    # -S keeps site's own imports out of the count.
    code = "import sys, taylorpade.cli as c; c.build_parser(); print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "csv"}
    if any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")):
        heavy.add("_hashlib")
    assert heavy.isdisjoint(run.stdout.split())


def test_defect_counts_every_det_trial(capsys):
    # defect keeps all --trials det(P) evaluations; survey and hessian stop
    # at the first nonzero one
    assert cli.main(["defect", *_P547, "--trials", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["det_trials"], payload["det_nonzero_count"]) == (4, 4)


# A value to follow each option, so that the refusal names both.
_VALUES = {
    "-n": "2", "-d": "5", "-e": "4", "-m": "7", "--e-max": "5", "--trials": "0",
    "--seed": "9", "--prime": "4", "--prime-index": "3", "--field": "rational",
    "--mode": "essential", "--order": "reverse", "--format": "csv",
    "--poly": str(digests.GOLDEN / "perazzo.json"),
}
_UNDECLARED = [(command, flag) for command, flags in cli.OPTIONS.items()
               for flag in _VALUES if flag not in flags]


@pytest.mark.parametrize("command,flag", _UNDECLARED,
                         ids=[c + f for c, f in _UNDECLARED])
def test_undeclared_option_is_refused(command, flag, capsys, tmp_path, monkeypatch):
    # Each used to run as if the option were absent, yet record it in the
    # report config: shape and export with --trials, --seed, --prime or
    # --field, survey with -n or -m, and every command but hessian with --mode.
    calls = _count_eliminations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    base = ["survey", "--e-max", "5"] if command == "survey" else [command, *_P547]
    err = _usage_error([*base, flag, _VALUES[flag]], capsys)
    assert f"{command} takes no {flag} {_VALUES[flag]}" in err
    assert list(tmp_path.iterdir()) == []
    assert calls == []


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
    assert "--field" in _usage_error(argv + ["--field", "rational"], capsys)
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
    '[[[1, 2.9, 0], 1, 1], [[0, 1, 2], 1, 1], [[0, 0, 3], 1, 1]]',
    '[[[1, 2, 0], 1, 1], [[0, 1, 2], 2.7, 1], [[0, 0, 3], 1, 1]]',
    '[[[1, 2, 0], 1, 1], [[0, 1, 2], 1, 1], [[0, 0, 3], true, 1]]',
    '[[[1, 0], 1]]',  # a term without its denominator
    '[[[2, 0], 1, 1], [[1], 1, 1]]',  # exponent vectors of two lengths
], ids=["zero-denominator", "bad-json", "non-integer", "negative-exponent", "directory",
        "float-exponent", "float-coefficient", "bool-coefficient", "two-entry-term",
        "mixed-lengths"])
def test_poly_file_malformed(content, tmp_path, capsys):
    # a float or a boolean used to be truncated by int() and run
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
    """(argv, poly text, undeclared flag): three draws in four take options
    from ``cli.OPTIONS[command]`` only, the fourth adds one it does not."""
    command = draw(st.sampled_from(sorted(cli.OPTIONS)))
    declared = cli.OPTIONS[command]
    argv = [command]
    poly = None
    if "--poly" in declared and draw(st.booleans()):
        poly = draw(_POLY_TEXT)
    elif "--e-max" in declared:
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
    if "--trials" in declared:
        argv += ["--trials", str(_mostly(draw, st.integers(1, 2), st.integers(-2, 2)))]
    if "--seed" in declared:
        argv += ["--seed", str(draw(st.integers(0, 3)))]
    for flag, choices in (("--field", ["prime", "rational"]),
                          ("--mode", ["full", "essential"]),
                          ("--format", ["json", "csv"])):
        if flag in declared:
            argv += [flag, _mostly(draw, st.just(choices[0]), st.sampled_from(choices))]
    prime = _mostly(draw, st.none(), st.sampled_from([0, 1, 4, 5, PRIMES_62[0]]))
    if prime is not None and "--prime" in declared:
        argv += ["--prime", str(prime)]
    out = _mostly(draw, st.none(), st.sampled_from(["directory", "missing-parent"]))
    if out == "directory":
        argv += ["--out", "."]
    elif out == "missing-parent":
        argv += ["--out", os.path.join("missing", "report")]
    if draw(st.booleans()):
        argv += ["--expect", draw(st.sampled_from(["square", "defective",
                                                   "vanishes-probabilistic"]))]
    undeclared = _mostly(draw, st.none(), st.sampled_from(
        sorted(flag for flag in _VALUES if flag not in declared)))
    if undeclared is not None:
        argv += [undeclared, _VALUES[undeclared]]
    return argv, poly, undeclared


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_cli_argv_fuzz(case):
    # Argv over all five commands: the CLI answers with a report, an
    # --expect mismatch or a one-line usage error, never a traceback, and an
    # option its command does not declare is always a usage error.
    argv, poly, undeclared = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        if poly is not None:
            Path("poly.json").write_text(poly)
            argv = argv + ["--poly", "poly.json"]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if undeclared is not None:
        assert code == 2
        assert f"takes no {undeclared} " in stderr.getvalue()
