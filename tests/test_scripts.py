import os
import subprocess
import sys
from pathlib import Path

from taylorpade import cli

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop(cli.SEED_ENV, None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_survey_matches_survey_csv(capsys, monkeypatch):
    script = _run_script("run_survey.py", "--e-max", "5", "--trials", "1")
    assert script.returncode == 0, script.stderr
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli.main(["survey", "--e-max", "5", "--trials", "1", "--format", "csv"]) == 0
    assert script.stdout == capsys.readouterr().out


def test_worked_example_runs():
    script = _run_script("worked_example.py", "--trials", "2")
    assert script.returncode == 0, script.stderr
    assert "hessian [full     ]: vanishes-probabilistic" in script.stdout
    assert "hessian [essential]: nonzero-certified" in script.stdout


def test_worked_example_matches_golden():
    # recorded before the relation check and the polar rank were read from
    # one factorisation of P and the certificate's coranks
    script = _run_script("worked_example.py", "--trials", "2", "--seed", "7")
    assert script.returncode == 0, script.stderr
    assert script.stdout == (ROOT / "tests" / "golden" / "worked_example_t2_s7.txt").read_text()
