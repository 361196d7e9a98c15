import ast
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


def test_scripts_import_no_private_name():
    # A script uses the package's public surface only; a private name belongs
    # to the package, which may change it without notice.
    private = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("taylorpade"):
                names = [node.module, *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.startswith("taylorpade")]
            else:
                continue
            private += [(path.name, name) for name in names
                        if any(part.startswith("_") for part in name.split("."))]
    assert private == []
