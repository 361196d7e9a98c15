"""Digest goldens: the sha256 of stdout and of stderr, and the exit code, of
command lines whose full output no golden file keeps.

    PYTHONPATH=src python tests/digests.py     # rewrite tests/golden/digests.json

``RUNS`` holds the runs to pin: surveys, certificates and gates at seeds,
primes and shapes the full goldens of ``test_cli.GOLDEN_RUNS`` do not cover,
refusals, ``export``, the ``--poly`` route, four runs at p = 2, a prime
below the degree bounds, whose verdicts rest on little or no evidence, and
a gate over GF(p) and over Q at e > d, where P holds c_0 and the gate's
point T = p/q leaves it at 1.  Each
argv runs in-process through ``taylorpade.cli.main``, from a fresh directory
that holds a copy of ``tests/golden/perazzo.json``, so that ``--poly
perazzo.json`` reads it and ``export`` writes there.
``tests/test_digests.py`` checks every entry.  A change that alters output on
purpose regenerates the table with the command above and names the changed
entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "digests.json"

_P547 = ["-n", "2", "-d", "5", "-e", "4", "-m", "7"]
_P20822 = ["-n", "2", "-d", "20", "-e", "8", "-m", "22"]

RUNS = [
    ["survey", "--e-max", "13"],
    ["survey", "--e-max", "9", "--seed", "7", "--trials", "5"],
    ["survey", "--e-max", "8", "--format", "csv"],
    ["survey", "--e-max", "5", "--prime", "547"],
    ["hessian", *_P20822, "--trials", "2", "--seed", "1"],
    ["hessian", *_P20822, "--trials", "2", "--seed", "1", "--mode", "essential"],
    ["hessian", *_P547, "--trials", "3", "--prime", "4611686018427387761"],
    ["hessian", "-n", "1", "-d", "2", "-e", "0", "-m", "3"],
    ["hessian", "--poly", "perazzo.json", "--trials", "3", "--seed", "7", "--prime", "547"],
    ["defect", "-n", "2", "-d", "3", "-e", "0", "-m", "4", "--field", "rational"],
    ["defect", "-n", "1", "-d", "0", "-e", "0", "-m", "1"],
    ["shape", "-n", "3", "-d", "2", "-e", "2", "-m", "3"],
    ["export", *_P547],
    ["export", "-n", "2", "-d", "3", "-e", "5", "-m", "4", "--out", "tall.m2"],
    # refused: a defective case's certificate, and missing parameters
    ["hessian", "-n", "3", "-d", "2", "-e", "2", "-m", "3", "--trials", "2"],
    ["shape"],
    ["shape", "-d", "5", "-e", "4", "-m", "7"],
    ["survey", "--trials", "2"],
    # refused before any case runs: (2,1070,64,1072) has more than MAX_CELLS cells
    ["survey", "--e-max", "64"],
    # at p = 2, below the degree bounds, where a verdict can rest on no evidence
    ["defect", *_P547, "--prime", "2", "--trials", "8", "--seed", "3"],
    ["defect", *_P547, "--prime", "2", "--trials", "4"],
    ["survey", "--e-max", "8", "--prime", "2", "--trials", "2"],
    ["hessian", *_P547, "--prime", "2", "--trials", "2"],
    # e > d, so P holds c_0, which the gate's point T leaves at 1
    ["defect", "-n", "2", "-d", "1", "-e", "3", "-m", "3", "--trials", "2"],
    ["defect", "-n", "2", "-d", "1", "-e", "3", "-m", "3", "--trials", "2", "--field", "rational"],
]


def key(argv) -> str:
    return " ".join(argv)


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of ``taylorpade.cli.main(argv)``."""
    from taylorpade import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err) -> dict:
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return {"exit": code, "stderr": sha(err), "stdout": sha(out)}


@contextlib.contextmanager
def workdir():
    """A fresh current directory holding a copy of ``perazzo.json``."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(GOLDEN / "perazzo.json", tmp)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def main() -> None:
    with workdir():
        table = {key(argv): digest(*run(argv)) for argv in RUNS}
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {len(table)} digests to {TABLE}")


if __name__ == "__main__":
    main()
