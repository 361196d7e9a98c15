"""The one table of pinned command-line runs: the exit code and the sha256 of
stdout and of stderr of each argv, and of each file it writes, in
``tests/golden/digests.json``.

    PYTHONPATH=src python tests/digests.py     # regenerate every pin

Its keys are the argv of ``GOLDEN_RUNS``, each of which maps a file of
``tests/golden`` that keeps that run's stdout byte for byte, then those of
``RUNS``, pinned by digest alone: surveys, certificates and gates at seeds,
primes and shapes no golden file covers, refusals, ``export``, the ``--poly``
route, four runs at p = 2, a prime below the degree bounds, whose verdicts
rest on little or no evidence, a gate over GF(p) and over Q at e > d, where
P holds c_0 and the gate's point T = p/q leaves it at 1, and the largest
certificate.  Every argv runs in-process through ``taylorpade.cli.main``
inside ``workdir()``, a fresh directory holding a copy of
``tests/golden/perazzo.json``, so that ``--poly perazzo.json`` reads it and
``export`` writes there; ``tests/reach.py`` replays each in a fresh process.
The command above runs each argv once, rewrites the table and the golden
files, and prints the entries and files whose bytes changed, which a change
that alters output on purpose names in CHANGES.md.

    PYTHONPATH=src python tests/digests.py --deep

does the same for ``DEEP``, the deep list, pinned in ``tests/golden/deep.json``:
runs at the paper's family up to e = 21, past every size the table reaches,
that take minutes, so tier-1 runs none of them.  Then it checks that
independent routes agree at those sizes (``deep_checks``): the trace-route
probe of the packed K, the symmetric body against the general body, and the
two e = 21 gates, over GF(p) and over Q.  It prints each run's and each
check's time as it ends, then the same last line, with a ``failed:`` line
before it for each check that fails, and then exits 1.  A change to
``detcalc``, ``pade`` or ``variety`` runs it; ``python tests/reach.py deep``
replays the same runs in fresh processes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
import time
from itertools import repeat
from operator import add, mul
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "digests.json"
DEEP_TABLE = GOLDEN / "deep.json"

_P547 = ["-n", "2", "-d", "5", "-e", "4", "-m", "7"]
_P2112 = ["-n", "2", "-d", "1", "-e", "1", "-m", "2"]
_P20822 = ["-n", "2", "-d", "20", "-e", "8", "-m", "22"]

GOLDEN_RUNS = {
    "shape_2_5_4_7.json": ["shape", *_P547],
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
    # a certificate at a small prime, 547: the relation check reads trial 0,
    # where P is invertible (a trial resamples until it is), and rank_M
    # reads 28, its generic value
    "hessian_2_20_8_22_t1_s280_p547_essential.json":
        ["hessian", *_P20822, "--prime", "547", "--trials", "1", "--seed", "280",
         "--mode", "essential"],
    "defect_2_25_9_27_t4_s7.json":
        ["defect", "-n", "2", "-d", "25", "-e", "9", "-m", "27",
         "--trials", "4", "--seed", "7"],
    # the workdir holds perazzo.json, so that config.poly is the bare name
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
    # recorded when every rank and det over Q ran Bareiss over Fractions
    # (about 1.3 s and 15 s); ranks over Q are now certified mod primes
    "defect_2_25_9_27_t4_s7_rational.json":
        ["defect", "-n", "2", "-d", "25", "-e", "9", "-m", "27",
         "--trials", "4", "--seed", "7", "--field", "rational"],
    "defect_2_43_12_45_t1_s7_rational.json":
        ["defect", "-n", "2", "-d", "43", "-e", "12", "-m", "45",
         "--trials", "1", "--seed", "7", "--field", "rational"],
}

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
    # the largest certificate pinned: one essential trial on (2,43,12,45), nonzero-certified
    ["hessian", "-n", "2", "-d", "43", "-e", "12", "-m", "45", "--trials", "1", "--mode", "essential"],
    # --expect met (exit 0) and missed (exit 1, one stderr line), and a report
    # written to --out in the workdir, with nothing on stdout
    ["shape", *_P547, "--expect", "square"],
    ["defect", *_P547, "--trials", "1", "--expect", "defective"],
    ["shape", *_P547, "--out", "shape.json"],
]

ARGVS = [*GOLDEN_RUNS.values(), *RUNS]  # the table's keys, in order

_P12421 = ["-n", "2", "-d", "124", "-e", "21", "-m", "126"]

# The deep list: N up to 253, V up to 2668, the 10- and 18-byte K slots
# (from e = 21), a 62-bit certificate past V = 553 and rank_rational past
# (2,43,12,45).  About 4 minutes in all on a 2-core VM.
DEEP = [
    ["survey", "--e-max", "21"],
    ["defect", *_P12421, "--trials", "1"],
    ["defect", *_P12421, "--trials", "1", "--field", "rational"],
    ["hessian", "-n", "2", "-d", "74", "-e", "16", "-m", "76", "--trials", "1",
     "--mode", "essential"],
    ["hessian", *_P12421, "--trials", "1", "--mode", "essential"],
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


def digest(code, out, err, files=None) -> dict:
    """The pin of a run: its exit code, the sha256 of stdout and of stderr,
    and, if it wrote any, ``files`` as ``written()`` gives them."""
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    pin = {"exit": code, "stderr": sha(err), "stdout": sha(out)}
    return {**pin, "files": files} if files else pin


def written() -> dict:
    """File name -> sha256 of its bytes, for each file in the current
    directory but an unchanged copy of ``perazzo.json``: what a run in a
    ``workdir()`` wrote there."""
    files = {path.name: path.read_bytes() for path in sorted(Path().iterdir())}
    if files.get("perazzo.json") == (GOLDEN / "perazzo.json").read_bytes():
        del files["perazzo.json"]
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


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


def check(argv) -> str:
    """Assert that ``argv``, run in a fresh ``workdir()``, matches its entry."""
    with workdir():
        code, out, err = run(argv)
        files = written()
    assert digest(code, out, err, files) == json.loads(TABLE.read_text())[key(argv)], (
        f"exit {code}\n--- stdout ---\n{out}--- stderr ---\n{err}--- files ---\n{files}")
    return out


def _write(path, text) -> bool:
    """Give ``path`` the bytes of ``text``; whether they changed."""
    changed = not path.exists() or path.read_bytes() != text.encode()
    path.write_bytes(text.encode())
    return changed


def _log(start, what):
    print(f"{time.perf_counter() - start:8.1f} s  {what}", flush=True)


def regenerate(path, named_runs, log=False, outputs=None) -> list:
    """Run each (golden file name or None, argv) once in a fresh ``workdir()``,
    rewrite the table at ``path`` and the golden files, and return the names
    of the entries and files whose bytes changed.  ``outputs``, if given,
    gains each run's stdout under its key."""
    old, table, changed = json.loads(path.read_text()) if path.exists() else {}, {}, []
    for name, argv in named_runs:
        start = time.perf_counter()
        with workdir():
            code, out, err = run(argv)
            table[key(argv)] = digest(code, out, err, written())
        if log:
            _log(start, key(argv))
        if outputs is not None:
            outputs[key(argv)] = out
        if name and _write(GOLDEN / name, out):
            changed.append(name)
    _write(path, json.dumps(table, indent=2) + "\n")
    return changed + [f"entry {k}" for k in {**old, **table} if old.get(k) != table.get(k)]


# The cases of the deep list's trace-route probes, each over both default
# primes: K's slots are 9 and 17 bytes at e = 16, 10 and 18 at e = 21.
DEEP_PROBES = [(2, 74, 16, 76), (2, 124, 21, 126)]
# The gate fields compared between the deep list's two e = 21 defect runs.
GATE_FIELDS = ["expected_dimension", "actual_dimension", "det_trials",
               "det_nonzero_count", "verdict"]


def _packed_Kw(packed, w, p) -> dict:
    """K.w over GF(p) read off the packed upper-triangle rows ``(rows,
    size, order)`` of ``detcalc._hessian_core``, one row at a time: row k
    adds its slots against w to entry k and its slot j times w_k to entry j,
    so the full K is never held."""
    from taylorpade.detcalc import _unpack

    rows, size, order = packed
    ws = [w[g] for g in order]
    out = [0] * len(rows)
    for k, row in enumerate(rows):
        xs = _unpack(row, len(rows) - k, size)
        out[k] += sum(map(mul, xs, ws[k:]))
        out[k + 1:] = map(add, out[k + 1:], map(mul, xs[1:], repeat(ws[k])))
    return {g: x % p for g, x in zip(order, out)}


def deep_checks(outputs) -> list:
    """Check that independent routes agree at the deep list's sizes, and
    return what failed.  At each case of ``DEEP_PROBES`` over
    ``SURVEY_PRIME`` and ``PRIMES_62[0]``, P is factored at a seeded point
    and K assembled: its product with a uniform w must equal
    ``oracles.trace_route_Kw`` (Freivalds' check).  At the first case over
    ``SURVEY_PRIME``, the symmetric body's (rank, det) of the packed K and
    of the unpacked K, repacked, must equal the general body's on the
    unpacked K.  ``outputs`` holds the deep list's stdout by key: its two
    e = 21 gates must agree in every field of ``GATE_FIELDS``."""
    from oracles import pack_symmetric, trace_route_Kw, unpack_hessian
    from taylorpade.detcalc import _eliminate_symmetric, _hessian_core, eliminate
    from taylorpade.fields import PRIMES_62, SURVEY_PRIME, PrimeField, derive_seed
    from taylorpade.pade import pade_matrix

    failed = []
    for case in DEEP_PROBES:
        P = pade_matrix(*case)
        labels = P.variables()
        for prime in (SURVEY_PRIME, PRIMES_62[0]):
            start, name = time.perf_counter(), f"probe {case} mod {prime}"
            field = PrimeField(prime)
            rng = random.Random(derive_seed("deep probe", case, prime))
            fac = None
            while fac is None or not fac.det:
                point = {g: field.sample(rng) for g in labels}
                fac = eliminate(P.evaluate(point), field, inverse=True)
            packed = _hessian_core(fac.inverse, P.occurrences(), labels, prime)
            w = {g: field.sample(rng) for g in labels}
            if _packed_Kw(packed, w, prime) != trace_route_Kw(P, fac, w, prime):
                failed.append(name)
            _log(start, name)
            if case == DEEP_PROBES[0] and prime == SURVEY_PRIME:
                start, name = time.perf_counter(), f"symmetric body = general body {case}"
                K = unpack_hessian(labels, packed, prime)
                general = eliminate(K, field)
                want = (general.rank, general.det)
                if (_eliminate_symmetric(*packed[:2], prime) != want
                        or _eliminate_symmetric(*pack_symmetric(K, prime), prime) != want):
                    failed.append(name)
                _log(start, name)
    gate = key(["defect", *_P12421, "--trials", "1"])
    over = {field: json.loads(outputs[gate + suffix])["payload"]
            for field, suffix in (("GF(p)", ""), ("Q", " --field rational"))}
    if any(over["GF(p)"][f] != over["Q"][f] for f in GATE_FIELDS):
        failed.append(f"the e = 21 gates over GF(p) and Q: {over}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the pinned runs.")
    parser.add_argument("--deep", action="store_true", help="the deep list instead")
    failed = []
    if parser.parse_args(argv).deep:
        outputs = {}
        changed = regenerate(DEEP_TABLE, [(None, argv) for argv in DEEP], log=True,
                             outputs=outputs)
        failed = deep_checks(outputs)
    else:
        changed = regenerate(TABLE, [*GOLDEN_RUNS.items(), *((None, argv) for argv in RUNS)])
    for what in failed:
        print(f"failed: {what}")
    print("\n".join(f"changed: {what}" for what in changed) or "nothing changed")
    return int(bool(failed))


if __name__ == "__main__":
    raise SystemExit(main())
