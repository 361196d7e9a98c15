"""Workloads of the taylorpade benchmark and the oracle that checks each report.

A workload is a fixed list of CLI commands (ops).  One pass runs every op
once.  Each op receives a ``--seed`` derived from the workload seed, the pass
index and the op's seed slot, so the program sees only generated argv.  Ops
that share a slot share a seed (the two certificate modes of ``certify-e8``).

The oracle pins verdicts that do not depend on the seed: they are properties
of the varieties, not of the sampled points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

VANISHES = "vanishes-probabilistic"
NONZERO = "nonzero-certified"
HYPERSURFACE = "non-defective hypersurface"


def op_seed(workload: str, seed: int, pass_index: int, slot: int) -> int:
    """Per-op ``--seed``: a 31-bit digest of (workload, seed, pass, slot)."""
    blob = f"{workload}/{seed}/{pass_index}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class Op:
    args: tuple
    check: Callable[[dict], list]
    slot: int = 0

    def argv(self, seed: int) -> list:
        return [*self.args, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    # Seconds one measured pass takes, its byte-identity re-run included, on a
    # 2-core x86-64 VM.  It fixes the number of passes for a given --seconds,
    # so every run of a workload times the same mix of ops.
    pass_cost_s: float

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds // self.pass_cost_s))


def _expect(errors: list, what: str, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def check_survey(report: dict) -> list:
    errors = []
    rows = report["payload"]["rows"]
    want = [((5, 4, 7), 6), ((8, 5, 10), 10)]
    _expect(errors, "survey cases", [(r["d"], r["e"], r["m"]) for r in rows],
            [case for case, _ in want])
    for row, (case, rank_m) in zip(rows, want):
        _expect(errors, f"{case} nondefective_hypersurface",
                row["nondefective_hypersurface"], True)
        _expect(errors, f"{case} hessian_full", row["hessian_full"], VANISHES)
        _expect(errors, f"{case} essential_corank", row["essential_corank"], 0)
        _expect(errors, f"{case} rank_M", row["rank_M"], rank_m)
    return errors


def check_certificate(verdict: str, corank: int) -> Callable[[dict], list]:
    def check(report: dict) -> list:
        errors = []
        payload = report["payload"]
        _expect(errors, "verdict", payload["verdict"], verdict)
        coranks = [t["corank"] for t in payload["certificate"]["trials"]]
        _expect(errors, "coranks", coranks, [corank] * len(coranks))
        rel = payload["relations"]
        _expect(errors, "residual_is_zero", rel["residual_is_zero"], True)
        _expect(errors, "rank_M", rel["rank_M"], 28)
        _expect(errors, "rank_bound", rel["rank_bound"], 29)
        return errors

    return check


def check_defect(verdict: str, expected: int, actual: int) -> Callable[[dict], list]:
    def check(report: dict) -> list:
        errors = []
        payload = report["payload"]
        _expect(errors, "verdict", payload["verdict"], verdict)
        _expect(errors, "expected_dimension", payload["expected_dimension"], expected)
        _expect(errors, "actual_dimension", payload["actual_dimension"], actual)
        return errors

    return check


def _params(n, d, e, m) -> tuple:
    return ("-n", str(n), "-d", str(d), "-e", str(e), "-m", str(m))


# (case, verdict, expected dimension, actual dimension)
GATE_CASES = {
    (2, 25, 9, 27): (HYPERSURFACE, 404, 404),
    (2, 8, 5, 10): (HYPERSURFACE, 64, 64),
    (2, 12, 6, 14): ("non-defective", 117, 117),
    (3, 4, 3, 6): ("non-defective", 53, 53),
    (3, 2, 2, 3): ("defective", 18, 17),
}


def _defect_ops(cases, extra: tuple) -> tuple:
    return tuple(
        Op(("defect", *_params(*case), "--trials", "4", *extra),
           check_defect(*GATE_CASES[case]), slot=i)
        for i, case in enumerate(cases)
    )


_CERTIFY = ("hessian", *_params(2, 20, 8, 22), "--trials", "1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey-e5",
            (Op(("survey", "--e-max", "5", "--trials", "4"), check_survey),),
            pass_cost_s=2.4,
        ),
        Workload(
            "certify-e8",
            (
                Op((*_CERTIFY, "--mode", "full"), check_certificate(VANISHES, 91)),
                Op((*_CERTIFY, "--mode", "essential"), check_certificate(NONZERO, 0)),
            ),
            pass_cost_s=21.0,
        ),
        Workload(
            "gate-e9",
            _defect_ops([(2, 25, 9, 27), (2, 12, 6, 14), (3, 4, 3, 6), (3, 2, 2, 3)], ()),
            pass_cost_s=13.5,
        ),
        Workload(
            "exact-q",
            _defect_ops([(2, 8, 5, 10), (2, 12, 6, 14), (3, 4, 3, 6), (3, 2, 2, 3)],
                        ("--field", "rational")),
            pass_cost_s=5.0,
        ),
    )
}


def cases_in(report: dict) -> int:
    """Parameter cases one report covers: a survey row each, else one."""
    payload = report.get("payload", {})
    return len(payload["rows"]) if "columns" in payload else 1
