"""Command-line surface: reproducible seeded runs with machine-readable reports.

Subcommands: ``shape`` (counts and squareness), ``defect`` (expected vs actual
dimension), ``hessian`` (vanishing certificates for Pade determinants or
explicit polynomials), ``survey`` (the whole pipeline over the square family),
``export`` (Macaulay2 cross-check script).

Reports are deterministic: the same command line and seed produce byte
identical output.  ``--expect VERDICT`` turns the process exit code into an
assertion for CI pipelines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import hessian as hess
from .errors import DomainError, UsageError
from .fields import PRIMES_62, PrimeField, Rationals, derive_seed, random_point
from .pade import export_m2, pade_matrix
from .series import SparsePoly
from .variety import (
    TaylorParams,
    expected_dimension,
    nondefective_hypersurface_check,
    square_family,
)

SCHEMA_VERSION = 1
SEED_ENV = "TAYLORPADE_SEED"
GATE_TRIALS = 8


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    d: int | None = None
    e: int | None = None
    m: int | None = None
    poly: str | None = None
    e_max: int | None = None
    trials: int = 20
    seed: int = 0
    prime: int | None = None
    prime_index: int | None = None
    field: str = "prime"
    mode: str = "full"
    order: str = "paper"
    format: str = "json"
    out: str | None = None
    expect: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError(f"--trials must be >= 1, got {self.trials}")
        if self.format == "csv" and self.command != "survey":
            raise UsageError("csv format is only available for survey reports")
        if self.prime is not None:
            PrimeField(self.prime)  # raises UsageError unless prime
        if self.prime is not None and self.prime_index is not None:
            raise UsageError("give --prime or --prime-index, not both")
        if self.field == "rational" and (self.prime, self.prime_index) != (None, None):
            raise UsageError("--field rational takes no --prime or --prime-index")
        if self.order == "reverse" and self.command != "export":
            raise UsageError("--order reverse is read only by export")
        if self.mode == "essential" and (self.command, self.poly) != ("hessian", None):
            raise UsageError("--mode essential is read only by hessian without --poly")
        if (self.command == "survey" or self.poly is not None) and (
                self.n, self.d, self.e, self.m) != (None,) * 4:
            raise UsageError("survey and hessian --poly take no -n, -d, -e or -m")
        if self.field == "rational" and self.command in ("hessian", "survey"):
            raise UsageError(
                f"{self.command} takes no --field rational: a certificate needs a "
                "prime field, as its error bound multiplies degree_bound/p"
            )

    def params(self) -> TaylorParams:
        if None in (self.n, self.d, self.e, self.m):
            raise UsageError("this command needs -n, -d, -e and -m")
        return TaylorParams(self.n, self.d, self.e, self.m)

    def context(self):
        if self.field == "rational":
            return Rationals()
        if self.prime is not None:
            return PrimeField(self.prime)
        if self.prime_index is not None:
            return PrimeField(PRIMES_62[self.prime_index % len(PRIMES_62)])
        return None  # rotate through the builtin list where supported

    def fixed_context(self):
        return self.context() or PrimeField(PRIMES_62[0])


def known_annotations(params: TaylorParams | None) -> list:
    """Documented discrepancies attached to specific parameter values."""
    notes = []
    if params is None:
        return notes
    if params.astuple() == (2, 5, 4, 7):
        notes.append(
            "golden 15x15 layout: the transcribed display disagrees with the "
            "entry law c_(rho-sigma) at row (2,5), column sigma=(0,1) "
            "(shows c_(2,3); the law gives c_(2,4)); this package follows the law"
        )
    if params.astuple() == (2, 1, 1, 2):
        notes.append(
            "ambient space for (2,1,1,2): the coordinate count gives P^5 "
            "(6 coordinates of degree <= 2); a sometimes-quoted P^7 does not "
            "match the count; the computed value is reported"
        )
    return notes


def load_poly(path: str) -> SparsePoly:
    """Polynomial file: JSON list of [exponent-vector, numerator, denominator]."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"polynomial file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, list) or not data:
        raise UsageError("polynomial file must be a non-empty JSON list of terms")
    terms = []
    nvars = None
    for item in data:
        if not (isinstance(item, list) and len(item) == 3):
            raise UsageError("each term must be [exponents, numerator, denominator]")
        exps, num, den = item
        try:
            term = (tuple(int(x) for x in exps), Fraction(int(num), int(den)))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad term {item!r}: {exc}") from None
        if any(x < 0 for x in term[0]):
            raise UsageError(f"bad term {item!r}: negative exponent")
        if nvars is None:
            nvars = len(exps)
        elif len(exps) != nvars:
            raise UsageError("inconsistent exponent vector lengths")
        terms.append(term)
    return SparsePoly.from_terms(nvars, terms)


def _report(config: RunConfig, payload: dict, params=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "payload": payload,
        "annotations": known_annotations(params),
    }


def cmd_shape(config: RunConfig) -> dict:
    params = config.params()
    shape = params.shape
    payload = {
        "rows": shape.rows,
        "cols": shape.cols,
        "square": shape.square,
        "ambient_coords": params.ambient_coords,
        "ambient_projective_dim": params.ambient_dim,
        "expected_dimension": expected_dimension(params),
        "verdict": "square" if shape.square else "rectangular",
    }
    return _report(config, payload, params)


def cmd_defect(config: RunConfig) -> dict:
    params = config.params()
    check = nondefective_hypersurface_check(
        params, trials=config.trials, ctx=config.context(), seed=config.seed
    )
    shape = params.shape
    payload = {
        "rows": shape.rows,
        "cols": shape.cols,
        "square": shape.square,
        "expected_dimension": check.expected_dim,
        "actual_dimension": check.actual_dim,
        "det_trials": check.det_trials,
        "det_nonzero_count": check.det_nonzero_count,
        "det_certified_nonzero": check.det_nonzero_count > 0,
        "verdict": check.verdict,
    }
    return _report(config, payload, params)


def cmd_hessian(config: RunConfig) -> dict:
    if config.poly is not None:
        poly = load_poly(config.poly)
        cert = hess.certify_hessian_poly(
            poly, trials=config.trials, seed=config.seed, ctx=config.context()
        )
        payload = {"certificate": cert.to_dict(), "verdict": cert.verdict}
        return _report(config, payload, None)
    params = config.params()
    # The gate, then the certificate, which refuses a case the gate fails.
    # It reads only whether the gate passes, so one nonzero det suffices.
    check = nondefective_hypersurface_check(
        params, trials=GATE_TRIALS, ctx=config.context(),
        seed=derive_seed("gate", config.seed), stop_at_nonzero=True,
    )
    cert = hess.certify_hessian_pade(
        check, trials=config.trials, seed=config.seed, ctx=config.context()
    )
    if config.mode == "full":
        cert = hess.full_from_essential(cert, params)
    payload = {"certificate": cert.to_dict(), "verdict": cert.verdict}
    if hess.relations_apply(params):
        fld = config.fixed_context()
        point = random_point(
            params.pade.variables(), fld, derive_seed("diag", config.seed)
        )
        payload["relations"] = hess.relation_check(params, point, fld)
    return _report(config, payload, params)


def _survey_case(params: TaylorParams, config: RunConfig) -> dict:
    # A row reads only whether the gate passes, so one nonzero det suffices.
    check = nondefective_hypersurface_check(
        params, trials=config.trials, ctx=config.context(), seed=config.seed,
        stop_at_nonzero=True,
    )
    row = {
        "d": params.d,
        "e": params.e,
        "m": params.m,
        "size": params.shape.rows,
        "nondefective_hypersurface": check.is_nondefective_hypersurface,
        "hessian_full": "",
        "essential_corank": "",
        "rank_M": "",
    }
    if check.is_nondefective_hypersurface:
        # The first trial of corank 0 fixes both printed fields: the minimum
        # corank is then 0, and its nonzero det(H) fixes the full verdict
        # (see full_from_essential).  So the trials stop there.
        essential = hess.certify_hessian_pade(
            check, trials=config.trials, seed=config.seed, ctx=config.context(),
            stop_at_full_rank=True,
        )
        fld = config.fixed_context()
        point = random_point(
            params.pade.variables(), fld, derive_seed("survey", config.seed)
        )
        row["hessian_full"] = hess.full_from_essential(essential, params).verdict
        row["essential_corank"] = min(t.corank for t in essential.trials)
        row["rank_M"] = hess.relation_check(params, point, fld)["rank_M"]
    return row


SURVEY_COLUMNS = [
    "d", "e", "m", "size",
    "nondefective_hypersurface", "hessian_full", "essential_corank", "rank_M",
]


def cmd_survey(config: RunConfig) -> dict:
    if config.e_max is None:
        raise UsageError("survey needs --e-max")
    # Popped, so that each case's cached Pade matrix is freed after its row.
    cases = square_family(config.e_max)
    rows = [_survey_case(cases.pop(0), config) for _ in range(len(cases))]
    payload = {"columns": SURVEY_COLUMNS, "rows": rows, "verdict": "completed"}
    return _report(config, payload, None)


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_export(config: RunConfig) -> dict:
    params = config.params()
    P = pade_matrix(*params.astuple(), within_increasing=(config.order == "reverse"))
    script = export_m2(P)
    path = config.out or f"pade_{params.n}_{params.d}_{params.e}_{params.m}.m2"
    write_text(path, script)
    payload = {
        "path": path,
        "rows": P.nrows,
        "cols": P.ncols,
        "n_variables": params.ambient_coords,
        "verdict": "exported",
    }
    return _report(config, payload, params)


COMMANDS = {
    "shape": cmd_shape,
    "defect": cmd_defect,
    "hessian": cmd_hessian,
    "survey": cmd_survey,
    "export": cmd_export,
}


def render_report(report: dict, fmt: str) -> str:
    """JSON for every report; CSV for a survey (``RunConfig`` allows no other)."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    payload = report["payload"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=payload["columns"], lineterminator="\n")
    writer.writeheader()
    for row in payload["rows"]:
        writer.writerow(row)
    return buf.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylorpade",
        description="Pade matrices of Taylor coefficient varieties: "
        "shapes, defectivity, and vanishing-Hessian certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("-n", type=int, default=None)
        sp.add_argument("-d", type=int, default=None)
        sp.add_argument("-e", type=int, default=None)
        sp.add_argument("-m", type=int, default=None)
        sp.add_argument("--trials", type=int, default=20)
        sp.add_argument("--seed", type=int, default=None,
                        help=f"default: ${SEED_ENV}, else 0")
        sp.add_argument("--prime", type=int, default=None)
        sp.add_argument("--prime-index", type=int, default=None)
        sp.add_argument("--field", choices=["prime", "rational"], default="prime")
        sp.add_argument("--mode", choices=["full", "essential"], default="full")
        sp.add_argument("--order", choices=["paper", "reverse"], default="paper")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--expect", default=None)
        sp.add_argument("--out", default=None)
        if name == "hessian":
            sp.add_argument("--poly", default=None)
        if name == "survey":
            sp.add_argument("--e-max", dest="e_max", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        env = os.environ.get(SEED_ENV, "0")
        try:
            args.seed = int(env)
        except ValueError:
            parser.error(f"argument --seed: ${SEED_ENV} is not an integer: {env!r}")
    fields = {f: getattr(args, f) for f in RunConfig.__dataclass_fields__
              if hasattr(args, f)}
    try:
        config = RunConfig(**fields)
        report = COMMANDS[config.command](config)
        text = render_report(report, config.format)
        if config.out and config.command != "export":
            write_text(config.out, text)
        else:
            sys.stdout.write(text)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.expect is not None:
        verdict = report["payload"].get("verdict")
        if verdict != config.expect:
            print(
                f"expectation failed: verdict {verdict!r} != {config.expect!r}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
