"""Command-line surface: reproducible seeded runs with machine-readable reports.

Subcommands: ``shape`` (counts and squareness), ``defect`` (expected vs actual
dimension), ``hessian`` (vanishing certificates for Pade determinants or
explicit polynomials), ``survey`` (the whole pipeline over the square family),
``export`` (Macaulay2 cross-check script).

Reports are deterministic: the command line alone fixes the output, byte for
byte (no environment variable is read).  ``--expect VERDICT`` turns the process
exit code into an assertion for CI pipelines.  Exit codes: 0 on success, 1 on
an ``--expect`` mismatch, 2 on bad input (a Pade matrix above
``pade.MAX_CELLS`` cells included) or when memory runs out,
``EXIT_INTERRUPTED`` = 130 on an interrupt (SIGINT, Ctrl-C), and
``EXIT_CLOSED_STDOUT`` = 141 when the reader closed stdout before the report
was written; 130 and 141 are the statuses a shell reports for a process
that SIGINT or SIGPIPE ended.  Each failure prints one ``error:`` line to
stderr, except a closed stdout, which prints nothing, and a command line that
argparse cannot parse (a value that is not an int, no command or an unknown
one, an option without its value): argparse prints its usage block, then a
``taylorpade ...: error:`` line, and exits 2, so ``main`` raises
``SystemExit(2)`` there rather than returning 2.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import NamedTuple

from . import hessian as hess
from .errors import UsageError
from .fields import (
    DEFAULT_FIELD, MR_EXACT_BELOW, PRIMES_62, SURVEY_PRIME, PrimeField, Rationals,
)
from .pade import export_m2, require_buildable
from .series import SparsePoly
from .variety import (
    TaylorParams,
    expected_dimension,
    nondefective_hypersurface_check,
    square_family,
)

SCHEMA_VERSION = 2
EXIT_INTERRUPTED = 130
EXIT_CLOSED_STDOUT = 141


class _Options(NamedTuple):
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
    field: str = "prime"
    mode: str = "full"
    format: str = "json"
    out: str | None = None
    expect: str | None = None


class RunConfig(_Options):
    """One command line's settings, checked on construction."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.trials < 1:
            raise UsageError(f"--trials must be >= 1, got {self.trials}")
        if self.prime is not None and self.prime >= MR_EXACT_BELOW:
            raise UsageError(f"--prime must be below {MR_EXACT_BELOW}, "
                             "where the primality test is exact")
        if self.prime is not None:
            PrimeField(self.prime)  # raises UsageError unless prime
        if self.field == "rational" and self.prime is not None:
            raise UsageError("--field rational takes no --prime")
        if self.poly is not None and (self.mode, self.n, self.d, self.e, self.m) != (
                "full", None, None, None, None):
            raise UsageError(
                "hessian --poly takes no --mode essential and no -n, -d, -e or -m")
        return self

    def params(self) -> TaylorParams:
        if None in (self.n, self.d, self.e, self.m):
            raise UsageError("this command needs -n, -d, -e and -m")
        return TaylorParams(self.n, self.d, self.e, self.m)

    def context(self):
        """The field of the gate: Q for ``--field rational``, GF(``--prime``),
        else ``fields.DEFAULT_FIELD``, GF(2^30 - 35).  None of its printed
        fields names the prime, and each reads the same over any prime large
        enough (``variety.nondefective_hypersurface_check`` and the README
        give the per-trial bounds)."""
        if self.field == "rational":
            return Rationals()
        if self.prime is not None:
            return PrimeField(self.prime)
        return DEFAULT_FIELD

    def primes(self) -> tuple:
        """The primes a certificate's trials rotate through."""
        if self.prime is not None:
            return (self.prime,)
        return (SURVEY_PRIME,) if self.command == "survey" else PRIMES_62


def known_annotations(params: TaylorParams | None) -> list:
    """Documented discrepancies attached to specific parameter values."""
    notes = []
    if params == (2, 5, 4, 7):
        notes.append(
            "golden 15x15 layout: the transcribed display disagrees with the "
            "entry law c_(rho-sigma) at row (2,5), column sigma=(0,1) "
            "(shows c_(2,3); the law gives c_(2,4)); this package follows the law"
        )
    if params == (2, 1, 1, 2):
        notes.append(
            "ambient space for (2,1,1,2): the coordinate count gives P^5 "
            "(6 coordinates of degree <= 2); a sometimes-quoted P^7 does not "
            "match the count; the computed value is reported"
        )
    return notes


def load_poly(path: str) -> SparsePoly:
    """Polynomial file: JSON list of [exponent-vector, numerator, denominator]."""
    from fractions import Fraction
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
        # not isinstance: a JSON boolean is an int, and int() would truncate a float
        if not (isinstance(exps, list) and all(type(x) is int for x in (*exps, num, den))):
            raise UsageError(f"bad term {item!r}: entries must be JSON integers")
        if den == 0:
            raise UsageError(f"bad term {item!r}: zero denominator")
        if any(x < 0 for x in exps):
            raise UsageError(f"bad term {item!r}: negative exponent")
        term = (tuple(exps), Fraction(num, den))
        if nvars is None:
            nvars = len(exps)
        elif len(exps) != nvars:
            raise UsageError("inconsistent exponent vector lengths")
        terms.append(term)
    return SparsePoly.from_terms(nvars, terms)


def _report(config: RunConfig, payload: dict, params=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config._asdict(),
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


def _run_case(params: TaylorParams, config: RunConfig):
    """``hessian.run_case`` with this command line's choices: the gate over
    ``config.context()``, the certificate over ``config.primes()`` (the
    relation check over its first: ``PRIMES_62[0]`` for ``hessian`` and
    2^30 - 35 for ``survey``), and the survey's choices for ``survey``."""
    return hess.run_case(params, config.context(), config.primes(), config.trials,
                         config.seed, survey=config.command == "survey")


def cmd_hessian(config: RunConfig) -> dict:
    params = relations = None
    if config.poly is not None:
        cert = hess.certify_hessian_poly(
            load_poly(config.poly), trials=config.trials, seed=config.seed,
            primes=config.primes(),
        )
    else:
        params = config.params()
        case = _run_case(params, config)
        cert, relations = getattr(case, config.mode), case.relations
    payload = {"certificate": cert.to_dict(), "verdict": cert.verdict}
    if relations is not None:
        payload["relations"] = relations
    return _report(config, payload, params)


SURVEY_COLUMNS = [
    "d", "e", "m", "size",
    "nondefective_hypersurface", "hessian_full", "essential_corank", "rank_M",
]


def _survey_case(params: TaylorParams, config: RunConfig) -> dict:
    case = _run_case(params, config)
    stages = ("", "", "")
    if case.essential is not None:
        stages = (case.full.verdict, min(t.corank for t in case.essential.trials),
                  case.relations["rank_M"])
    return dict(zip(SURVEY_COLUMNS, (params.d, params.e, params.m, params.shape.rows,
                                     case.gate.is_nondefective_hypersurface, *stages)))


def cmd_survey(config: RunConfig) -> dict:
    if config.e_max is None:
        raise UsageError("survey needs --e-max")
    cases = square_family(config.e_max)
    for params in cases:  # an oversized P is refused before any case runs
        require_buildable(*params)
    # Popped, so that each case's cached Pade matrix is freed after its row.
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
    P = params.pade
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
    """JSON for every report; CSV for a survey (no other command takes ``--format``)."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    import csv
    payload = report["payload"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=payload["columns"], lineterminator="\n")
    writer.writeheader()
    for row in payload["rows"]:
        writer.writerow(row)
    return buf.getvalue()


# The options each command reads; every command also takes --expect and --out.
OPTIONS = {
    "shape": ("-n", "-d", "-e", "-m"),
    "defect": ("-n", "-d", "-e", "-m", "--trials", "--seed", "--prime", "--field"),
    "hessian": ("-n", "-d", "-e", "-m", "--trials", "--seed", "--prime", "--mode", "--poly"),
    "survey": ("--e-max", "--trials", "--seed", "--prime", "--format"),
    "export": ("-n", "-d", "-e", "-m"),
}
# argparse keywords of each option; an option left out takes RunConfig's default
_ARGUMENTS = {
    **dict.fromkeys(("-n", "-d", "-e", "-m", "--e-max", "--trials", "--seed", "--prime"),
                    {"type": int}),
    "--field": {"choices": ["prime", "rational"]},
    "--mode": {"choices": ["full", "essential"]},
    "--format": {"choices": ["json", "csv"]},
    "--poly": {}, "--expect": {}, "--out": {},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylorpade",
        description="Pade matrices of Taylor coefficient varieties: "
        "shapes, defectivity, and vanishing-Hessian certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in OPTIONS.items():
        sp = sub.add_parser(name)
        for flag in (*flags, "--expect", "--out"):
            sp.add_argument(flag, **_ARGUMENTS[flag])
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    fields = {f: v for f, v in vars(args).items() if v is not None}
    try:
        if extra:
            raise UsageError(f"{args.command} takes no {' '.join(extra)}")
        config = RunConfig(**fields)
        report = COMMANDS[config.command](config)
        text = render_report(report, config.format)
        if config.out and config.command != "export":
            write_text(config.out, text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The reader closed stdout.  As in the Python docs' note on SIGPIPE,
        # point stdout at devnull, so that the flush at exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
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
