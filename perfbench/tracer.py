"""Span tracer for the benchmark's traced passes.

The tracer wraps the public functions of each taylorpade module from outside
the package: the program itself carries no tracing code.  The modules import
names with ``from .detcalc import rank_at``, so one function can be bound in
several modules; ``install`` replaces every binding it finds and then checks
that no ``taylorpade.*`` module or class still holds an unwrapped original.

Each call records a span (name, parent span, start, end) in memory.
``summarize`` turns the spans of one traced pass into per-function calls, self
and total seconds, the five ROADMAP stage roll-ups and the exact counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "taylorpade"

# Layer (module) -> wrapped public functions.
LAYERS = {
    "pade": ("pade_matrix", "SymbolicMatrix.evaluate"),
    "detcalc": (
        "inverse_field", "det_field", "adjugate", "det_modp", "rank_at",
        "det_exact", "hessian_det_at", "block_grad_det_at", "jet_hessian_at",
    ),
    "variety": (
        "nondefective_hypersurface_check", "actual_dimension", "psi_jacobian",
        "random_rational_pair",
    ),
    "series": ("series_inverse", "series_mul"),
    "hessian": ("certify_hessian_pade", "verify_relations", "rank_M_at"),
    "fields": ("random_point", "point_hash"),
    "cli": ("render_report",),
}
FUNCTIONS = [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]

GATE = "variety.nondefective_hypersurface_check"
CERTIFY = "hessian.certify_hessian_pade"
DETERMINANTS = {"detcalc.det_modp", "detcalc.det_exact"}
FACTORIZATIONS = {"detcalc.inverse_field", "detcalc.det_field"}
ELIMINATIONS = {"detcalc.rank_at", "detcalc.det_modp", "detcalc.det_exact"} | FACTORIZATIONS

# Each span's self time goes to one ROADMAP stage, by the kind of work:
#   build     build and evaluate the Pade matrix at sampled points;
#   factor    factor the evaluated Pade matrix (inverse, det);
#   derive    assemble derivatives: gradients and Hessian of det(P), and the
#             Jacobian of the coefficient map;
#   eliminate det and rank of H, of M and of the Jacobian;
#   gate      the gate's own work: (P, Q) sampling, series expansion, control.
# det_modp and det_exact factor P when the gate calls them and eliminate H
# otherwise (see ``stage_of``).  cli.render_report and all unwrapped code
# (argument parsing, report assembly) fall to ``stage.other_s``.
STAGE = {
    "pade.pade_matrix": "build",
    "pade.SymbolicMatrix.evaluate": "build",
    "fields.random_point": "build",
    "fields.point_hash": "build",
    "detcalc.inverse_field": "factor",
    "detcalc.det_field": "factor",
    "detcalc.adjugate": "factor",
    "detcalc.hessian_det_at": "derive",
    "detcalc.block_grad_det_at": "derive",
    "detcalc.jet_hessian_at": "derive",
    "hessian.certify_hessian_pade": "derive",
    "hessian.verify_relations": "derive",
    "hessian.rank_M_at": "derive",
    "variety.psi_jacobian": "derive",
    "detcalc.rank_at": "eliminate",
    "detcalc.det_modp": "eliminate",
    "detcalc.det_exact": "eliminate",
    GATE: "gate",
    "variety.actual_dimension": "gate",
    "variety.random_rational_pair": "gate",
    "series.series_inverse": "gate",
    "series.series_mul": "gate",
    "cli.render_report": "other",
}
STAGES = ("build", "factor", "derive", "eliminate", "gate")
assert set(STAGE) == set(FUNCTIONS)

# Span fields.
NAME, PARENT, START, END, CELLS, SINGULAR = range(6)


class TracerError(RuntimeError):
    pass


def _cells(matrix) -> int:
    rows = getattr(matrix, "data", matrix)
    r = len(rows)
    c = len(rows[0]) if r else 0
    return r * c * min(r, c)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self._wrapper_of: dict = {}  # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        elimination = name in ELIMINATIONS
        inverse = name == "detcalc.inverse_field"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    _cells(args[0]) if elimination else 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
            if inverse and result is None:
                span[SINGULAR] = True
            return result

        return traced

    def _owners(self) -> list:
        """Every taylorpade module and every class defined in one."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        classes = [v for m in mods for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith(PACKAGE)]
        return mods + list({id(c): c for c in classes}.values())

    def install(self):
        self.missing = []
        self._wrapper_of = {}
        for qualified in FUNCTIONS:
            module, _, attr = qualified.partition(".")
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                self.missing.append(qualified)
                continue
            self._wrapper_of[id(fn)] = (fn, self._wrap(qualified, fn))
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                hit = self._wrapper_of.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, value))
        stale = self._bindings(lambda v, orig, wrapper: v is orig)
        if stale:
            self.uninstall()
            raise TracerError("unwrapped bindings left: " + ", ".join(stale))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = self._bindings(lambda v, orig, wrapper: v is wrapper)
        if left:
            raise TracerError("wrappers left after uninstall: " + ", ".join(left))

    def _bindings(self, match) -> list:
        wrappers = list(self._wrapper_of.values())
        found = []
        for owner in self._owners():
            for attr, value in vars(owner).items():
                if any(match(value, orig, wrapper) for orig, wrapper in wrappers):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def stage_of(span, spans) -> str:
    name = span[NAME]
    if name in DETERMINANTS:
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        return "factor" if parent == GATE else "eliminate"
    return STAGE[name]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(spans: list, wall_s: float, cases: int) -> dict:
    """Per-layer metrics of one traced pass whose ops took ``wall_s``."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    in_certify = [False] * n
    in_gate = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
        in_certify[i] = s[NAME] == CERTIFY or (p >= 0 and in_certify[p])
        in_gate[i] = s[NAME] == GATE or (p >= 0 and in_gate[p])

    calls = Counter()
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    stage_s = dict.fromkeys(STAGES + ("other",), 0.0)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        total_s[name] += dur[i]
        stage_s[stage_of(s, spans)] += dur[i] - child[i]

    def count(pred) -> int:
        return sum(1 for i, s in enumerate(spans) if pred(i, s))

    def parent_is(i, s, name) -> bool:
        return s[PARENT] >= 0 and spans[s[PARENT]][NAME] == name

    in_trials = [c and not g for c, g in zip(in_certify, in_gate)]
    points = count(lambda i, s: s[NAME] == "fields.random_point" and parent_is(i, s, CERTIFY))
    trials = count(lambda i, s: s[NAME] == "detcalc.hessian_det_at" and parent_is(i, s, CERTIFY))
    gates = calls[GATE]

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total_s[name]
    for stage in STAGES:
        out[f"stage.{stage}_s"] = stage_s[stage]
    out["stage.other_s"] = wall_s - sum(stage_s[s] for s in STAGES)
    out["detcalc.elim_cells"] = sum(s[CELLS] for s in spans)
    out["variety.ranks_per_gate"] = _ratio(
        count(lambda i, s: s[NAME] == "detcalc.rank_at"
              and parent_is(i, s, "variety.actual_dimension")), gates)
    out["variety.gates_per_case"] = _ratio(gates, cases)
    out["detcalc.factorizations_per_point"] = _ratio(
        count(lambda i, s: s[NAME] in FACTORIZATIONS and in_trials[i]), points)
    out["detcalc.H_elims_per_trial"] = _ratio(
        count(lambda i, s: s[NAME] in {"detcalc.det_modp", "detcalc.det_field",
                                       "detcalc.rank_at"} and parent_is(i, s, CERTIFY)),
        trials)
    out["hessian.resample_frac"] = _ratio(
        count(lambda i, s: s[SINGULAR] and parent_is(i, s, CERTIFY)), points)
    return out


# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "detcalc.elim_cells", "variety.ranks_per_gate", "variety.gates_per_case",
    "detcalc.factorizations_per_point", "detcalc.H_elims_per_trial",
    "hessian.resample_frac",
) + tuple(f"{name}.calls" for name in FUNCTIONS)
