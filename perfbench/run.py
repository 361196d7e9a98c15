"""Benchmark of the taylorpade command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One run is one process and one thread.  It measures set-up time
in fresh child processes, runs one warm-up pass of the workload, then a fixed
number of measured passes (``Workload.passes``).  Every op goes through
``taylorpade.cli.main(argv)``, the entry point of the ``taylorpade`` command,
and every report is checked by the oracle in ``workloads.py``.  After each
measured pass its cheapest op runs again with the same argv and must print
the same bytes.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics: each measured pass then runs untraced and again traced, with the
same argv, and the two must print the same bytes.  The last stdout line is
the JSON result; the lines before it are a table and a JSON record
(environment, seeds, per-op latencies, the full per-layer table).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import envinfo  # noqa: E402
import tracer as tr  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, cases_in, op_seed  # noqa: E402

SETUP_SAMPLES = 5
SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from speed import SpeedProbe
with SpeedProbe(0.002) as probe:
    t0 = time.perf_counter()
    import taylorpade.cli as cli
    cli.build_parser()
    t1 = time.perf_counter()
raw = t1 - t0
print(repr(raw), repr((raw - probe.spent(t0, t1)) / probe.slowdown(t0, t1)), cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRun:
    argv: list
    start: float
    wall: float
    cpu: float
    rc: object
    out: str
    problems: list


def load_program():
    if not (SRC / "taylorpade" / "cli.py").is_file():
        raise BenchError(f"no taylorpade source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import taylorpade.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"imported taylorpade from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> tuple:
    """Seconds to import taylorpade.cli and build its parser, in fresh
    processes: (clock samples, samples at the reference speed)."""
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        if Path(fields[2]).resolve().parent.parent != SRC:
            raise BenchError(f"set-up child imported {fields[2]}")
        raw.append(float(fields[0]))
        norm.append(float(fields[1]))
    return raw, norm


def call(cli, argv: list, op) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    problems = []
    rc = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        problems.append(f"SystemExit({exc.code})")
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problems.append("".join(traceback.format_exception_only(exc)).strip())
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if not problems:
        if rc != 0:
            problems.append(f"exit code {rc}: {err.getvalue().strip()}")
        else:
            try:
                problems.extend(op.check(json.loads(out.getvalue())))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable report: {exc!r}")
    return OpRun(argv, t0, wall, cpu, rc, out.getvalue(), problems)


class Runner:
    def __init__(self, cli, workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.runs: list = []  # every op execution, checked
        self.failures: list = []

    def record(self, run: OpRun, what: str) -> OpRun:
        self.runs.append(run)
        if run.problems:
            self.failures.append({"what": what, "argv": run.argv, "problems": run.problems})
        return run

    def failed(self) -> int:
        return sum(1 for run in self.runs if run.problems)

    def argvs(self, p: int) -> list:
        w = self.workload
        return [op.argv(op_seed(w.name, self.seed, p, op.slot)) for op in w.ops]

    def run_pass(self, p: int, what: str) -> list:
        gc.collect()
        runs = []
        for i, (op, argv) in enumerate(zip(self.workload.ops, self.argvs(p))):
            runs.append(self.record(call(self.cli, argv, op), f"{what} {p} op {i}"))
        return runs

    def same_bytes(self, first: OpRun, again: OpRun, what: str):
        if (again.rc, again.out) != (first.rc, first.out):
            problem = f"output differs from the first run of the same argv ({what})"
            again.problems.append(problem)
            self.failures.append({"what": what, "argv": again.argv, "problems": [problem]})

    def rerun_cheapest(self, runs: list, p: int):
        i = min(range(len(runs)), key=lambda k: runs[k].wall)
        again = self.record(call(self.cli, runs[i].argv, self.workload.ops[i]),
                            f"re-run {p} op {i}")
        self.same_bytes(runs[i], again, f"re-run {p} op {i}")


def tail(samples: list) -> dict:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would not lie above the median, so the
    maximum is reported instead and labelled as such.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}
    return {"value": xs[-1], "percentile": 100.0, "samples": n,
            "note": "fewer than 20 samples: maximum"}


def at_reference(probe: SpeedProbe, run: OpRun, seconds: float) -> float:
    """``seconds`` of ``run``, less the probe's own time, at the reference speed."""
    end = run.start + run.wall
    return (seconds - probe.spent(run.start, end)) / probe.slowdown(run.start, end)


def end_to_end(runner: Runner, passes: int, setup: tuple) -> tuple:
    with SpeedProbe() as probe:
        runner.run_pass(0, "warm-up")
        measured = []
        for p in range(1, passes + 1):
            runs = runner.run_pass(p, "pass")
            runner.rerun_cheapest(runs, p)
            measured.append(runs)

    clock, ref = {}, {}
    for name, get in (("wall", lambda r: r.wall), ("cpu", lambda r: r.cpu)):
        clock[name] = [sum(get(r) for r in runs) for runs in measured]
        ref[name] = [sum(at_reference(probe, r, get(r)) for r in runs) for runs in measured]
    clock["op"] = [r.wall for runs in measured for r in runs]
    ref["op"] = [at_reference(probe, r, r.wall) for runs in measured for r in runs]
    tails = {k: tail(v["op"]) for k, v in (("clock", clock), ("ref", ref))}
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "failed_frac": runner.failed() / len(runner.runs)}
    for prefix, values, samples, tl in (("", ref, setup[1], tails["ref"]),
                                        ("clock.", clock, setup[0], tails["clock"])):
        metrics.update({
            f"{prefix}setup_s": statistics.median(samples),
            f"{prefix}wall_s": statistics.median(values["wall"]),
            f"{prefix}cpu_s": statistics.median(values["cpu"]),
            f"{prefix}op_p50_s": statistics.median(values["op"]),
            f"{prefix}op_tail_s": tl["value"],
        })
    metrics["host_slowdown"] = statistics.median(
        probe.slowdown(r.start, r.start + r.wall) for runs in measured for r in runs)
    detail = {"setup_clock_s": setup[0], "setup_ref_s": setup[1],
              "pass_clock_s": clock, "pass_ref_s": ref, "op_tail": tails,
              "speed_samples": len(probe.spins)}
    return metrics, detail


def per_layer(runner: Runner, passes: int) -> tuple:
    tracer = tr.Tracer()
    layers, plain_passes, traced_passes = [], [], []
    with SpeedProbe() as probe:
        runner.run_pass(0, "warm-up")
        for p in range(1, passes + 1):
            plain = runner.run_pass(p, "pass")
            tracer.reset()
            tracer.install()
            try:
                traced = runner.run_pass(p, "traced pass")
            finally:
                tracer.uninstall()
            for i, (a, b) in enumerate(zip(plain, traced)):
                runner.same_bytes(a, b, f"traced pass {p} op {i}")
            cases = 0
            for r in plain:
                try:
                    cases += cases_in(json.loads(r.out))
                except (ValueError, KeyError, TypeError):
                    pass
            layers.append(tr.summarize(tracer.spans, sum(r.wall for r in traced), cases))
            plain_passes.append(plain)
            traced_passes.append(traced)
    plain_ref = [sum(at_reference(probe, r, r.wall) for r in runs) for runs in plain_passes]
    traced_ref = [sum(at_reference(probe, r, r.wall) for r in runs) for runs in traced_passes]
    metrics = {k: (layers[0][k] if k in tr.EXACT_COUNTS
                   else statistics.median(layer[k] for layer in layers))
               for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_ref, plain_ref))
    detail = {"pass_ref_s": plain_ref, "traced_pass_ref_s": traced_ref,
              "missing_functions": tracer.missing}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cli = load_program()
        env = envinfo.environment(ROOT)
        stat0 = envinfo.cpu_times()
        workload = WORKLOADS[args.workload]
        passes = workload.passes(args.seconds)
        runner = Runner(cli, workload, args.seed)
        if args.trace:
            listed = spec["per_layer"]
            metrics, detail = per_layer(runner, passes)
        else:
            listed = spec["end_to_end"]
            metrics, detail = end_to_end(runner, passes, measure_setup())
        missing = [m["name"] for m in listed if m["name"] not in metrics]
        if missing:
            raise BenchError("metrics not produced: " + ", ".join(missing))
    except (BenchError, tr.TracerError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env["steal"] = envinfo.steal_delta(stat0, envinfo.cpu_times())
    env["loadavg_end"] = list(os.getloadavg())

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith("_s") else "ratio")
        print(f"{args.workload:<11} {name:<48} {metrics[name]:>16.6g} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "argv": {p: runner.argvs(p) for p in range(passes + 1)},
        "environment": env,
        "detail": detail,
        "metrics": metrics,
        "failures": runner.failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": len(runner.runs),
        "failed": runner.failed(),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
