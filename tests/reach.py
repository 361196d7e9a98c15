"""Two checks too slow for tier-1: which statements of ``src/taylorpade`` run,
and whether other interpreters make the pinned runs.

    python tests/reach.py lines
    python tests/reach.py interpreters PYTHON...
    python tests/reach.py deep [PYTHON...]

``lines`` runs tier-1 under a ``sys.settrace`` line tracer and prints every
executable line of ``src/taylorpade/*.py`` that nothing ran.  It exits 1
unless each one is on ``ALLOWED`` with a reason.  It then traces the traffic,
the runs people make of the program: every argv of the digest table of
``tests/digests.py`` (the golden-file runs, then the digest-only runs), each
as ``python -m taylorpade`` and checked against its table entry (exit code,
stdout, stderr), and ``scripts/worked_example.py --trials 2 --seed 7``,
checked against ``worked_example_t2_s7.txt``.  Each run starts in a fresh
directory (``digests.workdir``).  It lists the lines tier-1 runs but the
traffic does not.  Each child Python is traced through a ``sitecustomize.py``
in a temporary directory put first on PYTHONPATH, so a child started with
``-S`` is not.  Tracing makes tier-1 several times slower.  The package's
source is read once, before tracing: if any file of it differs afterwards,
``lines`` says so and exits 1 without listing lines, since the traced line
numbers need not match the new text.

``interpreters`` replays the traffic under each interpreter given, with
PYTHONPATH=src, and prints a table of the runs that match.  ``deep`` does the
same for the deep list of ``tests/digests.py`` (``DEEP``, checked against
``tests/golden/deep.json``), under the running interpreter when none is
given; it takes minutes.  Each command exits 1 when a run differs, and
``lines`` also when a tier-1 test fails.  As the CLI does, each ends quietly
with 141 when its reader closed stdout.
"""

import argparse
import atexit
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "taylorpade"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
EXIT_CLOSED_STDOUT = 141  # the CLI's status for a closed stdout, cli.EXIT_CLOSED_STDOUT

# Lines tier-1 may leave unrun: (file, a source text that occurs exactly
# once in it, reason).  Every line of that text is allowed.
ALLOWED = (
    ("fields.py",
     "except ImportError:\n"
     "    try:\n"
     "        from _sha2 import sha256  # CPython 3.12 on\n"
     "    except ImportError:\n"
     "        from hashlib import sha256\n",
     "only an interpreter without _sha256 runs it: CPython 3.12 on takes _sha2 "
     "(`interpreters` under 3.12 or 3.13 runs that), a build without both takes hashlib"),
)

SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_reach", {runner!r})
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
reach.record({hits!r})
"""


def _lines(code):
    """Line numbers that the instructions of ``code`` itself carry."""
    return {line for _, _, line in code.co_lines() if line}


def _codes(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _codes(const)


def package_sources():
    """File name -> source text, for each module of the package."""
    return {path.name: path.read_text() for path in PACKAGE.glob("*.py")}


def executable_lines(sources):
    """(file name, line) of each line of ``sources`` that holds code."""
    out = set()
    for name, source in sources.items():
        top = compile(source, str(PACKAGE / name), "exec")
        out |= {(name, line) for code in _codes(top) for line in _lines(code)}
    return out


def allowed(sources):
    """(file name, line) -> reason, for each line of an ``ALLOWED`` text."""
    out = {}
    for name, text, reason in ALLOWED:
        source = sources[name]
        first = source[: source.index(text)].count("\n") + 1
        out.update({(name, line): reason for line in range(first, first + text.count("\n"))})
    return out


def record(hits):
    """Trace the package's code in this process; at exit, write the
    (file name, line) pairs it ran to a file in the directory ``hits``.

    A code object stops being traced once each of its lines has run, which
    keeps hot loops cheap."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    codes = {}  # id(code) -> (code, its lines not yet run); holds code alive

    def trace_lines(frame, event, arg):
        if event == "line":
            left = codes[id(frame.f_code)][1]
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        if id(code) not in codes:
            codes[id(code)] = (code, _lines(code))
        left = codes[id(code)][1]
        left.discard(code.co_firstlineno)  # the header, entered by this call
        return trace_lines if left else None

    def write():
        ran = {(Path(code.co_filename).name, line)
               for code, left in codes.values() for line in _lines(code) - left}
        Path(hits, f"{os.getpid()}.txt").write_text(
            "".join(f"{name} {line}\n" for name, line in sorted(ran)))

    atexit.register(write)
    sys.settrace(trace_calls)


def _ran(hits):
    return {(name, int(line)) for path in Path(hits).glob("*.txt")
            for name, line in map(str.split, path.read_text().splitlines())}


def _traced_env(tmp, name):
    """Environment whose Pythons record into ``tmp/name``."""
    site, hits = Path(tmp, name, "site"), Path(tmp, name, "hits")
    site.mkdir(parents=True)
    hits.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(runner=str(Path(__file__).resolve()), hits=str(hits)))
    path = [str(site), str(SRC), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}, hits


def traffic():
    """(name, arguments after the interpreter, the digest it must match) of
    each run of the traffic."""
    import digests

    table = json.loads(digests.TABLE.read_text())
    runs = [(digests.key(argv), ["-m", "taylorpade", *argv], table[digests.key(argv)])
            for argv in digests.ARGVS]
    example = [str(ROOT / "scripts" / "worked_example.py"), "--trials", "2", "--seed", "7"]
    golden = (digests.GOLDEN / "worked_example_t2_s7.txt").read_bytes().decode()
    return [*runs, ("worked_example_t2_s7.txt", example, digests.digest(0, golden, ""))]


def deep():
    """The runs of the deep list, in the form of ``traffic()``."""
    import digests

    table = json.loads(digests.DEEP_TABLE.read_text())
    return [(digests.key(argv), ["-m", "taylorpade", *argv], table[digests.key(argv)])
            for argv in digests.DEEP]


def replay(python, env, runs):
    """Name -> "ok", "differs" or "exit N" for each of ``runs`` (as
    ``traffic()`` gives them) under ``python``."""
    import digests

    out = {}
    for name, args, want in runs:
        with digests.workdir():
            run = subprocess.run([python, *args], env=env, capture_output=True)
        got = digests.digest(run.returncode, run.stdout.decode(), run.stderr.decode())
        out[name] = ("ok" if got == want else "differs" if got["exit"] == want["exit"]
                     else f"exit {run.returncode}")
    return out


def _show(found, sources, notes=None):
    """Print each (file name, line) with its source, and a block's note once."""
    shown = None
    for name, line in sorted(found):
        note = (notes or {}).get((name, line))
        if note not in (None, shown):
            print(f"  allowed: {note}")
        shown = note
        print(f"  {name}:{line}  {sources[name][line - 1].strip()}")


def cmd_lines():
    # Read before tracing: the traced line numbers are those of this text.
    texts = package_sources()
    every, reasons = executable_lines(texts), allowed(texts)
    with tempfile.TemporaryDirectory() as tmp:
        env, tier1_hits = _traced_env(tmp, "tier1")
        tier1 = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
        env, traffic_hits = _traced_env(tmp, "traffic")
        replayed = replay(sys.executable, env, traffic())
        by_tier1, by_traffic = _ran(tier1_hits), _ran(traffic_hits)
    report = tier1.stdout.splitlines()
    print("tier-1:", report[-1] if report else tier1.stderr.strip())
    for line in report:
        if line.startswith(("FAILED", "ERROR")):
            print(" ", line)
    differ = {name: how for name, how in replayed.items() if how != "ok"}
    print(f"traffic: {len(replayed) - len(differ)} of {len(replayed)} runs match")
    for name, how in differ.items():
        print(f"  {name}: {how}")

    if package_sources() != texts:
        print("\nsrc/taylorpade changed while tracing: its lines are not listed")
        return 1
    sources = {name: text.splitlines() for name, text in texts.items()}
    unrun = every - by_tier1
    print(f"\nexecutable lines in src/taylorpade: {len(every)}")
    print(f"not run by tier-1: {len(unrun)}, of which {len(unrun - reasons.keys())} not allowed")
    _show(unrun, sources, reasons)
    print(f"\nrun by tier-1 but not by the traffic: {len(by_tier1 - by_traffic)}")
    _show(by_tier1 - by_traffic, sources)
    return int(bool(tier1.returncode or differ or unrun - reasons.keys()))


def cmd_interpreters(pythons, runs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    columns = []
    for python in pythons:
        version = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, check=True).stdout.strip()
        columns.append((version, replay(python, env, runs)))
    names = columns[0][1]  # each replay's runs, in traffic order
    width = max(map(len, names))
    print(f"{'run':<{width}}  " + "  ".join(f"{version:<8}" for version, _ in columns).rstrip())
    for name in names:
        print(f"{name:<{width}}  " + "  ".join(f"{cells[name]:<8}" for _, cells in columns).rstrip())
    return int(any(how != "ok" for _, cells in columns for how in cells.values()))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Statement reach of tier-1, and the pinned runs under other interpreters.")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("lines", help="run tier-1 traced; list what it never runs")
    replays = commands.add_parser("interpreters", help="replay the traffic under each PYTHON")
    replays.add_argument("pythons", nargs="+", metavar="PYTHON")
    deep_list = commands.add_parser("deep", help="replay the deep list under each PYTHON")
    deep_list.add_argument("pythons", nargs="*", metavar="PYTHON", default=[sys.executable])
    args = parser.parse_args(argv)
    if args.command == "lines":
        return cmd_lines()
    return cmd_interpreters(args.pythons, deep() if args.command == "deep" else traffic())


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  As in cli.main, point stdout at devnull,
        # so that the flush at exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED_STDOUT
    raise SystemExit(status)
