import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
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


def test_reach_allow_list_names_text_that_occurs_once():
    # tests/reach.py allows a line that tier-1 never runs by its source text,
    # with a reason; a refactor that moves such a text must move its entry.
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tests" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    found = [(name, (reach.PACKAGE / name).read_text().count(text), bool(reason))
             for name, text, reason in reach.ALLOWED]
    assert found == [(name, 1, True) for name, _, _ in reach.ALLOWED]


def _unread_imports(path):
    """Names that ``path`` imports and never reads; ``__future__`` is exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # An import nothing reads hides what a module depends on.  A package's
    # __init__.py imports to re-export, so it is exempt.
    unread = []
    for folder in ("src", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                unread += [(str(path.relative_to(ROOT)), line, name)
                           for line, name in _unread_imports(path)]
    assert unread == []


def _unread_parameters(path):
    """(line, function, parameter) for each parameter of a function or lambda
    that its body never reads; ``self`` and ``cls`` are exempt."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls")]
    return out


def test_no_function_takes_a_parameter_it_never_reads():
    # A parameter nothing reads asks every caller for a value that changes
    # nothing.  Tests are exempt: pytest fixtures are requested by name.
    unread = []
    for folder in ("src", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            unread += [(str(path.relative_to(ROOT)), *hit) for hit in _unread_parameters(path)]
    assert unread == []


def _field_parameters_defaulting_to_none(path):
    """(line, function, parameter) for each parameter named ``ctx``, ``field``,
    ``fld`` or ``primes`` whose default is ``None``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                 *zip(a.kwonlyargs, a.kw_defaults)]
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p, default in pairs
                if p.arg in ("ctx", "field", "fld", "primes")
                and isinstance(default, ast.Constant) and default.value is None]
    return out


def test_no_field_parameter_defaults_to_none():
    # A field that defaults to None leaves each function to pick its own
    # stand-in, and two functions picked two (the first builtin prime, or the
    # rotation through them); a default names the field itself.
    found = []
    for folder in ("src", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            found += [(str(path.relative_to(ROOT)), *hit)
                      for hit in _field_parameters_defaulting_to_none(path)]
    assert found == []
