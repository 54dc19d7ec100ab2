"""Every name a module exports in `__all__` exists in that module, no
module of the package or its tests imports a name it never uses, every
function, class and method of the package is referenced inside the package
(a method through attribute access), every name a module assigns at its
top level is read in the package, every dataclass field is read in the
package, every option of the package (a parameter with a default that a
call can pass by name) is set by a call inside the package (a value only
tests set is a module constant they patch), no module imports and no run
loads scipy beyond scipy.linalg and scipy.sparse, every function the
benchmark's tracer wraps exists with the argument it records, the tracer
runs a sandwich and reads the coupled operator's attributes, and the
dispersion scan makes one fiber solve call per momentum it solves, as the
tracer's check assumes."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import polaron_effmass
from polaron_effmass.dispersion import FiberCache
from polaron_effmass.pipeline import stage_dispersion

REPO_ROOT = Path(__file__).resolve().parents[1]

MODULES = ["polaron_effmass"] + [
    f"polaron_effmass.{info.name}"
    for info in pkgutil.iter_modules(polaron_effmass.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _python_files(*folders):
    return [path for folder in folders
            for path in sorted((REPO_ROOT / folder).rglob("*.py"))]


def _unused_imports(path):
    """Names a module imports and never reads (``__all__`` counts as a read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {str(path.relative_to(REPO_ROOT)): names
              for path in _python_files("src", "tests")
              if (names := _unused_imports(path))}
    assert not unused, f"unused imports: {unused}"


# Definitions kept although nothing in the package refers to them: the
# docs fixture test trims reports with trim_report.
UNREFERENCED_ALLOWED = {"docsgen.trim_report"}


def _definitions(path):
    """module.name of every top-level function and class, and
    module.Class.method of every method that is not a dunder."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(f"{path.stem}.{node.name}")
        if isinstance(node, ast.ClassDef):
            names += [f"{path.stem}.{node.name}.{child.name}"
                      for child in node.body
                      if isinstance(child, ast.FunctionDef)
                      and not (child.name.startswith("__")
                               and child.name.endswith("__"))]
    return names


def _referenced_names(path):
    """(names the module reads bare or as an attribute, names it reads as
    an attribute): a method counts only through the second, ``x.name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    bare = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bare | attributes, attributes


def test_every_definition_is_referenced_in_the_package():
    refs = [_referenced_names(path) for path in _python_files("src")]
    anywhere = set().union(*(names for names, _ in refs))
    attributes = set().union(*(attrs for _, attrs in refs))
    dead = [name for path in _python_files("src")
            for name in _definitions(path)
            if name.rsplit(".", 1)[1] not in
            (attributes if name.count(".") == 2 else anywhere)
            and name not in UNREFERENCED_ALLOWED]
    assert not dead, f"definitions nothing in src/ refers to: {dead}"


# Module-level names that are read from outside the package.
MODULE_NAMES_ALLOWED = {"__all__", "__version__"}


def test_every_module_level_name_is_read_in_the_package():
    """A constant that nothing in src/ reads (bare or as an attribute)."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8")))
             for path in _python_files("src")]
    read = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{path.relative_to(REPO_ROOT)}:{stmt.lineno} {node.id}"
            for path, tree in trees for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id not in read
            and node.id not in MODULE_NAMES_ALLOWED]
    assert not dead, f"module-level names nothing in src/ reads: {dead}"


# Options only tests set: the CLI's argument list is how they drive it.
OPTIONS_ALLOWED = {"main(argv=)"}


def _keyword_options(path):
    """(callable name, option, position, line) for every parameter with a
    default that a call can pass by name; position is its index among the
    positional arguments of a call (None for keyword-only ones), not
    counting a method's self.  A constructor is named after its class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {child: node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for child in node.body}
    options = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owners[node] if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        skip = int(node in owners and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list))
        defaulted = positional[len(positional) - len(node.args.defaults):]
        for arg in defaulted:
            if arg not in node.args.posonlyargs:
                options.append((name, arg.arg,
                                positional.index(arg) - skip, node.lineno))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                options.append((name, arg.arg, None, node.lineno))
    return options


def _calls(path):
    """(callee name, keywords passed by name, positional arguments passed)
    for every call; a starred argument counts as filling every position."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute) else None)
        n_args = (float("inf")
                  if any(isinstance(a, ast.Starred) for a in node.args)
                  else len(node.args))
        calls.append((callee, {kw.arg for kw in node.keywords if kw.arg},
                      n_args))
    return calls


def test_every_keyword_option_has_a_caller():
    calls = [c for path in _python_files("src") for c in _calls(path)]
    orphans = [f"{path.relative_to(REPO_ROOT)}:{line} {name}({option}=)"
               for path in _python_files("src")
               for name, option, position, line in _keyword_options(path)
               if f"{name}({option}=)" not in OPTIONS_ALLOWED
               and not any(callee == name and (
                   option in keywords
                   or (position is not None and n_args > position))
                           for callee, keywords, n_args in calls)]
    assert not orphans, f"options no call in src/ sets: {orphans}"


_IMPORT_GUARD = textwrap.dedent("""
    import sys
    import polaron_effmass.cli
    from polaron_effmass import pipeline
    from polaron_effmass.config import load_config, validate_config
    validate_config("toy")
    pipeline.run("sandwich", load_config("toy"), out_dir=sys.argv[1])
    pipeline.run("oracle-check", load_config("oracle"), out_dir=sys.argv[1])
    print(sorted(m for m in ("scipy.integrate", "scipy.optimize",
                             "scipy.special") if m in sys.modules))
""")


def test_a_run_imports_only_linalg_and_sparse_from_scipy(tmp_path):
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_SCIPY_ALLOWED = {"scipy.linalg", "scipy.sparse"}


def _scipy_imports(path):
    """(line, module) of every scipy import in the module, at any depth;
    ``from scipy import x`` counts as importing ``scipy.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += ([(node.lineno, f"scipy.{alias.name}")
                       for alias in node.names] if node.module == "scipy"
                      else [(node.lineno, node.module)])
    return [(line, name) for line, name in found
            if name.split(".")[0] == "scipy"]


def test_no_module_imports_scipy_beyond_linalg_and_sparse():
    # the subprocess check above sees only the imports a run reaches; this
    # one reads every import statement, function-level ones included
    beyond = [f"{path.relative_to(REPO_ROOT)}:{line} {name}"
              for path in _python_files("src")
              for line, name in _scipy_imports(path)
              if not any(name == allowed or name.startswith(allowed + ".")
                         for allowed in _SCIPY_ALLOWED)]
    assert not beyond, f"scipy imports beyond linalg and sparse: {beyond}"


def _is_dataclass(node):
    """True for a class decorated with ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read_in_the_package():
    """A field nothing reads (``x.field`` in a load) is carried for no one."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8")))
             for path in _python_files("src")]
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{node.name}.{item.target.id}"
              for path, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert not unread, f"dataclass fields nothing in src/ reads: {unread}"


def _tracer_tables():
    """SPANS and COUNTED of perfbench/tracer.py, read without importing it."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and target.id in ("SPANS", "COUNTED")}


def test_benchmark_tracer_targets_exist():
    # the benchmark wraps these names from outside the package and reads
    # the recorded argument off each call; a rename must fail here too
    tables = _tracer_tables()
    targets = ([(mod, attr, param) for mod, attr, _, param in tables["SPANS"]]
               + [(mod, attr, None) for mod, attr, _ in tables["COUNTED"]])
    assert len(targets) > len(tables["COUNTED"])
    for mod, attr, param in targets:
        target = importlib.import_module(f"polaron_effmass.{mod}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{mod}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"{mod}.{attr}"
        if param is not None:
            params = inspect.signature(target).parameters
            assert param in params, f"{mod}.{attr} has no parameter {param!r}"


_TRACER_GUARD = textwrap.dedent("""
    import importlib.util
    import json
    import sys
    spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer().install()
    from polaron_effmass import pipeline
    from polaron_effmass.config import load_config
    passed = pipeline.run("sandwich", load_config("toy"), out_dir=sys.argv[2])
    assembles = [span.attrs for span in tracer.spans
                 if span.name == "operators.coupled_assemble"]
    with open(f"{sys.argv[2]}/report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    print(json.dumps({
        "passed": passed,
        "coupled_matvecs": tracer.counts["coupled_matvecs"],
        "davidson_matvecs": sum(report["static_mass"]["davidson_matvecs"]),
        "temple_products": sum(row["r_star"] is not None
                               for row in report["enclosure"]["rows"]),
        "assembles": len(assembles),
        "stored_mb": sum("stored_mb" in attrs for attrs in assembles)}))
""")


def test_benchmark_tracer_reads_the_operator_it_wraps(tmp_path):
    # the tracer reads the coupled operator's matrix, diagonal, nnz and name
    # on every matvec and assembly; a renamed attribute must fail here, not
    # only in the benchmark's own tests.  It counts every coupled product:
    # the Davidson solves' and one for each Temple floor, where the split
    # gave an r*; a block apply that bypassed matvec would miss some
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_GUARD,
         str(REPO_ROOT / "perfbench" / "tracer.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["passed"] is True
    assert result["coupled_matvecs"] > 0
    assert result["coupled_matvecs"] == (result["davidson_matvecs"]
                                         + result["temple_products"])
    assert result["assembles"] > 0
    assert result["stored_mb"] == result["assembles"]


def test_the_scan_solves_one_momentum_per_solve_call(toy_cfg, monkeypatch):
    # the benchmark's trace check takes the dispersion stage's
    # FiberCache._solve calls for the momenta its block reports solved
    calls = []
    true_solve = FiberCache._solve

    def counting(cache, P, *more):
        calls.append((P, *more))
        return true_solve(cache, P, *more)

    monkeypatch.setattr(FiberCache, "_solve", counting)
    _, block, _ = stage_dispersion(toy_cfg)
    assert [len(call) for call in calls] == [1] * len(calls)
    assert len(calls) == block["fiber_solves"]
    assert len(calls) == len({abs(P) for P in toy_cfg.P_list})
