import ast
import importlib
import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

from wildriff.core import ConfigError, EvaluationError, WildriffError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wildriff"


def private_imports(path):
    """(module, name) for each `_`-prefixed non-dunder name imported in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append((node.module, name))
    return found


def test_no_private_cross_module_imports():
    offenders = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_import_loads_no_scipy():
    # scipy.optimize is most of a cold import; only the MLP's L-BFGS fit
    # needs it, and it loads it there.
    probe = ("import sys, wildriff, wildriff.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def test_trace_boundaries_resolve():
    # perfbench's tracer patches the names `refit` and `cli` look up and
    # reports each one it cannot find; a renamed boundary would read 0 in
    # every per-layer metric.  A subprocess keeps the patches out of the
    # other tests.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import wildriff, wildriff.cli; from tracing import Tracer; "
             "print(Tracer().install(wildriff))")
    out = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parents[1] / "perfbench")],
                         capture_output=True, text=True, check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def package_modules():
    """The package and each of its modules."""
    return [importlib.import_module(f"wildriff.{path.stem}".removesuffix(".__init__"))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_every_exported_name_resolves():
    # Each module (and the package) declares __all__, and every name in it exists.
    unresolved = {module.__name__: [name for name in module.__all__
                                    if not hasattr(module, name)]
                  for module in package_modules()}
    assert {name: missing for name, missing in unresolved.items() if missing} == {}


def package_classes():
    """Every class defined in a module of the package, once each."""
    found = {}
    for module in package_modules():
        found.update((obj, None) for obj in vars(module).values()
                     if inspect.isclass(obj) and obj.__module__ == module.__name__)
    return list(found)


def test_one_exception_tree():
    classes = package_classes()
    # Warning categories are passed to warnings.warn, never raised.
    errors = [c for c in classes if issubclass(c, Exception) and not issubclass(c, Warning)]
    assert {c.__name__ for c in errors if not issubclass(c, WildriffError)} == set()
    branches = {c.__name__: (issubclass(c, ConfigError), issubclass(c, EvaluationError))
                for c in errors if c is not WildriffError}
    assert {name for name, (config, runtime) in branches.items() if config == runtime} == set()
    # Bad input data is the user's to fix; non-finite values are a failed run.
    assert branches["InvalidDataError"] == (True, False)
    assert branches["NonFiniteDataError"] == (False, True)
    names = Counter(c.__name__ for c in classes)
    assert {name for name, count in names.items() if count > 1} == set()
