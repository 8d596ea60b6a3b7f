import ast
import subprocess
import sys
from pathlib import Path

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
