"""Every top-level import in a library module is used by that module, every
private module-level function or class is used somewhere in the package, and
importing the package (or asking the CLI for help) loads no scipy, nor does
deciding a Gibbs-stochastic map either way.

No linter ships with the test dependencies, so this walks the syntax tree
with the standard library instead.  ``__init__.py`` is exempt from the import
check: its imports are the package's public re-exports.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermowork"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_detects_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert _unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def _references(node) -> Counter:
    """Names used under ``node``: variables, attributes and imported names."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
    return refs


def _orphaned_private_definitions(sources: dict) -> list:
    """``module:name`` of each private top-level function or class that no
    code outside its own definition refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, DEFINITIONS) and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and total[node.name] <= _references(node)[node.name]):
                orphans.append(f"{module}:{node.name}")
    return sorted(orphans)


def test_detects_an_orphaned_private_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n\n"
             "class _Shape:\n    pass\n",
        "b": "from a import _used\n\nclass Box(a._Shape):\n    pass\n",
    }
    assert _orphaned_private_definitions(sources) == ["a:_orphan"]


def test_no_orphaned_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _orphaned_private_definitions(sources) == []


_LOADED_SCIPY = """
import sys
import thermowork
from thermowork import cli
sys.argv = ["thermowork", "--help"]
try:
    cli.entry()
except SystemExit:
    pass
print(sorted(name for name in sys.modules if name.split(".")[:2] in
             (["scipy", "optimize"], ["scipy", "sparse"])))
"""


def test_import_and_help_load_no_scipy_solver():
    # scipy.optimize is most of a cold import, and nothing in the package needs it
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    assert out.splitlines()[-1] == "[]"


_LOADED_BY_THE_MAP_ORACLE = """
import sys
from thermowork.core import ClassicalObject, classical_gibbs
from thermowork.feasibility import gibbs_stochastic_feasible
c = ClassicalObject([0.6, 0.3, 0.1], [0.0, 0.5, 1.5])
verdicts = [gibbs_stochastic_feasible(src, dst, 1.0)
            for src, dst in ((c, c), (classical_gibbs(c.energies, 1.0), c))]
print([v.status.value for v in verdicts], [v.witness["kind"] for v in verdicts])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_gibbs_stochastic_oracle_loads_no_scipy():
    # the map is built from the two curves and the Farkas vector from one hockey-stick
    # slope: neither path solves a linear program, so scipy stays out of the process
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LOADED_BY_THE_MAP_ORACLE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    assert out.splitlines()[-2:] == [
        "['Feasible', 'Infeasible'] ['gibbs_stochastic_map', 'lp_phase1_gap']", "[]"]


_LOADED_ABOVE_DIVERGENCES = """
import sys
import types
package = types.ModuleType("thermowork")
package.__path__ = [sys.argv[1]]
sys.modules["thermowork"] = package
from thermowork.core import ClassicalObject
from thermowork.divergences import delta_F_alpha
delta_F_alpha(ClassicalObject([0.5, 0.5], [0.0, 1.0]), 1.0, 2.0)
print(sorted(name for name in sys.modules if name.startswith("thermowork.")))
"""


def test_divergences_loads_neither_feasibility_nor_quantifiers():
    # the row table lives under its readers: divergences, and a classical delta_F_alpha
    # call, must not reach up into the deciders or the quantifiers.  The package's
    # __init__ imports every module, so a bare package object stands in for it.
    out = subprocess.run([sys.executable, "-c", _LOADED_ABOVE_DIVERGENCES, str(PACKAGE)],
                         capture_output=True, text=True, check=True).stdout
    loaded = ast.literal_eval(out.splitlines()[-1])
    assert "thermowork.divergences" in loaded
    assert not {"thermowork.feasibility", "thermowork.quantifiers"} & set(loaded)
