"""Every tolerance in the package is a named module constant, listed in the README.

A float literal between 1e-16 and 1e-5 in a library module is a tolerance (the
1e-300 division floor of ``ThermoCurve.is_concave`` lies below the range and is
none).  It may appear only as the whole value of a module-level assignment,
and each such constant has a row in the README's Conventions table with its
value.  A run config cannot set tolerances: its ``"tolerances"`` block is
refused.
"""

import ast
import json
import re
from pathlib import Path

from thermowork.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "thermowork").glob("*.py"))
LOW, HIGH = 1e-16, 1e-5
#: A row of the README's tolerance table: | `module.NAME` | `value` | ...
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|", re.MULTILINE)


def _is_tolerance(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and LOW <= abs(node.value) <= HIGH)


def _scan(source: str):
    """(named, stray): {NAME: value} of the module-level tolerance constants, and the
    line numbers of every other tolerance-sized float literal."""
    tree = ast.parse(source)
    named, allowed = {}, set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_tolerance(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                named[targets[0].id] = node.value.value
                allowed.add(id(node.value))
    stray = [n.lineno for n in ast.walk(tree) if _is_tolerance(n) and id(n) not in allowed]
    return named, stray


def _named_tolerances() -> dict:
    return {(path.stem, name): value for path in MODULES
            for name, value in _scan(path.read_text())[0].items()}


def test_the_scan_finds_inline_literals_and_passes_named_ones():
    source = ("TOL = 1e-9\nFLOOR = 1e-300\nGRID = (1e-12,)\n"
              "def f(x, tol=1e-8):\n    return x < -1e-6 or x > 2.0\n")
    assert _scan(source) == ({"TOL": 1e-9}, [3, 4, 5])


def test_no_tolerance_is_an_inline_literal():
    stray = [f"{path.name}:{line}" for path in MODULES for line in _scan(path.read_text())[1]]
    assert not stray, f"name these tolerances as module constants: {stray}"


def test_every_named_tolerance_is_in_the_readme_table_with_its_value():
    table = {(module, name): float(value)
             for module, name, value in ROW.findall((ROOT / "README.md").read_text())}
    named = _named_tolerances()
    assert len(named) >= 21
    assert table == named


def test_a_tolerances_block_is_refused_even_with_in_range_values(tmp_path, capsys):
    cfg_path = tmp_path / "tol.json"
    cfg_path.write_text(json.dumps({"schema": 1, "seed": 0, "tolerances": {"majorize": 1e-10}}))
    code = main(["scenario", "fig1", "--config", str(cfg_path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "README" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
