"""`scenario all` on a fixed config reproduces the committed reports byte for byte.

``data/golden`` holds the report.json and CSV files the CLI wrote for
``data/golden_config.json``.  The config covers all seven scenarios and the
branch cases: fig1 exactly at d = exp(beta * delta), the wbit scan at
epsilon 0 and 0.1, the superadditivity search at alpha 1, 2 and inf, a
lifted weight driven by thermal exchanges, and a three-level two-point
process.  A change to any reported number, verdict or witness fails here.
"""

from pathlib import Path

from thermowork.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def _files(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and p.name != "meta.json")


def test_scenario_all_matches_golden_reports(tmp_path):
    code = main(["scenario", "all", "--config", str(DATA / "golden_config.json"),
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert _files(tmp_path) == _files(GOLDEN)
    for rel in _files(GOLDEN):
        assert (tmp_path / rel).read_bytes() == (GOLDEN / rel).read_bytes(), str(rel)
