"""work_value and work_cost reproduce committed outputs on the candidate-table cases.

``data/golden_work.json`` holds one record per case: the value or cost, the
certificate's ``to_json()``, and the ``tested`` list as its length, its
status counts and the SHA-256 of its JSON text (the lists run to 1.4 MB in
full).  The cases are the four restriction sets of the benchmark, the fuels
of ``TestCandidateTable`` and the Renyi monotones at alpha = 0.5, 1, 2 and
inf at the work's beta, plus one at alpha = 2 whose own beta (0.5) differs
from the work's (1), so a monotone evaluated at the wrong beta shows.  Every
record must match byte for byte.

Rewrite the file with ``PYTHONPATH=src python tests/test_golden_work.py``
only when a work value is meant to change.
"""

import collections
import hashlib
import itertools
import json
from pathlib import Path

import pytest

import test_quantifiers
from thermowork.divergences import BetaContext, INF
from thermowork.quantifiers import (
    EpsilonDet,
    MeanLadder,
    RenyiFreeEnergy,
    Unrestricted,
    WbitSet,
    WorkQuantifier,
    work_cost,
    work_value,
)

GOLDEN = Path(__file__).parent / "data" / "golden_work.json"
BETA = 1.0
RESTRICTIONS = (Unrestricted(), EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0), MeanLadder(4, 0.5))


def cases() -> list:
    """(name, quantifier, restriction, fuel) for every case."""
    monotones = [RenyiFreeEnergy(alpha, BetaContext(BETA)) for alpha in (0.5, 1.0, 2.0, INF)]
    monotones.append(RenyiFreeEnergy(2.0, BetaContext(0.5)))
    out = []
    for restriction, (k, fuel), m in itertools.product(
            RESTRICTIONS, enumerate(test_quantifiers.TestCandidateTable.FUELS), monotones):
        name = f"{type(restriction).__name__}/fuel{k}/{m.name}/beta{m.ctx.beta:g}"
        out.append((name, WorkQuantifier(m), restriction, fuel))
    return out


def records(name, quantifier, restriction, fuel) -> list:
    out = []
    for fn, key in ((work_value, "value"), (work_cost, "cost")):
        res = fn(quantifier, restriction, fuel, BETA, grid=32)
        tested = json.dumps(res["tested"])
        cert = res["certificate"]
        out.append({
            "name": f"{name}/{key}",
            key: res[key],
            "certificate": None if cert is None else cert.to_json(),
            "tested": {
                "count": len(res["tested"]),
                "statuses": dict(collections.Counter(t["status"] for t in res["tested"])),
                "sha256": hashlib.sha256(tested.encode()).hexdigest(),
            },
        })
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_work_matches_golden(golden):
    got = [r for case in cases() for r in records(*case)]
    assert [r["name"] for r in got] == [r["name"] for r in golden]
    for g, w in zip(got, golden):
        assert json.dumps(g, sort_keys=True) == json.dumps(w, sort_keys=True), g["name"]


if __name__ == "__main__":
    out = [r for case in cases() for r in records(*case)]
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} records to {GOLDEN}")
