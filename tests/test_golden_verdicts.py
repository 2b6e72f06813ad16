"""The classical oracles reproduce committed verdicts on a seeded corpus.

``data/golden_verdicts.json`` holds, for every pair of ``corpus()``, the
``to_json()`` of ``thermo_majorizes``, ``gibbs_stochastic_feasible`` and
``decide_catalytic(max_cat_dim=3, grid_steps=16)``.  The corpus covers
random pairs at d = 1..6, degenerate levels and tied ratios, fig1-style
spiked Hamiltonians, products with a trivial-Hamiltonian uniform catalyst in
both orders, the Jonathan-Plenio pair, one pair at d = 1024 in both directions
and, at d = 1024, a chain of near-tied ratios whose ends are not tied.  Statuses,
witness kinds, ``checked_points`` and catalyst probabilities must match
exactly; every other number within 1e-9.

Rewrite the file with ``PYTHONPATH=src python tests/test_golden_verdicts.py``
only when a verdict is meant to change.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from thermowork.core import ClassicalObject, classical_gibbs, classical_tensor
from thermowork.feasibility import decide_catalytic, gibbs_stochastic_feasible, thermo_majorizes
from thermowork.sampling import random_classical_object, random_gibbs_stochastic, rng_from_seed

GOLDEN = Path(__file__).parent / "data" / "golden_verdicts.json"
SEED = 20130604
BETAS = (0.5, 1.0, 2.0)
#: Pairs with more than LP_MAX_DIM ** 2 map entries skip gibbs_stochastic_feasible, as they did
#: when it solved a dense LP.
LP_MAX_DIM = 64
FLOAT_TOL = 1e-9
#: Floats under these keys must match exactly; strings and ints always do.
EXACT_KEYS = {"catalyst_probs"}


def _uniform(k: int) -> ClassicalObject:
    return ClassicalObject(np.full(k, 1.0 / k), np.zeros(k))


def _image(rng, src: ClassicalObject, beta: float) -> ClassicalObject:
    """A target reachable from ``src`` by a random Gibbs-stochastic map."""
    g_map = random_gibbs_stochastic(rng, src.energies, beta)
    return ClassicalObject(g_map @ src.probs, src.energies)


def corpus() -> list:
    """(name, src, dst, beta) for every pair, drawn from SEED."""
    rng = rng_from_seed(SEED)
    cases = []
    for d in range(1, 7):
        for i in range(16):
            beta = float(rng.choice(BETAS))
            src = random_classical_object(rng, d, energy_scale=2.0)
            if d > 1 and i % 2 == 0:
                dst = _image(rng, src, beta)
            else:
                dst = random_classical_object(rng, d, energy_scale=2.0)
            cases.append((f"random-d{d}-{i}", src, dst, beta))
    for i in range(40):
        d = int(rng.integers(2, 7))
        beta = float(rng.choice(BETAS))
        energies = rng.integers(0, 3, size=d).astype(float)
        weights = rng.integers(0, 4, size=d).astype(float)
        weights[0] += 1.0
        src = ClassicalObject(weights / weights.sum(), energies)
        if i % 4 == 0:
            dst = classical_gibbs(energies, beta)
        elif i % 4 == 1:
            src, dst = classical_gibbs(energies, beta), src
        elif i % 4 == 2:
            dst = _image(rng, src, beta)
        else:
            other = rng.integers(0, 4, size=d).astype(float)
            other[-1] += 1.0
            dst = ClassicalObject(other / other.sum(), energies)
        cases.append((f"degenerate-d{d}-{i}", src, dst, beta))
    for d in range(1, 6):
        energies = np.concatenate([[0.0], np.ones(d)])
        ground = ClassicalObject(np.concatenate([[1.0], np.zeros(d)]), energies)
        excited = ClassicalObject(np.concatenate([[0.0], np.full(d, 1.0 / d)]), energies)
        cases.append((f"fig1-d{d}", ground, excited, 1.0))
        cases.append((f"fig1-d{d}-reverse", excited, ground, 1.0))
    for i in range(20):
        d, k = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        beta = float(rng.choice(BETAS))
        src = random_classical_object(rng, d)
        dst = _image(rng, src, beta) if i % 2 == 0 else random_classical_object(rng, d)
        u = _uniform(k)
        cases.append((f"tensor-d{d}-k{k}-{i}", classical_tensor(src, u),
                      classical_tensor(dst, u), beta))
        cases.append((f"tensor-k{k}-d{d}-{i}", classical_tensor(u, src),
                      classical_tensor(u, dst), beta))
    jp_src = ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4))
    jp_dst = ClassicalObject([0.4, 0.4, 0.1, 0.1], np.zeros(4))
    cases.append(("jonathan-plenio", jp_src, jp_dst, 1.0))
    big = random_classical_object(rng, 1024, energy_scale=5.0)
    mixed = ClassicalObject(0.7 * big.probs + 0.3 * big.gibbs_weights(1.0), big.energies)
    cases.append(("d1024-thermalize", big, mixed, 1.0))
    cases.append(("d1024-reverse", mixed, big, 1.0))
    # neighbouring ratios tied, the chain's ends far apart: the Gibbs state
    # cannot reach it
    chain = ClassicalObject((1 + 0.9e-9 * (np.arange(1024) - 511.5)) / 1024, np.zeros(1024))
    cases.append(("d1024-near-tie-chain", _uniform(1024), chain, 1.0))
    return cases


def verdicts(src, dst, beta) -> dict:
    lp = None
    if src.dim * dst.dim <= LP_MAX_DIM ** 2:
        lp = gibbs_stochastic_feasible(src, dst, beta).to_json()
    return {
        "thermo_majorizes": thermo_majorizes(src, dst, beta).to_json(),
        "gibbs_stochastic_feasible": lp,
        "decide_catalytic": decide_catalytic(src, dst, beta, max_cat_dim=3,
                                             grid_steps=16).to_json(),
    }


def _mismatch(got, want, path="", exact=False):
    """The path of the first difference between two JSON values, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return path
        for key in want:
            bad = _mismatch(got[key], want[key], f"{path}/{key}", exact or key in EXACT_KEYS)
            if bad is not None:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _mismatch(g, w, f"{path}[{i}]", exact)
            if bad is not None:
                return bad
        return None
    if isinstance(want, float) and not exact:
        ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=0.0,
                                                            abs_tol=FLOAT_TOL)
        return None if ok else path
    return None if type(got) is type(want) and got == want else path


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_shape():
    cases = corpus()
    dims = {src.dim for _, src, _, _ in cases}
    assert 180 <= len(cases) <= 220
    assert set(range(1, 7)) <= dims and 1024 in dims


def test_mismatch_finds_differences():
    assert _mismatch({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}) is None
    assert _mismatch({"a": [1.0, "x"]}, {"a": [1.1, "x"]}) == "/a[0]"
    assert _mismatch({"checked_points": 3}, {"checked_points": 4}) == "/checked_points"
    assert _mismatch({"catalyst_probs": [0.5]}, {"catalyst_probs": [0.5 + 1e-12]}) is not None


def test_verdicts_match_golden(golden):
    cases = corpus()
    assert [name for name, *_ in cases] == [entry["name"] for entry in golden]
    for (name, src, dst, beta), entry in zip(cases, golden):
        assert entry["beta"] == beta, name
        got = json.loads(json.dumps(verdicts(src, dst, beta)))
        want = {key: entry[key] for key in got}
        assert _mismatch(got, want) is None, f"{name}: {_mismatch(got, want)}"


if __name__ == "__main__":
    records = [{"name": name, "beta": beta, **verdicts(src, dst, beta)}
               for name, src, dst, beta in corpus()]
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
