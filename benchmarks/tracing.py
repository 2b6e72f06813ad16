"""Per-layer tracing from outside the library.

While a traced pass runs, the listed thermowork functions are replaced by
wrappers in every thermowork module namespace that binds them, and methods
on their classes.  Each wrapped call inside an operation records a span
(name, start, end, parent, operation) in flat arrays kept in memory; the
originals are restored when the pass ends, and the spans are written to a
file afterwards.  Self time is a span's duration minus that of its direct
children; ``bench.self_ms`` is the time inside operations that no wrapped
function covers.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# module -> module-level functions to wrap
FUNCTIONS = {
    "core": ("classical_tensor", "gibbs_weights", "gibbs_state"),
    "divergences": ("delta_F_alpha", "classical_renyi_divergence", "renyi_divergence"),
    "feasibility": ("thermo_curve", "thermo_majorizes", "gibbs_stochastic_feasible",
                    "catalytic_necessary", "catalytic_bruteforce", "decide_catalytic",
                    "decide_free"),
    "quantifiers": ("work_of_transition", "check_free_nonpositivity", "work_value", "work_cost"),
    "scenarios": ("run_fig1", "run_wbit_violation", "run_irreversibility",
                  "superadditivity_violation_search", "run_lifted_weight",
                  "run_two_point_measurement", "run_cyclic_free_sequence"),
}
SCENARIO_FUNCTIONS = FUNCTIONS["scenarios"]


def _stage(verdict) -> str:
    if verdict.is_undetermined:
        return "undetermined"
    kind = verdict.witness.get("kind")
    return {"curve_dominance": "direct", "monotone_increase": "monotone",
            "catalyst": "search"}.get(kind, str(kind))


# Summaries kept from the return value of some functions, for ratio counters.
OUTCOMES = {
    "catalytic_necessary": lambda v: v.is_infeasible,
    "catalytic_bruteforce": lambda v: v.is_feasible,
    "decide_catalytic": _stage,
    "work_of_transition": lambda r: (len(r["tested"]), r["certificate"] is not None),
    "check_free_nonpositivity": lambda r: (r.samples, r.skipped),
    "superadditivity_violation_search": lambda r: r.derived["states_tested"]["value"],
}


class Tracer:
    """Spans and return-value summaries of the wrapped calls of one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.module_of: dict[str, str] = {}
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_op = array("l")
        self.outcomes: dict[str, list] = {}
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.op_seconds = 0.0  # summed wall time of the traced operations
        self.numeric_warnings = 0  # RuntimeWarnings raised inside the traced operations
        self._restore: list = []

    def _id(self, module: str, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.module_of[name] = module
        return self.name_id[name]

    def _wrap(self, fn, module: str, name: str):
        nid = self._id(module, name)
        outcome = OUTCOMES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if outcome is not None:
                tracer.outcomes.setdefault(name, []).append(outcome(result))
            return result

        return wrapper

    def install(self, tw) -> None:
        """Wrap every listed function wherever a thermowork module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "thermowork" or key.startswith("thermowork."))]
        for mod_name, names in FUNCTIONS.items():
            home = getattr(tw, mod_name)
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, mod_name, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        core, quant = tw.core, tw.quantifiers
        methods = [(core.ClassicalObject, "__post_init__", "core", "ClassicalObject"),
                   (core.ThermoObject, "__post_init__", "core", "ThermoObject"),
                   (quant.WorkQuantifier, "work", "quantifiers", "WorkQuantifier.work"),
                   (quant.WorkQuantifier, "__call__", "quantifiers", "WorkQuantifier.work")]
        pending = [quant.RestrictionSet]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "candidates" in vars(cls):
                methods.append((cls, "candidates", "quantifiers", "RestrictionSet.candidates"))
        for cls, attr, mod_name, name in methods:
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, mod_name, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "modules": np.array([self.module_of[n] for n in self.names]),
            "name": np.frombuffer(self.span_name, dtype=np.int_),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int_),
            "op": np.frombuffer(self.span_op, dtype=np.int_),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

MODULES = ("core", "divergences", "feasibility", "quantifiers", "scenarios")

#: (metric name, unit, better) in the order they are printed.
METRICS = (
    [(f"{m}.self_ms", "ms", "lower") for m in MODULES + ("bench",)]
    + [(f"core.{n}.{k}", u, "lower") for n in ("ClassicalObject", "classical_tensor",
                                               "gibbs_weights", "ThermoObject", "gibbs_state")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("divergences.delta_F_alpha.calls", "count", "lower"),
       ("divergences.delta_F_alpha.self_ms", "ms", "lower"),
       ("divergences.classical_renyi_divergence.self_ms", "ms", "lower"),
       ("divergences.renyi_divergence.calls", "count", "lower"),
       ("divergences.renyi_divergence.self_ms", "ms", "lower"),
       ("divergences.numeric_warnings", "count", "lower")]
    + [(f"feasibility.{n}.{k}", u, "lower") for n in ("thermo_curve", "thermo_majorizes",
                                                      "gibbs_stochastic_feasible")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("feasibility.catalytic_necessary.calls", "count", "lower"),
       ("feasibility.catalytic_necessary.self_ms", "ms", "lower"),
       ("feasibility.catalytic_necessary.orders_per_call", "count", "lower"),
       ("feasibility.catalytic_necessary.infeasible_ratio", "ratio", "higher"),
       ("feasibility.catalytic_bruteforce.calls", "count", "lower"),
       ("feasibility.catalytic_bruteforce.self_ms", "ms", "lower"),
       ("feasibility.catalytic_bruteforce.catalysts_per_call", "count", "lower"),
       ("feasibility.catalytic_bruteforce.feasible_ratio", "ratio", "higher"),
       ("feasibility.decide_catalytic.calls", "count", "lower"),
       ("feasibility.decide_catalytic.self_ms", "ms", "lower"),
       ("feasibility.decide_catalytic.decided_direct", "count", "higher"),
       ("feasibility.decide_catalytic.decided_monotone", "count", "higher"),
       ("feasibility.decide_catalytic.decided_search", "count", "higher"),
       ("feasibility.decide_catalytic.undetermined", "count", "lower"),
       ("quantifiers.work_of_transition.calls", "count", "lower"),
       ("quantifiers.work_of_transition.self_ms", "ms", "lower"),
       ("quantifiers.work_of_transition.pairs_tested_per_call", "count", "lower"),
       ("quantifiers.work_of_transition.certified_ratio", "ratio", "higher"),
       ("quantifiers.WorkQuantifier.work.calls", "count", "lower"),
       ("quantifiers.WorkQuantifier.work.self_ms", "ms", "lower"),
       ("quantifiers.RestrictionSet.candidates.self_ms", "ms", "lower"),
       ("quantifiers.check_free_nonpositivity.calls", "count", "lower"),
       ("quantifiers.check_free_nonpositivity.self_ms", "ms", "lower"),
       ("quantifiers.check_free_nonpositivity.skipped_ratio", "ratio", "lower")]
    + [(f"scenarios.{n}.self_ms", "ms", "lower") for n in SCENARIO_FUNCTIONS]
    + [("scenarios.superadditivity_violation_search.states_tested", "count", "lower"),
       ("cli.import_thermowork_ms", "ms", "lower"),
       ("cli.import_scipy_optimize_ms", "ms", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_values(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, keyed by metric name
    (without the cli.* and trace.* entries, which come from elsewhere)."""
    a = tracer.arrays()
    names, name, parent = list(a["names"]), a["name"], a["parent"]
    dur = a["end"] - a["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_ms = (dur - child) * 1e3
    calls = {n: int(np.sum(name == i)) for i, n in enumerate(names)}
    self_by = {n: float(np.sum(self_ms[name == i])) for i, n in enumerate(names)}

    def count_children(child_name: str, parent_name: str) -> int:
        if child_name not in tracer.name_id or parent_name not in tracer.name_id:
            return 0
        c, p = tracer.name_id[child_name], tracer.name_id[parent_name]
        sel = (name == c) & nested
        return int(np.sum(name[parent[sel]] == p))

    out = {f"{m}.self_ms": sum(self_by[n] for n in names if tracer.module_of[n] == m)
           for m in MODULES}
    out["bench.self_ms"] = (tracer.op_seconds - float(np.sum(dur[~nested]))) * 1e3
    out["divergences.numeric_warnings"] = tracer.numeric_warnings
    for full, _, _ in METRICS:
        module, rest = full.split(".", 1)
        base, _, field = rest.rpartition(".")
        if field == "calls":
            out[full] = calls.get(base, 0)
        elif field == "self_ms" and base:
            out[full] = self_by.get(base, 0.0)
    res = tracer.outcomes
    nec = res.get("catalytic_necessary", [])
    out["feasibility.catalytic_necessary.orders_per_call"] = _ratio(
        count_children("delta_F_alpha", "catalytic_necessary") / 2, len(nec))
    out["feasibility.catalytic_necessary.infeasible_ratio"] = _ratio(sum(nec), len(nec))
    brute = res.get("catalytic_bruteforce", [])
    out["feasibility.catalytic_bruteforce.catalysts_per_call"] = _ratio(
        count_children("classical_tensor", "catalytic_bruteforce") / 2, len(brute))
    out["feasibility.catalytic_bruteforce.feasible_ratio"] = _ratio(sum(brute), len(brute))
    stages = res.get("decide_catalytic", [])
    for stage in ("direct", "monotone", "search"):
        out[f"feasibility.decide_catalytic.decided_{stage}"] = stages.count(stage)
    out["feasibility.decide_catalytic.undetermined"] = stages.count("undetermined")
    wot = res.get("work_of_transition", [])
    out["quantifiers.work_of_transition.pairs_tested_per_call"] = _ratio(
        sum(t for t, _ in wot), len(wot))
    out["quantifiers.work_of_transition.certified_ratio"] = _ratio(
        sum(c for _, c in wot), len(wot))
    sweeps = res.get("check_free_nonpositivity", [])
    out["quantifiers.check_free_nonpositivity.skipped_ratio"] = _ratio(
        sum(k for _, k in sweeps), sum(s for s, _ in sweeps))
    out["scenarios.superadditivity_violation_search.states_tested"] = sum(
        res.get("superadditivity_violation_search", []))
    return out
