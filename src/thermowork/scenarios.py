"""Scripted end-to-end runs of the framework's worked examples.

Each scenario builds its inputs from a small config, runs the relevant
operations, and returns a ScenarioReport whose numbers all carry the name
of the operation that produced them.  Reports are bit-reproducible for a
fixed config and seed; wall-clock metadata never enters report.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    _ptrace_matrix,
    check_unitary,
    classical_gibbs,
    classical_is_gibbs,
    classical_to_json,
    classical_to_object,
    gibbs_state,
    gibbs_weights,
    local_sum,
)
from .divergences import BetaContext, as_beta, classical_renyi_divergences, delta_F_alpha
from .feasibility import (
    FeasibilityVerdict,
    _compositions,
    _json_safe,
    thermo_curve,
    thermo_majorizes,
)
from .quantifiers import (
    EpsilonDet,
    RenyiFreeEnergy,
    WorkQuantifier,
    correlated_second_law_bounds,
    swap_cycle_sequence,
    work_cost,
    work_of_transition,
)
from .sampling import _DEGENERACY_TOL, rng_from_seed

LADDER_RESOLUTION_TOL = 1e-9
COVARIANCE_TOL = 1e-9
MEAN_BALANCE_TOL = 1e-9
#: fig1 notes the boundary case d = exp(beta delta) when they differ by at most this.
_BOUNDARY_TOL = 1e-9
#: The least work of a value candidate that irreversibility counts as positive.
_POSITIVE_WORK = 1e-12
#: irreversibility's gap is strict when the work value plus this stays below Delta F_1.
_STRICT_GAP = 1e-9
#: superadditivity_violation_search takes a gap below minus this as a witness.
_WITNESS_GAP = 1e-6
#: The most a breach margin may differ from the gap it equals.
_MARGIN_TOL = 1e-9
#: Energies within this are equal: the ladder's origin, the work values of merged TPM events.
_ENERGY_EQ_TOL = 1e-12
#: TPM events of at most this probability are dropped.
_EVENT_FLOOR = 1e-16
#: The event-averaged ladder state is mixed when no population reaches 1 minus this.
_PURE_TOL = 1e-12


class LadderResolutionError(ValueError):
    """A work value is not representable on the configured ladder."""


@dataclass
class ScenarioReport:
    """Inputs, derived numbers (with provenance), verdicts and tables.

    ``breaches`` collects failures of the scenario's own assertions (as
    opposed to findings the scenario exists to produce); the CLI maps a
    non-empty list to its violation exit code.
    """

    scenario_name: str
    inputs: dict
    derived: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    breaches: list = field(default_factory=list)

    def add_derived(self, name: str, value, op: str):
        self.derived[name] = {"value": _json_safe(value), "op": op}

    def add_verdict(self, label: str, verdict: FeasibilityVerdict):
        self.verdicts.append({"label": label, **verdict.to_json()})

    def add_table(self, name: str, header: str, rows):
        self.tables[name] = [header] + list(rows)

    def add_breach(self, description: str, witness):
        self.breaches.append({"description": description, "witness": _json_safe(witness)})

    def config_hash(self) -> str:
        blob = json.dumps(_json_safe(self.inputs), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "scenario_name": self.scenario_name,
            "inputs": _json_safe(self.inputs),
            "derived": self.derived,
            "verdicts": self.verdicts,
            "tables": self.tables,
            "notes": self.notes,
            "breaches": self.breaches,
        }

    def write(self, output_dir) -> Path:
        """Write report.json plus one CSV per table; returns the directory."""
        target = Path(output_dir) / f"{self.scenario_name}-{self.config_hash()}"
        target.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"
        (target / "report.json").write_text(payload)
        for name, rows in self.tables.items():
            (target / f"{name}.csv").write_text("\n".join(rows) + "\n")
        return target


def _spike_hamiltonian(delta: float, d: int):
    """Unique ground level plus a d-fold degenerate level at delta."""
    return np.concatenate([[0.0], np.full(d, delta)])


def run_fig1(beta: float, delta: float, d: int) -> ScenarioReport:
    """Entropy-sink example: reset the ground state of a spiked Hamiltonian
    to the uniform distribution over its d excited levels.

    Reports the Gibbs ground probability, the reachability verdict of the
    reset, both thermomajorization curves, and the free-energy drop that
    witnesses the move toward equilibrium.
    """
    if d < 1 or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    report = ScenarioReport("fig1", {"beta": beta, "delta": delta, "d": d})
    energies = _spike_hamiltonian(delta, d)
    ground = ClassicalObject(np.concatenate([[1.0], np.zeros(d)]), energies)
    excited = ClassicalObject(np.concatenate([[0.0], np.full(d, 1.0 / d)]), energies)
    p_g = 1.0 / (1.0 + d * math.exp(-beta * delta))
    gibbs = classical_gibbs(energies, beta)
    report.add_derived("gibbs_ground_probability", float(gibbs.probs[0]), "gibbs_state")
    report.add_derived("gibbs_ground_probability_formula", p_g, "closed_form")
    verdict = thermo_majorizes(ground, excited, beta)
    report.add_verdict("ground_to_uniform_excited", verdict)
    threshold = math.exp(beta * delta)
    report.add_derived("reset_threshold_exp_beta_delta", threshold, "closed_form")
    if abs(d - threshold) <= _BOUNDARY_TOL:
        report.notes.append(
            "boundary case d == exp(beta*delta): curve dominance counts touching "
            "curves as Feasible; the strict-inequality convention would say Infeasible")
    df_before = delta_F_alpha(ground, beta, 1.0)
    df_after = delta_F_alpha(excited, beta, 1.0)
    report.add_derived("delta_F1_before", df_before, "delta_F_alpha")
    report.add_derived("delta_F1_after", df_after, "delta_F_alpha")
    report.add_derived("delta_F1_drop", df_before - df_after, "delta_F_alpha")
    src_curve = thermo_curve(ground, beta)
    dst_curve = thermo_curve(excited, beta)
    report.add_table("curve_source", "x,y", src_curve.to_csv_rows())
    report.add_table("curve_target", "x,y", dst_curve.to_csv_rows())
    return report


def run_wbit_violation(beta: float, epsilon: float, delta_grid=None) -> ScenarioReport:
    """Scan gap sizes for a free transition that stores deterministic work.

    For epsilon > 0 small gaps admit a thermal reset of the ground state to
    a (1-epsilon)-excited mixture, so the energy-difference work function
    assigns positive work to a free transition; at epsilon = 0 no gap on the
    grid does.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    if delta_grid is None:
        delta_grid = np.logspace(-3, math.log10(0.2), 64)
    delta_grid = np.asarray(sorted(delta_grid), dtype=float)
    report = ScenarioReport("wbit_violation", {
        "beta": beta, "epsilon": epsilon,
        "delta_grid": [float(x) for x in delta_grid],
    })
    rows = []
    best = None
    for gap in delta_grid:
        energies = np.array([0.0, gap])
        src = ClassicalObject([1.0, 0.0], energies)
        dst = ClassicalObject([epsilon, 1.0 - epsilon], energies)
        verdict = thermo_majorizes(src, dst, beta)
        rows.append(f"{gap!r},{verdict.status.value}")
        if verdict.is_feasible:
            best = (gap, verdict)
    report.add_table("delta_scan", "delta,verdict", rows)
    if best is not None and epsilon > 0:
        gap, verdict = best
        report.add_verdict(f"ground_to_mixture_delta={gap!r}", verdict)
        report.add_derived("largest_feasible_delta", gap, "thermo_majorizes")
        # The stored work equals the gap: f jumps from 0 to delta across the
        # transition while the oracle certifies it free.
        report.add_derived("wdet_work_on_free_transition", gap, "wdet_quantifier")
        report.add_derived("violation_found", True, "check_free_nonpositivity")
    else:
        report.add_derived("violation_found", False, "check_free_nonpositivity")
        if best is not None:
            report.add_derived("largest_feasible_delta", best[0], "thermo_majorizes")
    return report


def run_irreversibility(beta: float, p_m: ClassicalObject, delta: float = 1.0,
                        grid: int = 8) -> ScenarioReport:
    """Work value vs work cost under the zero-epsilon eigenstate restriction.

    A full-rank non-Gibbs fuel cannot push the work bit to a pure eigenstate,
    so its certified work value is 0; creating it still costs at least its
    von Neumann free energy.  The strict gap is the irreversibility.
    """
    beta = as_beta(beta)
    if classical_is_gibbs(p_m, beta):
        raise ValueError("fuel object is Gibbs: no gap exists")
    if np.min(p_m.probs) <= 0:
        raise ValueError("fuel object must be full rank")
    report = ScenarioReport("irreversibility", {
        "beta": beta, "delta": delta,
        "p_m": classical_to_json(p_m),
    })
    ctx = BetaContext(beta)
    restriction = EpsilonDet(0.0, delta)
    quantifier = WorkQuantifier(RenyiFreeEnergy(1.0, ctx))
    omega = classical_gibbs(p_m.energies, beta)
    value = work_of_transition(quantifier, restriction, p_m, omega, beta, grid=grid)
    report.add_derived("work_value", value["lower_bound"], "work_of_transition")
    candidate_rows = []
    for entry in value["tested"]:
        candidate_rows.append(f"{entry['work']!r},{entry['status']}")
    report.add_table("value_candidates", "work,status", candidate_rows)
    positive_undecided = [e for e in value["tested"]
                          if e["work"] > _POSITIVE_WORK and e["status"] != "Infeasible"]
    report.add_derived("all_positive_candidates_infeasible",
                       not positive_undecided, "decide_catalytic")
    df1 = delta_F_alpha(p_m, beta, 1.0)
    report.add_derived("cost_lower_bound_delta_F1", df1, "delta_F_alpha")
    cost = work_cost(quantifier, restriction, p_m, beta, grid=grid)
    report.add_derived("work_cost_estimate", cost["cost"], "work_cost")
    gap_ok = value["lower_bound"] + _STRICT_GAP < df1
    report.add_derived("strict_gap", bool(gap_ok), "second_law_check")
    if not gap_ok:
        report.add_breach("no strict gap between work value and cost bound",
                          {"value": value["lower_bound"], "cost_bound": df1})
    if value["certificate"] is not None:
        report.add_verdict("value_certificate", value["certificate"].feasibility)
    return report


def superadditivity_violation_search(alpha: float, dims=(2, 2), grid_steps: int = 16,
                                     beta: float = 1.0, seed: int = 0,
                                     budget: int = 4000) -> ScenarioReport:
    """Hunt for correlated classical states whose order-alpha free energy is
    not super-additive, then certify the induced second-law breach.

    Searches trivial-Hamiltonian bipartite distributions on a simplex grid
    (falling back to seeded random sampling when the grid is too large).
    alpha = 1 admits no witness; the scan then reports the most negative gap
    seen, which stays above -1e-9.
    """
    da, db = (int(x) for x in dims)
    if da > 4 or db > 4:
        raise ValueError("dims capped at (4, 4)")
    report = ScenarioReport("superadditivity_search", {
        "alpha": "inf" if math.isinf(alpha) else alpha,
        "dims": [da, db], "grid_steps": grid_steps,
        "beta": beta, "seed": seed, "budget": budget,
    })
    monotone = RenyiFreeEnergy(alpha, BetaContext(beta))
    n = da * db
    e_a, e_b, e_joint = np.zeros(da), np.zeros(db), np.zeros(n)
    g_ab, g_a, g_b = (gibbs_weights(e, beta) for e in (e_joint, e_a, e_b))

    def delta_F(probs, g):  # delta_F_alpha of each row of probabilities at zero energies
        rows = classical_renyi_divergences(probs, np.broadcast_to(g, probs.shape), (alpha,))
        return np.array(rows).reshape(-1) / beta

    if math.comb(grid_steps + n - 1, n - 1) <= budget:
        states = _compositions(grid_steps, n) / grid_steps
    else:
        rng = rng_from_seed(seed)
        states = np.array([rng.dirichlet(np.ones(n)) for _ in range(budget)]).reshape(-1, n)
    joint = states.reshape(-1, da, db)
    gaps = np.concatenate(([math.inf], delta_F(states, g_ab) - delta_F(joint.sum(axis=2), g_a)
                           - delta_F(joint.sum(axis=1), g_b)))
    best = int(np.argmin(gaps))  # the first of the smallest gaps; 0 if none is below inf
    best_gap, witness = float(gaps[best]), states[best - 1] if best else None
    report.add_derived("states_tested", len(states), "grid_search")
    report.add_derived("min_gap", best_gap, "check_superadditivity")
    if best_gap < -_WITNESS_GAP:
        p_ab_obj = classical_to_object(ClassicalObject(witness, e_joint))
        locals_ = (HamiltonianClass(np.diag(e_a)), HamiltonianClass(np.diag(e_b)))
        ni = NonInteractingObject(p_ab_obj, (da, db), locals_)
        bounds = correlated_second_law_bounds(monotone, ni)
        report.add_derived("witness_probs", [float(x) for x in witness], "grid_search")
        report.add_derived("cost_upper", bounds["cost_upper"], "correlated_second_law_bounds")
        report.add_derived("value_lower", bounds["value_lower"], "correlated_second_law_bounds")
        report.add_derived("breach", bounds["breach"], "correlated_second_law_bounds")
        report.add_derived("breach_margin_equals_gap",
                           bool(abs((bounds["value_lower"] - bounds["cost_upper"])
                                    - (-best_gap)) <= _MARGIN_TOL),
                           "correlated_second_law_bounds")
    report.add_derived("witness_found", best_gap < -_WITNESS_GAP, "grid_search")
    return report


# ---------------------------------------------------------------------------
# Lifted weight on a finite cyclic ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderStep:
    """One protocol step: a unitary on ladder (x) bath, covariant on the ladder.

    ``assisted`` marks steps driven by an external source, which are exempt
    from the free-step energy bookkeeping (the source pays).
    """

    unitary: np.ndarray
    bath_hamiltonian: HamiltonianClass | None = None
    assisted: bool = False
    label: str = "step"


def shift_operator(levels: int) -> np.ndarray:
    """Cyclic raise |x> -> |x+1 mod L| on the ladder."""
    return np.roll(np.eye(levels), 1, axis=0)


def identity_step(levels: int) -> LadderStep:
    return LadderStep(np.eye(levels), label="identity")


def raise_step(levels: int) -> LadderStep:
    """Deterministic one-step raise; covariant but requires a source."""
    return LadderStep(shift_operator(levels), assisted=True, label="raise")


def thermal_exchange_step(levels: int, spacing: float) -> LadderStep:
    """Exchange one quantum with a resonant Gibbs qubit.

    U = T (x) |0><1| + T+ (x) |1><0| commutes with the ladder shift and
    conserves energy exactly away from the cyclic wrap.
    """
    t_op = shift_operator(levels)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    raise_b = lower.T
    u = np.kron(t_op, lower) + np.kron(t_op.T, raise_b)
    bath = HamiltonianClass(np.diag([0.0, spacing]))
    return LadderStep(u, bath_hamiltonian=bath, label="thermal_exchange")


def run_lifted_weight(levels: int, spacing: float, protocol, beta: float,
                      initial_level: int | None = None) -> ScenarioReport:
    """Drive a cyclic-ladder weight through a protocol of covariant steps.

    Rejects non-covariant unitaries; free (bath-assisted or bare) steps must
    conserve total mean energy and may never raise the weight's mean energy.
    Assisted steps report the work their source deposited.
    """
    if levels < 3:
        raise ValueError("need at least 3 ladder levels")
    beta = as_beta(beta)
    x0 = levels // 2 if initial_level is None else int(initial_level)
    report = ScenarioReport("lifted_weight", {
        "levels": levels, "spacing": spacing, "beta": beta,
        "initial_level": x0, "steps": [s.label for s in protocol],
    })
    report.notes.append("approximation: cyclic ladder stands in for the unbounded weight")
    energies = spacing * np.arange(levels)
    h_a = HamiltonianClass(np.diag(energies))
    t_op = shift_operator(levels)
    state = np.zeros((levels, levels), dtype=complex)
    state[x0, x0] = 1.0
    rows = []
    step_ok = []

    def mean(rho):
        return float(np.real(np.trace(rho @ np.diag(energies))))

    for k, step in enumerate(protocol):
        d_b = 1 if step.bath_hamiltonian is None else step.bath_hamiltonian.dim
        u = check_unitary(step.unitary, f"step {k} ({step.label})")
        if u.shape[0] != levels * d_b:
            raise ValueError(f"step {k}: unitary dimension {u.shape[0]} != {levels * d_b}")
        comm = u @ np.kron(t_op, np.eye(d_b)) - np.kron(t_op, np.eye(d_b)) @ u
        cov = float(np.max(np.abs(comm)))
        if cov > COVARIANCE_TOL:
            raise ValueError(f"step {k} ({step.label}): unitary is not covariant "
                             f"under the ladder shift ({cov:.3e})")
        e_before = mean(state)
        if step.bath_hamiltonian is None:
            joint_before = state
            joint_after = u @ state @ u.conj().T
            new_state = joint_after
            balance = mean(new_state) - e_before
        else:
            omega_b = gibbs_state(step.bath_hamiltonian, beta).state
            joint_before = np.kron(state, omega_b)
            joint_after = u @ joint_before @ u.conj().T
            h_tot = local_sum([np.diag(energies), step.bath_hamiltonian.matrix])
            balance = float(np.real(np.trace((joint_after - joint_before) @ h_tot)))
            new_state = _ptrace_matrix(joint_after, (levels, d_b), [0])
        new_state = 0.5 * (new_state + new_state.conj().T)
        new_state /= np.real(np.trace(new_state))
        w_mean = mean(new_state) - e_before
        ok = step.assisted or w_mean <= MEAN_BALANCE_TOL
        if not step.assisted and abs(balance) > MEAN_BALANCE_TOL:
            report.notes.append(
                f"step {k} ({step.label}): total mean energy drifted by {balance:.3e}; "
                "state reached the cyclic wrap")
        rows.append(f"{k},{step.label},{w_mean!r},{balance!r},{step.assisted},{ok}")
        step_ok.append(ok)
        if not ok:
            report.add_derived(f"violation_step_{k}", w_mean, "run_lifted_weight")
            report.add_breach("free covariant step raised the weight's mean energy",
                              {"step": k, "label": step.label, "w_mean": w_mean})
        state = new_state
    report.add_table("steps", "index,label,w_mean,energy_balance,assisted,ok", rows)
    report.add_derived("final_mean_energy", mean(state), "run_lifted_weight")
    report.add_derived("monotone_ok", all(step_ok), "run_lifted_weight")
    return report


# ---------------------------------------------------------------------------
# Two-point measurement bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoPointProcess:
    """A unitary process bracketed by two energy measurements, plus the
    position ladder that records each work outcome."""

    system_hamiltonian: HamiltonianClass
    process_unitary: np.ndarray
    initial_state: np.ndarray
    ladder: ClassicalObject

    def __post_init__(self):
        check_unitary(self.process_unitary, "TwoPointProcess.process_unitary")
        diffs = np.diff(self.ladder.energies)
        if np.any(diffs <= 0):
            raise ValueError("ladder energies must be strictly increasing")
        # validates Hermiticity, positivity, trace
        ThermoObject(self.initial_state, self.system_hamiltonian)


def run_two_point_measurement(proc: TwoPointProcess) -> ScenarioReport:
    """Two-point-measurement work distribution and its ladder bookkeeping.

    Computes P_W over eigenvalue differences, maps every event to a pure
    ladder transition whose stored work is exactly the measured w, and also
    reports the event-averaged mixed ladder state, flagging that it falls
    outside the pure-ladder restriction set.
    """
    h = proc.system_hamiltonian
    evals, evecs = np.linalg.eigh(h.matrix)
    if np.min(np.diff(evals)) <= _DEGENERACY_TOL:
        raise ValueError("system Hamiltonian must have a non-degenerate spectrum")
    report = ScenarioReport("two_point_measurement", {
        "dim": h.dim,
        "system_energies": [float(x) for x in evals],
        "ladder_energies": [float(x) for x in proc.ladder.energies],
    })
    rho = np.asarray(proc.initial_state, dtype=complex)
    p_init = np.real(np.einsum("ij,jk,ki->i", evecs.conj().T, rho, evecs))
    amp = evecs.conj().T @ proc.process_unitary @ evecs
    cond = np.abs(amp) ** 2  # cond[f, i] = P(f | i)
    ladder_e = proc.ladder.energies
    origin_hits = np.where(np.abs(ladder_e) <= _ENERGY_EQ_TOL)[0]
    if len(origin_hits) == 0:
        raise LadderResolutionError("ladder has no zero-energy origin level")
    origin = int(origin_hits[0])
    events = {}
    for i in range(h.dim):
        for f in range(h.dim):
            prob = float(p_init[i] * cond[f, i])
            if prob <= _EVENT_FLOOR:
                continue
            w = float(evals[f] - evals[i])
            for key in events:
                if abs(key - w) <= _ENERGY_EQ_TOL:
                    w = key
                    break
            events[w] = events.get(w, 0.0) + prob
    rows = []
    ladder_mix = np.zeros(proc.ladder.dim)
    for w in sorted(events):
        prob = events[w]
        hits = np.where(np.abs(ladder_e - w) <= LADDER_RESOLUTION_TOL)[0]
        if len(hits) == 0:
            raise LadderResolutionError(f"work value {w} not representable on the ladder")
        target = int(hits[0])
        ladder_work = float(ladder_e[target] - ladder_e[origin])
        ladder_mix[target] += prob
        rows.append(f"{w!r},{prob!r},{origin},{target},{ladder_work!r}")
    report.add_table("work_distribution", "w,probability,ladder_from,ladder_to,ladder_work", rows)
    total = float(sum(events.values()))
    report.add_derived("total_probability", total, "run_two_point_measurement")
    report.add_derived("n_outcomes", len(events), "run_two_point_measurement")
    mixed = bool(np.max(ladder_mix) < 1.0 - _PURE_TOL)
    report.add_derived("event_averaged_ladder_state",
                       [float(x) for x in ladder_mix], "run_two_point_measurement")
    report.add_derived("averaged_state_outside_pure_ladder_set", mixed,
                       "run_two_point_measurement")
    if mixed:
        report.notes.append(
            "the event-averaged ladder state is mixed: it lies outside the pure "
            "position-eigenstate set, and the energy-difference reading does not "
            "cover that transition")
    return report


def run_cyclic_free_sequence(objects, beta: float) -> ScenarioReport:
    """Realize a closed cycle of classical objects as a free sequence by
    swapping through a tensor-product assistant, certifying every step."""
    beta = as_beta(beta)
    cycle = list(objects)
    if not np.allclose(cycle[0].probs, cycle[-1].probs):
        cycle = cycle + [cycle[0]]
    report = ScenarioReport("cyclic_free_sequence", {
        "beta": beta,
        "cycle": [classical_to_json(c) for c in cycle],
    })
    seq, verdicts = swap_cycle_sequence(cycle, beta)
    all_free = all(v.is_feasible for v in verdicts)
    for k, v in enumerate(verdicts):
        report.add_verdict(f"step_{k}", v)
    works = [delta_F_alpha(dst, beta, 1.0) - delta_F_alpha(src, beta, 1.0)
             for src, dst in seq.steps]
    total = float(np.sum(works))
    report.add_derived("all_steps_certified_free", bool(all_free), "thermo_majorizes")
    if not all_free:
        report.add_breach("a swap-assisted cycle step failed certification",
                          {"verdicts": [v.status.value for v in verdicts]})
    report.add_derived("total_delta_F1_work", total, "work")
    report.add_derived("catalyst_dim", seq.assistants[0][0].dim, "swap_cycle_sequence")
    return report


# ---------------------------------------------------------------------------
# Config-driven dispatch (used by the CLI)
# ---------------------------------------------------------------------------

def _fig1_from_config(cfg: dict) -> ScenarioReport:
    return run_fig1(float(cfg["beta"]), float(cfg.get("delta", 1.0)), int(cfg.get("d", 3)))


def _wbit_from_config(cfg: dict) -> ScenarioReport:
    grid = cfg.get("delta_grid")
    return run_wbit_violation(float(cfg["beta"]), float(cfg.get("epsilon", 0.1)),
                              None if grid is None else np.asarray(grid, dtype=float))


def _irrev_from_config(cfg: dict) -> ScenarioReport:
    p_m = ClassicalObject(np.asarray(cfg.get("probs", [0.7, 0.3]), dtype=float),
                          np.asarray(cfg.get("energies", [0.0, 1.0]), dtype=float))
    return run_irreversibility(float(cfg["beta"]), p_m, float(cfg.get("delta", 1.0)))


def _superadd_from_config(cfg: dict) -> ScenarioReport:
    return superadditivity_violation_search(
        float(cfg.get("alpha", 2.0)), dims=tuple(cfg.get("dims", (2, 2))),
        grid_steps=int(cfg.get("grid_steps", 16)),
        beta=float(cfg.get("beta", 1.0)), seed=int(cfg.get("seed", 0)),
        budget=int(cfg.get("budget", 4000)))


def _lifted_from_config(cfg: dict) -> ScenarioReport:
    levels = int(cfg.get("levels", 8))
    spacing = float(cfg.get("spacing", 1.0))
    steps = []
    for name in cfg.get("protocol", ["identity", "thermal_exchange", "raise"]):
        if name == "identity":
            steps.append(identity_step(levels))
        elif name == "raise":
            steps.append(raise_step(levels))
        elif name == "thermal_exchange":
            steps.append(thermal_exchange_step(levels, spacing))
        else:
            raise ValueError(f"unknown protocol step {name!r}")
    return run_lifted_weight(levels, spacing, steps, float(cfg["beta"]),
                             cfg.get("initial_level"))


def _tpm_from_config(cfg: dict) -> ScenarioReport:
    h = HamiltonianClass(np.diag(np.asarray(cfg.get("system_energies", [0.0, 1.0]))))
    u = np.asarray(cfg.get("unitary", [[0, 1], [1, 0]]), dtype=complex)
    rho = np.asarray(cfg.get("initial_state", [[0.5, 0], [0, 0.5]]), dtype=complex)
    evals = np.linalg.eigvalsh(h.matrix)
    default_ladder = np.unique(np.concatenate(
        [[0.0], (evals[:, None] - evals[None, :]).ravel()]))
    ladder_e = np.asarray(cfg.get("ladder_energies", default_ladder), dtype=float)
    probs = np.zeros(len(ladder_e))
    probs[int(np.argmin(np.abs(ladder_e)))] = 1.0
    proc = TwoPointProcess(h, u, rho, ClassicalObject(probs, ladder_e))
    return run_two_point_measurement(proc)


def _cyclic_from_config(cfg: dict) -> ScenarioReport:
    objs = [ClassicalObject(np.asarray(b["probs"], dtype=float),
                            np.asarray(b["energies"], dtype=float))
            for b in cfg["cycle"]]
    return run_cyclic_free_sequence(objs, float(cfg["beta"]))


SCENARIOS = {
    "fig1": _fig1_from_config,
    "wbit-violation": _wbit_from_config,
    "irreversibility": _irrev_from_config,
    "superadditivity-search": _superadd_from_config,
    "lifted-weight": _lifted_from_config,
    "two-point": _tpm_from_config,
    "cyclic-sequence": _cyclic_from_config,
}
