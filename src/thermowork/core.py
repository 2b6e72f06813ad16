"""Finite-dimensional objects: (state, Hamiltonian) pairs and their algebra.

An object is a density matrix together with a Hamiltonian, the basic carrier
of the resource theory implemented by this package.  Hamiltonians are treated
as equivalence classes modulo shifts by a multiple of the identity; the stored
representative always has minimum eigenvalue 0.  Energies and 1/beta share
units with k_B = 1; all logarithms downstream are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Tolerances (see README for the conventions they encode).
HERMITICITY_TOL = 1e-10
STATE_TOL = 1e-10
HAMILTONIAN_EQ_TOL = 1e-10
PROB_CLAMP = 1e-12
# Trace-norm threshold for object equality and Gibbs-ness.  The framework
# itself fixes no such tolerance; this is a configuration choice.
OBJECT_EQ_TOL = 1e-8
GIBBS_TOL = 1e-8
UNITARITY_TOL = 1e-9
#: The largest off-diagonal entry, of state or Hamiltonian, of an object read as classical.
_DIAGONAL_TOL = 1e-10
# Dense matrices only; tensor products beyond this dimension are refused.
MAX_TENSOR_DIM = 4096


def _as_square(mat, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    return arr


def _check_hermitian(mat: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> np.ndarray:
    anti = 0.5 * (mat - mat.conj().T)
    dev = float(np.max(np.abs(anti))) if mat.size else 0.0
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: anti-Hermitian part {dev:.3e} > {tol:.1e}")
    return 0.5 * (mat + mat.conj().T)


def check_unitary(mat, name: str) -> np.ndarray:
    """The square complex matrix ``mat``, rejected unless |U+U - 1| <= UNITARITY_TOL."""
    u = _as_square(mat, name)
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if dev > UNITARITY_TOL:
        raise ValueError(f"{name} is not unitary: |U+U - 1| = {dev:.3e}")
    return u


def trace_norm(mat: np.ndarray) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


@dataclass(frozen=True, eq=False)
class HamiltonianClass:
    """A Hamiltonian modulo addition of a multiple of the identity.

    The representative stored in ``matrix`` has minimum eigenvalue 0;
    ``canonical_shift`` records the eigenvalue offset of the input, so
    ``matrix + canonical_shift * I`` reproduces the original operator.
    """

    matrix: np.ndarray
    canonical_shift: float = field(init=False, default=0.0)

    def __post_init__(self):
        mat = _check_hermitian(_as_square(self.matrix, "hamiltonian"), "hamiltonian")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        rep = mat - lo * np.eye(mat.shape[0])
        rep.flags.writeable = False
        object.__setattr__(self, "matrix", rep)
        object.__setattr__(self, "canonical_shift", lo)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the canonical representative, ascending (min is 0)."""
        return np.linalg.eigvalsh(self.matrix)

    def original_matrix(self) -> np.ndarray:
        return self.matrix + self.canonical_shift * np.eye(self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HamiltonianClass):
            return NotImplemented
        return self.dim == other.dim and bool(
            np.allclose(self.matrix, other.matrix, atol=HAMILTONIAN_EQ_TOL, rtol=0.0)
        )

    def __hash__(self):
        return hash(("HamiltonianClass", self.dim))

    def __repr__(self):
        return f"HamiltonianClass(dim={self.dim}, shift={self.canonical_shift:.6g})"


@dataclass(frozen=True, eq=False)
class ThermoObject:
    """A pair of density matrix and Hamiltonian class on the same space."""

    state: np.ndarray
    hamiltonian: HamiltonianClass

    def __post_init__(self):
        rho = _check_hermitian(_as_square(self.state, "state"), "state")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > STATE_TOL:
            raise ValueError(f"state trace {tr} deviates from 1 by more than {STATE_TOL:.1e}")
        lo = float(np.min(np.linalg.eigvalsh(rho))) if rho.shape[0] > 1 else float(np.real(rho[0, 0]))
        if lo < -STATE_TOL:
            raise ValueError(f"state is not positive semidefinite: min eigenvalue {lo:.3e}")
        if rho.shape[0] != self.hamiltonian.dim:
            raise ValueError(
                f"state dimension {rho.shape[0]} != hamiltonian dimension {self.hamiltonian.dim}"
            )
        rho.flags.writeable = False
        object.__setattr__(self, "state", rho)

    @property
    def dim(self) -> int:
        return self.state.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThermoObject):
            return NotImplemented
        if self.dim != other.dim or self.hamiltonian != other.hamiltonian:
            return False
        return trace_norm(self.state - other.state) <= OBJECT_EQ_TOL

    def __hash__(self):
        return hash(("ThermoObject", self.dim))

    def __repr__(self):
        return f"ThermoObject(dim={self.dim})"


#: The empty object: one-dimensional state 1 with Hamiltonian 0.  It is the
#: tensor identity, p (x) EMPTY == p for every object p.
EMPTY = ThermoObject(np.array([[1.0]]), HamiltonianClass(np.array([[0.0]])))


def empty_object() -> ThermoObject:
    return EMPTY


@dataclass(frozen=True, eq=False)
class ClassicalObject:
    """Probability vector over energy levels: the diagonal, commuting case."""

    probs: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        e = np.array(self.energies, dtype=float)
        if p.ndim != 1 or e.ndim != 1 or p.shape != e.shape:
            raise ValueError(f"probs {p.shape} and energies {e.shape} must be equal-length vectors")
        if p.size == 0:
            raise ValueError("a classical object needs at least one level")
        if not (np.isfinite(p).all() and np.isfinite(e).all()):
            raise ValueError("probs and energies must be finite")
        if p.min() < -PROB_CLAMP:
            raise ValueError(f"negative probability {p.min():.3e} below clamp {PROB_CLAMP:.1e}")
        p = p.clip(0.0, None)
        if abs(float(p.sum()) - 1.0) > STATE_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "energies", e)

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def gibbs_weights(self, beta: float) -> np.ndarray:
        """Normalized Gibbs weights exp(-beta E_i)/Z of the energy levels."""
        return gibbs_weights(self.energies, beta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalObject):
            return NotImplemented
        if self.dim != other.dim:
            return False
        same_e = np.allclose(
            self.energies - np.min(self.energies),
            other.energies - np.min(other.energies),
            atol=HAMILTONIAN_EQ_TOL, rtol=0.0,
        )
        return same_e and float(np.sum(np.abs(self.probs - other.probs))) <= OBJECT_EQ_TOL

    def __hash__(self):
        return hash(("ClassicalObject", self.dim))

    def __repr__(self):
        return f"ClassicalObject(probs={np.array2string(self.probs, precision=4)})"


#: Classical rendering of the empty object.
EMPTY_CLASSICAL = ClassicalObject(np.array([1.0]), np.array([0.0]))


def gibbs_weights(energies, beta: float) -> np.ndarray:
    """Normalized exp(-beta E)/Z along the last axis (each row of a table of
    energies on its own), with the max Boltzmann factor pulled out."""
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min(axis=-1, keepdims=True)))
    return w / np.add.reduce(w, -1, keepdims=True)


def check_tensor_dim(d: int) -> None:
    """Refuse a tensor product of more than MAX_TENSOR_DIM levels."""
    if d > MAX_TENSOR_DIM:
        raise ValueError(f"tensor product dimension {d} exceeds cap {MAX_TENSOR_DIM}")


def tensor(p: ThermoObject, q: ThermoObject) -> ThermoObject:
    """Tensor product of objects: states by Kronecker product, Hamiltonians
    as H (x) 1 + 1 (x) H'."""
    check_tensor_dim(p.dim * q.dim)
    state = np.kron(p.state, q.state)
    ham = local_sum([p.hamiltonian.matrix, q.hamiltonian.matrix])
    return ThermoObject(state, HamiltonianClass(ham))


def classical_tensor(a: ClassicalObject, b: ClassicalObject) -> ClassicalObject:
    """Tensor product of classical objects (outer probabilities, summed energies)."""
    check_tensor_dim(a.dim * b.dim)
    probs = np.outer(a.probs, b.probs).ravel()
    energies = (a.energies[:, None] + b.energies[None, :]).ravel()
    return ClassicalObject(probs, energies)


def local_sum(hams: Sequence[np.ndarray]) -> np.ndarray:
    """Non-interacting total H_1 (x) 1 (x) ... (x) 1 + ... + 1 (x) ... (x) 1 (x) H_n."""
    total = np.zeros((1, 1))
    for h in hams:
        total = np.kron(total, np.eye(h.shape[0])) + np.kron(np.eye(total.shape[0]), h)
    return total


def _ptrace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a matrix over all subsystems not in ``keep``."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    resh = mat.reshape(dims + dims)
    for i in reversed(drop):
        resh = np.trace(resh, axis1=i, axis2=i + resh.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return resh.reshape(d_keep, d_keep)


@dataclass(frozen=True, eq=False)
class NonInteractingObject:
    """A multipartite object whose Hamiltonian is a sum of local terms."""

    obj: ThermoObject
    partition: tuple
    local_hamiltonians: tuple

    def __post_init__(self):
        part = tuple(int(d) for d in self.partition)
        locals_ = tuple(self.local_hamiltonians)
        if int(np.prod(part)) != self.obj.dim:
            raise ValueError(f"partition {part} does not multiply to dimension {self.obj.dim}")
        if len(locals_) != len(part):
            raise ValueError("one local Hamiltonian per subsystem required")
        for h, d in zip(locals_, part):
            if h.dim != d:
                raise ValueError(f"local Hamiltonian dimension {h.dim} != subsystem dimension {d}")
        total = local_sum([h.matrix for h in locals_])
        if HamiltonianClass(total) != self.obj.hamiltonian:
            raise ValueError("object is interacting: Hamiltonian is not the sum of the local terms")
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "local_hamiltonians", locals_)

    @classmethod
    def from_total(cls, obj: ThermoObject, partition: Sequence[int]) -> "NonInteractingObject":
        """Split an object into local Hamiltonians, rejecting interacting ones.

        Local terms are recovered (up to identity shifts, which are quotiented
        away) by averaging the total Hamiltonian over the other subsystems.
        """
        part = tuple(int(d) for d in partition)
        if int(np.prod(part)) != obj.dim:
            raise ValueError(f"partition {part} does not multiply to dimension {obj.dim}")
        h_tot = obj.hamiltonian.matrix
        locals_ = []
        for i, d in enumerate(part):
            rest = int(np.prod(part)) // d
            raw = _ptrace_matrix(h_tot, part, [i]) / rest
            locals_.append(HamiltonianClass(raw))
        return cls(obj, part, tuple(locals_))

    @property
    def dim(self) -> int:
        return self.obj.dim


def non_interacting(p: ThermoObject, q: ThermoObject) -> NonInteractingObject:
    """Tensor two objects and keep track of the bipartition."""
    joint = tensor(p, q)
    return NonInteractingObject(joint, (p.dim, q.dim), (p.hamiltonian, q.hamiltonian))


def partial_trace(p: NonInteractingObject, keep: Iterable[int]) -> ThermoObject:
    """Marginal of a non-interacting object on the ``keep`` subsystems.

    Tracing out everything returns the empty object.  Only non-interacting
    objects support this operation; interacting ones are rejected when the
    NonInteractingObject is built.
    """
    keep = sorted(set(int(k) for k in np.atleast_1d(np.asarray(keep, dtype=int))))
    n = len(p.partition)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    if not keep:
        return EMPTY
    state = _ptrace_matrix(p.obj.state, p.partition, keep)
    ham = local_sum([p.local_hamiltonians[i].matrix for i in keep])
    return ThermoObject(state, HamiltonianClass(ham))


def gibbs_state(hamiltonian, beta: float) -> ThermoObject:
    """Gibbs object exp(-beta H)/Z at inverse temperature beta.

    Invariant under the representative chosen for H: identity shifts cancel
    between numerator and partition function.
    """
    if not isinstance(hamiltonian, HamiltonianClass):
        hamiltonian = HamiltonianClass(hamiltonian)
    return ThermoObject(_gibbs_matrix(hamiltonian, beta), hamiltonian)


def _gibbs_matrix(hamiltonian: HamiltonianClass, beta: float) -> np.ndarray:
    """gibbs_state's state to the bit, unchecked: made Hermitian as ThermoObject makes it."""
    evals, vecs = np.linalg.eigh(hamiltonian.matrix)
    rho = (vecs * gibbs_weights(evals, beta)) @ vecs.conj().T
    rho /= np.real(np.trace(rho))
    return 0.5 * (rho + rho.conj().T)


def classical_gibbs(energies, beta: float) -> ClassicalObject:
    """Classical Gibbs object over the given energy levels."""
    e = np.asarray(energies, dtype=float)
    return ClassicalObject(gibbs_weights(e, beta), e)


def classical_to_object(c: ClassicalObject) -> ThermoObject:
    """Diagonal density matrix and diagonal Hamiltonian in the same basis."""
    return ThermoObject(np.diag(c.probs).astype(complex), HamiltonianClass(np.diag(c.energies)))


def object_to_classical(p: ThermoObject, tol: float = _DIAGONAL_TOL) -> ClassicalObject:
    """Inverse of classical_to_object for objects diagonal in the computational basis."""
    def off_diagonal(mat: np.ndarray) -> float:
        (a := np.abs(mat)).flat[::p.dim + 1] = 0.0
        return float(a.max())

    # the state first: a non-diagonal state is refused before the Hamiltonian is built
    if off_diagonal(p.state) > tol or off_diagonal(ham := p.hamiltonian.original_matrix()) > tol:
        raise ValueError("object is not diagonal in the computational basis")
    return ClassicalObject(np.real(np.diag(p.state)), np.real(np.diag(ham)))


def is_gibbs(p: ThermoObject, beta: float) -> bool:
    """Whether the state is the Gibbs state of its own Hamiltonian at beta."""
    return trace_norm(p.state - _gibbs_matrix(p.hamiltonian, beta)) <= GIBBS_TOL


def classical_is_gibbs(c: ClassicalObject, beta: float) -> bool:
    return float(np.sum(np.abs(c.probs - c.gibbs_weights(beta)))) <= GIBBS_TOL


# ---------------------------------------------------------------------------
# JSON serialization.  Objects serialize as
#   {"dim": d, "state": [[re, im], ...], "hamiltonian": [[re, im], ...],
#    "classical": {"probs": [...], "energies": [...]}}      (optional block)
# with matrix entries flattened row-major.
# ---------------------------------------------------------------------------

def _matrix_to_pairs(mat: np.ndarray) -> list:
    flat = np.asarray(mat, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (dim * dim, 2):
        raise ValueError(f"expected {dim * dim} [re, im] entries, got shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim)


def object_to_json(p: ThermoObject) -> dict:
    doc = {
        "dim": p.dim,
        "state": _matrix_to_pairs(p.state),
        "hamiltonian": _matrix_to_pairs(p.hamiltonian.original_matrix()),
    }
    try:
        c = object_to_classical(p)
    except ValueError:
        pass
    else:
        doc["classical"] = classical_to_json(c)
    return doc


def object_from_json(doc: dict) -> ThermoObject:
    dim = int(doc["dim"])
    state = _pairs_to_matrix(doc["state"], dim)
    ham = _pairs_to_matrix(doc["hamiltonian"], dim)
    return ThermoObject(state, HamiltonianClass(ham))


def classical_to_json(c: ClassicalObject) -> dict:
    return {"probs": [float(x) for x in c.probs],
            "energies": [float(x) for x in c.energies]}


def classical_from_json(doc: dict) -> ClassicalObject:
    block = doc.get("classical", doc)
    return ClassicalObject(np.asarray(block["probs"], dtype=float),
                           np.asarray(block["energies"], dtype=float))
