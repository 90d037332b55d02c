"""Hilbert-space algebra for a register of charge qubits.

A register of N double-dot qubits is represented on the 2^N logical space;
each qubit k encodes which dot of its pair holds the excess electron
(logical |1> = electron in the odd/upper dot).  Double occupancy is
unrepresentable by construction, so this encoding is exact.

Conventions (used consistently everywhere in the package):

* qubit 0 is the least-significant bit of a basis index
  (q0 = 1, q1 = 0 is index 1);
* ket strings are written qubit-0 first, so ``|10>`` means q0=1, q1=0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateBranchError, DimensionError

NORM_TOL = 1e-9          # constructor tolerance on state / density-matrix norm
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
COLLAPSE_EPS = 1e-14     # below this branch probability a collapse is undefined

@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over the 2^N logical basis; == and hash by identity."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1 or amps.size & (amps.size - 1):
            raise DimensionError(f"state shape {amps.shape} is not one power-of-two axis")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN and inf fail too
            raise DimensionError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def n_qubits(self) -> int:
        return self.amps.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def computational(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix; == and hash by identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix shape {m.shape} is not square")
        if m.shape[0] < 1 or m.shape[0] & (m.shape[0] - 1):
            raise DimensionError(f"dimension {m.shape[0]} is not a power of two")
        check_density(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return len(self.matrix).bit_length() - 1


def check_density(m: np.ndarray) -> None:
    """Raise DimensionError unless ``m`` is finite, Hermitian, unit-trace and above the
    eigenvalue floor."""
    if not np.all(np.isfinite(m)):
        raise DimensionError("density matrix has a non-finite entry")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise DimensionError("density matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > NORM_TOL:
        raise DimensionError(f"trace {np.trace(m).real} deviates from 1")
    if np.min(np.linalg.eigvalsh(m)) < EIGENVALUE_FLOOR:
        raise DimensionError("density matrix has a negative eigenvalue")


def fix_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude amplitude is real positive."""
    amps = np.asarray(amps, dtype=complex)
    j = int(np.argmax(np.abs(amps)))
    ph = np.angle(amps[j])
    return amps * np.exp(-1j * ph)


def _majoranas(n: int):
    """Jordan-Wigner Majoranas a_k = X_0..X_{k-1} Z_k, then b_k = X_0..X_{k-1} Y_k, of n
    qubits as (gather, sign): (c_p psi)[i] = sign[p, i] psi[gather[p, i]]."""
    k = np.arange(n)
    gather = np.arange(2**n) ^ np.concatenate([(1 << k) - 1, (2 << k) - 1])[:, None]
    z = 1.0 - 2.0 * ((gather[:n] >> k[:, None]) & 1)
    return gather, np.concatenate([z, -1j * z])


def gaussian_overlap_sq(gamma: np.ndarray, other: np.ndarray) -> float:
    """|<psi|phi>|^2 of the pure Gaussian states of covariances ``gamma`` and ``other``:
    sqrt|det((gamma + other) / 2)|, with no state built."""
    return float(np.sqrt(abs(np.linalg.det((gamma + other) / 2))))


def gaussian_state(gamma: np.ndarray) -> np.ndarray:
    """The pure Gaussian state of covariance ``gamma``, phase-fixed: the vacuum of the modes
    A = sum_p v_p c_p over the +1 eigenvectors v of i gamma (one 2M x 2M ``eigh``), taken as
    prod_A A A^+ / 2 applied to a seeded random vector, O(M^2 2^M).  Raises ConvergenceError
    when the projected norm is not positive and finite."""
    n = len(gamma) // 2
    gather, sign = _majoranas(n)
    psi = np.random.default_rng(0).standard_normal(2 ** (n + 1)).view(complex)
    for v in np.linalg.eigh(1j * gamma)[1][:, n:].T:
        psi = v @ (sign * (v.conj() @ (sign * psi[gather]))[gather]) / 2
    norm = np.linalg.norm(psi)
    if not 0 < norm < np.inf:  # NaN fails too
        raise ConvergenceError(f"the projection onto the Gaussian state left norm {norm}")
    return fix_phase(psi / norm)


def _axis(qubit: int, n: int) -> int:
    # numpy reshape of a little-endian vector puts qubit n-1 on axis 0
    return n - 1 - qubit


def _own_state(amps: np.ndarray) -> StateVector:
    """A StateVector over the complex array ``amps`` itself, made read-only: no copy, no check.
    ``amps`` is one the caller has just computed, or another state's (already read-only)."""
    amps.setflags(write=False)
    sv = object.__new__(StateVector)
    sv.__dict__["amps"] = amps
    return sv


def tensor_product(*states: StateVector) -> StateVector:
    """Combine registers; the first argument holds the lowest qubit indices."""
    amps = states[0].amps
    for s in states[1:]:
        amps = np.kron(s.amps, amps)
    return _own_state(amps)


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (little-endian in keep order)."""
    keep = list(keep)
    n = state.n_qubits
    if not keep:
        raise DimensionError("keep set must be nonempty")
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise DimensionError(f"invalid keep set {keep} for {n} qubits")
    arr = state.amps.reshape([2] * n)
    keep_axes = [_axis(q, n) for q in reversed(keep)]
    traced_axes = [ax for ax in range(n) if ax not in keep_axes]
    a = arr.transpose(keep_axes + traced_axes).reshape(2 ** len(keep), -1)
    return DensityMatrix(a @ a.conj().T)


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of a single-qubit computational-basis measurement.

    Collapsed branches keep their original amplitudes' phases, so
    sqrt(p0)*branch0 + sqrt(p1)*branch1 reassembles the input state.
    ``outcome`` is set only in sampled mode.
    """

    p0: float
    p1: float
    outcome: int | None
    _branch0: StateVector | None
    _branch1: StateVector | None

    def branch(self, outcome: int) -> StateVector:
        b = self._branch0 if outcome == 0 else self._branch1
        if b is None:
            p = self.p0 if outcome == 0 else self.p1
            raise DegenerateBranchError(
                f"branch {outcome} has probability {p:.3e} < {COLLAPSE_EPS}"
            )
        return b


def measure_qubit(state: StateVector, qubit: int,
                  rng: np.random.Generator | int | None = None) -> MeasurementResult:
    """Projective measurement of one qubit.

    With ``rng`` (a seed or Generator) an outcome is drawn with probability
    (p0, p1); otherwise both branches are returned deterministically and
    ``outcome`` is None.
    """
    n = state.n_qubits
    if qubit < 0 or qubit >= n:
        raise DimensionError(f"qubit {qubit} out of range for {n} qubits")
    arr = state.amps.reshape([2] * n)
    ax = _axis(qubit, n)
    probs = np.sum(np.abs(arr) ** 2, axis=tuple(a for a in range(n) if a != ax))
    p0, p1 = float(probs[0]), float(probs[1])

    branches: list[StateVector | None] = []
    for outcome in (0, 1):
        p = (p0, p1)[outcome]
        if p < COLLAPSE_EPS:
            branches.append(None)
            continue
        sel = arr.copy()
        idx = [slice(None)] * n
        idx[ax] = 1 - outcome
        sel[tuple(idx)] = 0.0
        branches.append(_own_state(sel.reshape(-1) / np.sqrt(p)))

    outcome = None
    if rng is not None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        outcome = 0 if gen.random() < p0 else 1
    return MeasurementResult(p0, p1, outcome, branches[0], branches[1])


def fidelity(a, b) -> float:
    """Fidelity between a pure or mixed state and a pure state.

    |<a|b>|^2 for two pure states, <b|rho|b> for (mixed, pure); invariant
    under a global phase of either argument.
    """
    if isinstance(b, DensityMatrix):
        a, b = b, a
    if not isinstance(b, StateVector):
        raise DimensionError("at least one argument must be a pure state")
    if isinstance(a, DensityMatrix):
        if a.matrix.shape[0] != b.dim:
            raise DimensionError("dimension mismatch")
        return float(np.real(b.amps.conj() @ a.matrix @ b.amps))
    if a.dim != b.dim:
        raise DimensionError("dimension mismatch")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
