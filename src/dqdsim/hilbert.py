"""Hilbert-space algebra for a register of charge qubits.

A register of N double-dot qubits is represented on the 2^N logical space;
each qubit k encodes which dot of its pair holds the excess electron
(logical |1> = electron in the odd/upper dot).  Double occupancy is
unrepresentable by construction, so this encoding is exact.

Conventions (used consistently everywhere in the package):

* qubit 0 is the least-significant bit of a basis index
  (``basis_index([1, 0]) == 1``);
* ket strings are written qubit-0 first, so ``|10>`` means q0=1, q1=0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBranchError, DimensionError

NORM_TOL = 1e-9          # constructor tolerance on state / density-matrix norm
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
COLLAPSE_EPS = 1e-14     # below this branch probability a collapse is undefined

# Single-qubit constants.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)  # projector on logical |0>
P1 = np.array([[0, 0], [0, 1]], dtype=complex)  # projector on logical |1>


def basis_index(bits) -> int:
    """Map a bit list (qubit 0 first) to its little-endian basis index.

    >>> basis_index([1, 0])
    1
    """
    idx = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise DimensionError(f"bit {k} is {b!r}, expected 0 or 1")
        idx |= int(b) << k
    return idx


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over the 2^N logical basis."""

    amps: np.ndarray
    n_qubits: int = field(default=0)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1 or amps.size & (amps.size - 1):
            raise DimensionError(f"state shape {amps.shape} is not one power-of-two axis")
        n = int(np.log2(amps.size))
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN and inf fail too
            raise DimensionError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "n_qubits", n)

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def computational(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix."""

    matrix: np.ndarray
    n_qubits: int = field(default=0)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix shape {m.shape} is not square")
        if m.shape[0] < 1 or m.shape[0] & (m.shape[0] - 1):
            raise DimensionError(f"dimension {m.shape[0]} is not a power of two")
        n = int(np.log2(m.shape[0]))
        check_density(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_qubits", n)

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(np.outer(state.amps, state.amps.conj()))


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


def align_phase(amps: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``amps`` times the global phase that brings it closest to ``ref``."""
    overlap = np.vdot(amps, ref)
    return amps * (overlap / abs(overlap) if overlap else 1.0)


def _majoranas(n: int):
    """Jordan-Wigner Majoranas a_k = X_0..X_{k-1} Z_k, then b_k = X_0..X_{k-1} Y_k,
    of n qubits as (flip, sign): c|i> = sign[i] |i ^ flip>."""
    return [((m << k) - 1, s * (-1.0) ** ((np.arange(2**n) >> k) & 1))
            for m, s in ((1, 1.0), (2, 1j)) for k in range(n)]


def majorana_covariance(amps: np.ndarray) -> np.ndarray:
    """Gamma_pq = i <c_p c_q> (p != q) over the Majoranas (a, b) of :func:`_majoranas`,
    as the Gram matrix of the vectors c_p|psi>: O(n^2 2^n), no 2^n x 2^n operator."""
    idx, n = np.arange(amps.size), int(np.log2(amps.size))
    phi = np.array([(sign * amps)[idx ^ flip] for flip, sign in _majoranas(n)])
    return -np.imag(phi.conj() @ phi.T)


def gaussian_state(gamma: np.ndarray) -> np.ndarray:
    """The pure Gaussian state of covariance ``gamma``, phase-fixed: the ground state
    of its parent Hamiltonian -(i/4) sum_pq Gamma_pq c_p c_q (gap 1), by one ``eigh``."""
    c = _majoranas(len(gamma) // 2)
    idx = np.arange(c[0][1].size)
    H = np.zeros((idx.size, idx.size), dtype=complex)
    for p, (fp, sp) in enumerate(c):
        for q, (fq, sq) in enumerate(c[p + 1:], p + 1):  # c_p c_q |i> = sp[i^fq] sq[i] |i^fq^fp>
            H[idx ^ fq ^ fp, idx] -= 0.5j * gamma[p, q] * sp[idx ^ fq] * sq
    return fix_phase(np.linalg.eigh(H)[1][:, 0])


def _axis(qubit: int, n: int) -> int:
    # numpy reshape of a little-endian vector puts qubit n-1 on axis 0
    return n - 1 - qubit


def _unsafe_state(amps: np.ndarray) -> StateVector:
    """Build a StateVector bypassing the norm check (projected branches etc.)."""
    sv = object.__new__(StateVector)
    amps = np.asarray(amps, dtype=complex).copy()
    amps.setflags(write=False)
    object.__setattr__(sv, "amps", amps)
    object.__setattr__(sv, "n_qubits", int(np.log2(amps.size)))
    return sv


def tensor_product(*states: StateVector) -> StateVector:
    """Combine registers; the first argument holds the lowest qubit indices."""
    amps = states[0].amps
    for s in states[1:]:
        amps = np.kron(s.amps, amps)
    return _unsafe_state(amps)


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
        branches.append(_unsafe_state(sel.reshape(-1) / np.sqrt(p)))

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
