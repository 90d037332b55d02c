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

NORM_TOL = 1e-9          # constructor tolerance on a state's norm
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


def _bipartition(state: StateVector, keep) -> np.ndarray:
    """The amplitudes as the 2^k x 2^(n-k) matrix a[kept, traced], kept qubits little-endian
    in ``keep`` order; DimensionError for anything but a StateVector, and for a ``keep`` that is
    not a nonempty list of distinct integer qubits in range (a bare int or None included)."""
    if not isinstance(state, StateVector):
        raise DimensionError(f"a register split takes a StateVector, not {type(state).__name__}")
    n, given, keep = state.n_qubits, keep, list(keep) if np.iterable(keep) else []
    if (not keep or not all(isinstance(q, (int, np.integer)) and 0 <= q < n for q in keep)
            or len(set(keep)) != len(keep)):
        raise DimensionError(f"keep set {given} is not a nonempty set of qubits of {n}")
    # numpy reshape of a little-endian vector puts qubit q on axis n - 1 - q
    keep_axes = [n - 1 - q for q in reversed(keep)]
    traced_axes = [ax for ax in range(n) if ax not in keep_axes]
    arr = state.amps.reshape([2] * n).transpose(keep_axes + traced_axes)
    return arr.reshape(2 ** len(keep), -1)


def partial_trace(state: StateVector, keep) -> np.ndarray:
    """Reduced density matrix a a^+ over ``keep`` (little-endian in keep order)."""
    a = _bipartition(state, keep)
    return a @ a.conj().T


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
    ``outcome`` is None.  DimensionError as :func:`_bipartition` for a bad state or qubit.
    """
    p0, p1 = (np.abs(_bipartition(state, [qubit])) ** 2).sum(axis=1).tolist()
    bit = (np.arange(state.dim) >> int(qubit)) & 1
    branches = [None if p < COLLAPSE_EPS else
                _own_state(np.where(bit == k, state.amps, 0) / np.sqrt(p))
                for k, p in enumerate((p0, p1))]
    outcome = None
    if rng is not None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        outcome = 0 if gen.random() < p0 else 1
    return MeasurementResult(p0, p1, outcome, *branches)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 of two pure states, invariant under a global phase of either; DimensionError
    for anything but two StateVectors of one dimension."""
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise DimensionError("fidelity takes two StateVectors")
    if a.dim != b.dim:
        raise DimensionError("dimension mismatch")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
