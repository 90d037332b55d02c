"""Reference constructions that only the tests use."""

from dataclasses import dataclass

import numpy as np

from dqdsim.device import DeviceGraph, Schedule, TunnelTerm, hamiltonian_at
from dqdsim.errors import DimensionError
from dqdsim.hilbert import (ID2, PAULI_X, PAULI_Y, PAULI_Z, StateVector, _unsafe_state,
                            gaussian_state, majorana_covariance, tensor_product)


def encode_graph(w: float, phi: float) -> DeviceGraph:
    """Single-DQD encoder device realizing the +2*phi amplitude family, whose
    free evolution ``protocol.encode_qubit`` takes in closed form."""
    return DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(w), phase=-2.0 * phi),))


def kron_le(*ops) -> np.ndarray:
    """Kronecker product with little-endian factor order: ``kron_le(A, B)`` acts
    with A on the least-significant qubit of the result, as ``basis_index``."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(np.asarray(op, dtype=complex), out)
    return out


def majorana_matrices(n: int) -> list:
    """Dense Jordan-Wigner Majoranas a_0..a_{n-1}, b_0..b_{n-1} of n qubits,
    a_k = X_0..X_{k-1} Z_k and b_k = X_0..X_{k-1} Y_k, as 2^n x 2^n matrices."""
    return [kron_le(*[PAULI_X] * k, P, *[ID2] * (n - k - 1))
            for P in (PAULI_Z, PAULI_Y) for k in range(n)]


def random_gaussian_state(rng, n_qubits: int) -> StateVector:
    """A random rotation of the Majorana covariance of |+>^n, rebuilt as a state."""
    O = np.linalg.qr(rng.normal(size=(2 * n_qubits, 2 * n_qubits)))[0]
    return StateVector(gaussian_state(O @ majorana_covariance(
        np.full(2**n_qubits, 2.0 ** (-n_qubits / 2), dtype=complex)) @ O.T))


def apply_local(state: StateVector, op, targets) -> StateVector:
    """(I x ... x op x ... x I)|state> for a 2^k x 2^k ``op`` indexed little-endian
    in ``targets`` order (targets[0] is the least-significant bit of its index).
    The result is not renormalized: projectors shrink the norm."""
    targets = list(targets)
    n, k = state.n_qubits, len(targets)
    if len(set(targets)) != k:
        raise DimensionError(f"repeated target in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise DimensionError(f"target out of range for {n} qubits: {targets}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise DimensionError(f"operator shape {op.shape} does not match {k} targets")
    # a little-endian vector reshaped to [2] * n has qubit n-1 on axis 0; the
    # operator tensor's axes are [r_{k-1}, ..., r_0, c_{k-1}, ..., c_0]
    contract = [n - 1 - t for t in reversed(targets)]
    out = np.tensordot(op.reshape([2] * (2 * k)), state.amps.reshape([2] * n),
                       axes=(list(range(k, 2 * k)), contract))
    return _unsafe_state(np.moveaxis(out, list(range(k)), contract).reshape(-1))


def instantaneous_gap(g: DeviceGraph, t: float) -> float:
    """E1(t) - E0(t) of the dense device Hamiltonian (0 for a single level)."""
    evals = np.linalg.eigvalsh(hamiltonian_at(g, t))
    return float(evals[1] - evals[0]) if len(evals) > 1 else 0.0


# the textbook four-branch decomposition of teleportation

BELL_BASIS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}

PAULIS = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class BellBranch:
    name: str
    probability: float
    corrections: tuple
    best_fidelity: float


@dataclass(frozen=True)
class BellDecompositionReport:
    branches: dict
    ok: bool


def bell_decomposition_check(target, tol: float = 1e-10) -> BellDecompositionReport:
    """Verify the four-branch measurement identity on (unknown x shared pair).

    Builds (a|0>+b|1>) x (|01>+|10>)/sqrt(2), projects the first two qubits
    onto each Bell state and reports which single-qubit Pauli restores the
    input ``target`` (an ``InputQubit``) on the third qubit, up to a global
    phase.  For generic inputs the mapping is phi+ -> X, phi- -> Y, psi+ -> I,
    psi- -> Z; the psi- branch carries the Z correction that standard
    bookkeeping sometimes mislabels.
    """
    shared = StateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    arr = tensor_product(target.state(), shared).amps.reshape(2, 2, 2)  # axes [q2, q1, q0]
    branches = {}
    ok = True
    for name, bell in BELL_BASIS.items():
        # cond[x] = <bell|_{q0,q1} psi>, leaving the B amplitude on x
        cond = np.einsum("bxy,xy->b", arr, bell.reshape(2, 2).conj())
        prob = float(np.vdot(cond, cond).real)
        found = []
        best = 0.0
        if prob > 1e-14:
            cond_n = cond / np.sqrt(prob)
            for pname, P in PAULIS.items():
                f = abs(np.vdot(target.state().amps, P @ cond_n)) ** 2
                best = max(best, f)
                if f >= 1.0 - tol:
                    found.append(pname)
        branches[name] = BellBranch(name, prob, tuple(found), best)
        ok = ok and bool(found)
    return BellDecompositionReport(branches, ok)
