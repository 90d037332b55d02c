"""Reference constructions that only the tests use."""

from dqdsim.device import DeviceGraph, Schedule, TunnelTerm
from dqdsim.hilbert import ID2, PAULI_X, PAULI_Y, PAULI_Z, kron_le


def encode_graph(w: float, phi: float) -> DeviceGraph:
    """Single-DQD encoder device realizing the +2*phi amplitude family, whose
    free evolution ``protocol.encode_qubit`` takes in closed form."""
    return DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(w), phase=-2.0 * phi),))


def majorana_matrices(n: int) -> list:
    """Dense Jordan-Wigner Majoranas a_0..a_{n-1}, b_0..b_{n-1} of n qubits,
    a_k = X_0..X_{k-1} Z_k and b_k = X_0..X_{k-1} Y_k, as 2^n x 2^n matrices."""
    return [kron_le(*[PAULI_X] * k, P, *[ID2] * (n - k - 1))
            for P in (PAULI_Z, PAULI_Y) for k in range(n)]
