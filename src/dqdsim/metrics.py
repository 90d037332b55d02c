"""Diagnostics: entanglement measures of a state (concurrence and entanglement entropy)."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .hilbert import DensityMatrix, PAULI_Y, StateVector, partial_trace


def concurrence(rho) -> float:
    """Two-qubit concurrence: max(0, l1 - l2 - l3 - l4) of the spin-flipped spectrum."""
    if isinstance(rho, StateVector):
        rho = DensityMatrix.from_state(rho)
    m = rho.matrix
    if m.shape != (4, 4):
        raise DimensionError("concurrence is defined for two qubits")
    yy = np.kron(PAULI_Y, PAULI_Y)
    r = m @ yy @ m.conj() @ yy
    evals = np.sort(np.linalg.eigvals(r).real)[::-1]
    # roundoff noise below the leading eigenvalue would blow up under sqrt
    evals[evals < 1e-14 * max(evals[0], 1e-30)] = 0.0
    lams = np.sqrt(evals)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def entanglement_entropy(state: StateVector, partition) -> float:
    """Von Neumann entropy (base 2) of the reduced state on ``partition``."""
    partition = list(partition)
    if not partition:
        raise DimensionError("partition must be nonempty")
    rho = partial_trace(state, partition)
    evals = np.linalg.eigvalsh(rho.matrix)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log2(evals)))
