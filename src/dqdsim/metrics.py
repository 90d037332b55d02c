"""Diagnostics: entanglement measures of a state (concurrence and entanglement entropy)."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .hilbert import StateVector, _bipartition


def concurrence(state: StateVector) -> float:
    """Two-qubit pure-state concurrence 2|psi_00 psi_11 - psi_01 psi_10| (Hill & Wootters,
    PRL 78, 5022 (1997)); anything but a two-qubit StateVector raises DimensionError."""
    if not isinstance(state, StateVector) or state.dim != 4:
        raise DimensionError("concurrence is defined for a two-qubit pure state")
    a00, a10, a01, a11 = state.amps.tolist()  # index q0 + 2 q1
    return 2 * abs(a00 * a11 - a01 * a10)


def entanglement_entropy(state: StateVector, partition) -> float:
    """Von Neumann entropy (base 2) of the reduced state on ``partition``: -sum l log2 l over
    the squared Schmidt coefficients l > 1e-15, the singular values of the amplitudes split
    into ``partition`` and the rest.  DimensionError for an empty or invalid partition."""
    lam = np.linalg.svd(_bipartition(state, partition), compute_uv=False) ** 2
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log2(lam)))
