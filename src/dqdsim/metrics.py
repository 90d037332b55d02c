"""Diagnostics: entanglement measures and oscillation fits."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class RabiFit:
    """Least-squares fit of a population series to offset + amplitude*sin^2(f t).

    ``frequency`` is the sin^2 rate f; a population following sin^2(f t)
    completes a full transfer cycle at the cosine rate 2f, reported as
    ``doubled_frequency``.  ``oscillatory`` is False when the data carries no
    resolvable oscillation (flat series, vanishing amplitude).
    """

    frequency: float
    amplitude: float
    offset: float
    rms_residual: float
    oscillatory: bool

    @property
    def doubled_frequency(self) -> float:
        return 2.0 * self.frequency


def fit_oscillation(times, populations) -> RabiFit:
    """Fit ``a + b sin^2(f t)`` to a sampled population series.

    Needs at least 16 samples spanning roughly a period.  The initial
    frequency guess comes from the discrete spectrum of the series.
    """
    from scipy.optimize import curve_fit  # ~0.4 s to import: kept off ``import dqdsim``
    t = np.asarray(times, dtype=float)
    p = np.asarray(populations, dtype=float)
    if t.size < 16 or t.size != p.size:
        raise DimensionError("need >= 16 (time, population) samples")

    spread = float(np.max(p) - np.min(p))
    if spread < 1e-12:
        return RabiFit(0.0, 0.0, float(np.mean(p)), 0.0, oscillatory=False)

    # sin^2(f t) oscillates at 2f: locate the spectral peak of the detrended data
    dt_s = float(np.mean(np.diff(t)))
    spec = np.abs(np.fft.rfft(p - np.mean(p)))
    freqs = 2 * np.pi * np.fft.rfftfreq(t.size, d=dt_s)
    f0 = freqs[np.argmax(spec[1:]) + 1] / 2.0 if spec.size > 1 else 0.0
    f0 = f0 if f0 > 0 else np.pi / (t[-1] - t[0])

    def model(tt, a, b, f):
        return a + b * np.sin(f * tt) ** 2

    popt, _ = curve_fit(model, t, p, p0=[float(np.min(p)), spread, f0], maxfev=20000)
    a, b, f = popt
    if b < 0:  # sin^2 ambiguity: fold negative amplitude onto a phase-shifted branch
        a, b, f = a + b, -b, f
    resid = p - model(t, a, b, abs(f))
    rms = float(np.sqrt(np.mean(resid**2)))
    oscillatory = b > max(1e-9, 10 * rms) * 0.01 and abs(f) * (t[-1] - t[0]) > 0.5
    return RabiFit(float(abs(f)), float(b), float(a), rms, oscillatory)
