"""Propagation engines.

All evolution is done with exact exponentials of Hermitian matrices obtained
by eigendecomposition, so every step is unitary to machine precision and the
norm is conserved by construction.  Time-dependent devices are integrated
with the exponential midpoint rule (second-order accurate): each step applies
exp(-i H(t_mid) dt) with the Hamiltonian sampled at the step midpoint.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .errors import ConvergenceError, DimensionError
from .hilbert import StateVector, _unsafe_state, fix_phase

_CHUNK = 4096  # midpoint Hamiltonians assembled and diagonalized per chunk

DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class PropagatorConfig:
    """Integration knobs for scheduled evolution.

    ``dt=None`` picks a step from the device's energy scale (dt ~ 1/||H||;
    the exponential itself is exact, the step only has to resolve the time
    dependence).  ``richardson_check`` reruns at dt/2 and raises
    ConvergenceError when the two final states differ by more than
    ``tolerance``.
    """

    dt: float | None = None
    richardson_check: bool = False
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise DimensionError("dt must be positive")
        if self.tolerance <= 0:
            raise DimensionError("tolerance must be positive")

    def resolve_dt(self, g: dev.DeviceGraph) -> float:
        if self.dt is not None:
            return self.dt
        return min(0.05, 1.0 / dev.energy_scale(g))


@dataclass(frozen=True)
class GroundState:
    energy: float
    state: StateVector
    degenerate: bool


def ground_state(H: np.ndarray) -> GroundState:
    """Lowest eigenpair, phase-fixed; flags a ground gap below 1e-10."""
    H = np.asarray(H)
    if np.max(np.abs(H - H.conj().T)) > 1e-12:
        raise DimensionError("Hamiltonian is not Hermitian")
    evals, evecs = np.linalg.eigh(H)
    degenerate = bool(len(evals) > 1 and evals[1] - evals[0] <= DEGENERACY_TOL)
    return GroundState(float(evals[0]), _unsafe_state(fix_phase(evecs[:, 0])), degenerate)


def evolve_static(state: StateVector, H: np.ndarray, duration: float) -> StateVector:
    """exp(-i H duration)|state> via eigendecomposition (exact to roundoff)."""
    H = np.asarray(H)
    if H.shape[0] != state.dim:
        raise DimensionError(f"H dim {H.shape[0]} vs state dim {state.dim}")
    evals, evecs = np.linalg.eigh(H)
    amps = evecs @ (np.exp(-1j * evals * duration) * (evecs.conj().T @ state.amps))
    return _unsafe_state(amps)


def _check_window(g: dev.DeviceGraph, t0: float, t1: float):
    if not t1 >= t0:
        raise DimensionError(f"need t0 <= t1, got [{t0}, {t1}]")
    for term in g.tunnel_terms:
        _reject_interior_step(term.amplitude, t0, t1, f"tunneling on DQD {term.dqd}")
    for link in g.coulomb_links:
        _reject_interior_step(link.strength, t0, t1, f"link ({link.dot_i},{link.dot_j})")


def _reject_interior_step(s: dev.Schedule, t0: float, t1: float, what: str):
    if s.kind == "sudden_step" and t0 < s.t_start < t1:
        raise DimensionError(
            f"sudden step of {what} at t={s.t_start} lies inside ({t0}, {t1}); "
            "split the evolution at the switch"
        )


def _sweep(psi, H0, terms, t0, t1, dt):
    """Midpoint-rule sweep advancing psi: a state vector, or a block of columns."""
    nsteps = max(1, int(np.ceil((t1 - t0) / dt)))
    h = (t1 - t0) / nsteps
    for c0 in range(0, nsteps, _CHUNK):
        c1 = min(c0 + _CHUNK, nsteps)
        mids = t0 + (np.arange(c0, c1) + 0.5) * h
        Hs = np.broadcast_to(H0, (c1 - c0,) + H0.shape).copy()
        for sched, B in terms:
            Hs += dev.schedule_value(sched, mids)[:, None, None] * B
        evals, evecs = np.linalg.eigh(Hs)
        # a trailing unit axis scales the rows of a column block
        phases = np.exp(-1j * evals * h).reshape(evals.shape + (1,) * (psi.ndim - 1))
        for i in range(c1 - c0):
            V = evecs[i]
            psi = V @ (phases[i] * (V.conj().T @ psi))
    return psi


def _checked_sweep(psi, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig):
    """Sweep psi over [t0, t1]; with ``richardson_check``, rerun at dt/2 and compare."""
    _check_window(g, t0, t1)
    if t1 == t0:
        return psi
    H0, terms = dev.hamiltonian_terms(g)
    dt = cfg.resolve_dt(g)
    out = _sweep(psi, H0, terms, t0, t1, dt)
    if cfg.richardson_check:
        out_half = _sweep(psi, H0, terms, t0, t1, dt / 2)
        err = float(np.linalg.norm(out - out_half))
        if err > cfg.tolerance:
            raise ConvergenceError(
                f"step-doubling deviation {err:.3e} exceeds tolerance {cfg.tolerance:.1e} "
                f"at dt={dt:.3e}; decrease dt"
            )
        out = out_half
    return out


def evolve_scheduled(state: StateVector, g: dev.DeviceGraph, t0: float, t1: float,
                     cfg: PropagatorConfig | None = None) -> StateVector:
    """Integrate the time-dependent device Hamiltonian from t0 to t1.

    Sudden steps must fall on the window boundaries.  Schedules are sampled
    at step midpoints, so a right-continuous switch exactly at t0 or t1 is
    handled unambiguously.
    """
    return _unsafe_state(_checked_sweep(state.amps, g, t0, t1, cfg or PropagatorConfig()))


def scheduled_propagator(g: dev.DeviceGraph, t0: float, t1: float,
                         cfg: PropagatorConfig | None = None) -> np.ndarray:
    """Full unitary of the scheduled evolution (the reference for the state path)."""
    eye = np.eye(2**g.n_qubits, dtype=complex)
    return _checked_sweep(eye, g, t0, t1, cfg or PropagatorConfig())


@dataclass(frozen=True)
class RampDiagnostics:
    """Adiabaticity record of one ramp."""

    min_gap: float
    gap_times: np.ndarray
    gaps: np.ndarray
    initial_ground_overlap_sq: float
    final_ground_overlap_sq: float


def adiabatic_ramp(state: StateVector, g: dev.DeviceGraph, t0: float, t1: float,
                   cfg: PropagatorConfig | None = None,
                   gap_samples: int = 64):
    """Scheduled evolution plus spectral-gap and ground-overlap diagnostics.

    Warns when the initial state is not close to the instantaneous ground
    state at t0 (the ramp then has no adiabatic guarantee).
    """
    gs0 = ground_state(dev.hamiltonian_at(g, t0))
    init_overlap = float(abs(np.vdot(gs0.state.amps, state.amps)) ** 2)
    if init_overlap < 0.99:
        warnings.warn(
            f"initial ground-state overlap^2 is {init_overlap:.4f}; "
            "adiabatic following is not guaranteed",
            stacklevel=2,
        )
    final = evolve_scheduled(state, g, t0, t1, cfg)
    ts = np.linspace(t0, t1, max(64, gap_samples))
    gaps = np.empty_like(ts)
    for i, t in enumerate(ts):
        evals = np.linalg.eigvalsh(dev.hamiltonian_at(g, t))
        gaps[i] = evals[1] - evals[0] if len(evals) > 1 else 0.0
    gsT = ground_state(dev.hamiltonian_at(g, t1))
    final_overlap = float(abs(np.vdot(gsT.state.amps, final.amps)) ** 2)
    diag = RampDiagnostics(float(np.min(gaps)), ts, gaps, init_overlap, final_overlap)
    return final, diag
