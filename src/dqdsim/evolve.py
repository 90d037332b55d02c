"""Propagation engines.

All evolution is done with exact exponentials of Hermitian matrices obtained
by eigendecomposition, so every step is unitary to machine precision and the
norm is conserved by construction.  Time-dependent devices are integrated
with the exponential midpoint rule (second-order accurate): each step applies
exp(-i H(t_mid) dt) with the Hamiltonian sampled at the step midpoint, its
eigendecomposition refined in extended precision (``_step_propagators``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .errors import ConvergenceError, DimensionError
from .hilbert import StateVector, _unsafe_state, fix_phase

_CHUNK = 4096  # midpoint Hamiltonians assembled and diagonalized per chunk
_TWO_PI = 8 * np.arctan(np.longdouble(1))  # a float64 2 pi errs by 2.4e-16 per turn

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
        if self.dt is not None and not 0 < self.dt < np.inf:  # NaN fails too
            raise DimensionError("dt must be positive and finite")
        if not 0 < self.tolerance < np.inf:
            raise DimensionError("tolerance must be positive and finite")

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


def _step_propagators(Hs, h):
    """exp(-i H h) for a batch of Hermitian H, exact to ~eps rather than eps ||H|| h.

    LAPACK's V is orthonormal, and H V = V lam holds, only to ~eps ||H||,
    which over thousands of steps at ||H|| h ~ 50 drifts ~1e-12.  So the
    residual is formed with H's diagonal in extended precision, A = V^-1 H V
    (V^-1 = (1 - G) V^H, G = V^H V - 1) is exponentiated to first order in
    its off-diagonal part, and the phases lam h + A_ii h are taken in extended
    precision and reduced to [-pi, pi] there, where double precision holds them to ~eps.
    """
    H = Hs.real if not np.any(Hs.imag) else Hs
    lam, V = np.linalg.eigh(H)
    eye = np.eye(H.shape[-1])
    Vh = np.swapaxes(V.conj(), 1, 2)
    diag = np.diagonal(H, axis1=1, axis2=2).real[:, :, None]
    res = (diag - lam[:, None, :].astype(np.longdouble)) * V + (H - diag * eye) @ V
    G = Vh @ V - eye
    A = Vh @ res.astype(V.dtype)
    A -= G @ A
    half = np.exp(-0.5j * h * lam)
    gap = lam[:, :, None] - lam[:, None, :]
    E = half[:, :, None] * (A * np.sinc(gap * h / (2 * np.pi))) * (-1j * h * half)[:, None, :]
    phase = lam.astype(np.longdouble) * h + np.diagonal(A, axis1=1, axis2=2).real * h
    phase -= _TWO_PI * np.rint(phase / _TWO_PI)
    on = np.arange(H.shape[-1])
    E[:, on, on] = np.exp(-1j * phase.astype(float))
    W = Vh - G @ Vh
    if W.dtype.kind == "f":  # real H: two real products cost half a complex one
        return V @ (E.real @ W) + 1j * (V @ (E.imag @ W))
    return V @ (E @ W)


def _hamiltonians(H0, terms, ts):
    """H(t) = H0 + sum_j f_j(t) B_j over the times ts, in stacks of <= 32 MiB (complex)."""
    n = max(1, min(_CHUNK, 2**25 // (16 * H0.size)))
    for c0 in range(0, ts.size, n):
        Hs = np.broadcast_to(H0, ts[c0:c0 + n].shape + H0.shape).copy()
        for sched, B in terms:
            Hs += dev.schedule_value(sched, ts[c0:c0 + n])[:, None, None] * B
        yield Hs


def _sweep(psi, H0, terms, t0, t1, dt):
    """Midpoint-rule sweep advancing psi (a state or a column block) by each chunk's
    product U[N-1] ... U[0], taken pairwise in log-depth batched calls."""
    nsteps = max(1, int(np.ceil((t1 - t0) / dt)))
    h = (t1 - t0) / nsteps
    for Hs in _hamiltonians(H0, terms, t0 + (np.arange(nsteps) + 0.5) * h):
        Us = _step_propagators(Hs, h)
        while len(Us) > 1:  # an odd count carries its last factor
            pairs = Us[1::2] @ Us[0:-1:2]
            Us = np.concatenate([pairs, Us[-1:]]) if len(Us) % 2 else pairs
        psi = Us[0] @ psi
    return psi


def sweep_block(psi, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig,
                compiled=None):
    """Sweep psi (a state or column block) over [t0, t1] under g, or under
    ``compiled``, an invariant block of ``hamiltonian_terms(g)`` (dt still from g).
    ``richardson_check`` reruns at dt/2 and bounds the (Frobenius) deviation."""
    _check_window(g, t0, t1)
    if t1 == t0:
        return psi
    H0, terms = compiled or dev.hamiltonian_terms(g)
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


def flip_symmetric(H0: np.ndarray, terms: list) -> bool:
    """Whether a compiled device ``(H0, [(schedule, B), ...])`` commutes with the
    global flip X^n: H0 and each schedule's summed terms equal their index reversal."""
    driven = [sum(B for f, B in terms if f == sched) for sched in {f for f, _ in terms}]
    return all(np.array_equal(M, M[::-1, ::-1]) for M in (H0, *driven))


def evolve_scheduled(state: StateVector, g: dev.DeviceGraph, t0: float, t1: float,
                     cfg: PropagatorConfig | None = None) -> StateVector:
    """Integrate the time-dependent device Hamiltonian from t0 to t1.

    Sudden steps must fall on the window boundaries.  Schedules are sampled
    at step midpoints, so a right-continuous switch exactly at t0 or t1 is
    handled unambiguously.  A :func:`flip_symmetric` device sweeps a state that is
    exactly a flip eigenvector (S[::-1] == s S, s = +-1) in its half-dimension
    sector, on the orthonormal basis (e_i + s e_{d-1-i}) / sqrt(2).
    """
    cfg = cfg or PropagatorConfig()
    S, (H0, terms) = state.amps, dev.hamiltonian_terms(g)
    h = S.size // 2
    s = next((s for s in (1, -1) if h and np.array_equal(S[::-1], s * S)), 0)
    if not (s and flip_symmetric(H0, terms)):
        return _unsafe_state(sweep_block(S, g, t0, t1, cfg, (H0, terms)))

    def sector(M):
        return M[:h, :h] + s * M[:h, h:][:, ::-1]
    c = sweep_block(np.sqrt(2) * S[:h], g, t0, t1, cfg,
                    (sector(H0), [(sched, sector(B)) for sched, B in terms]))
    return _unsafe_state(np.concatenate([c, s * c[::-1]]) / np.sqrt(2))


def scheduled_propagator(g: dev.DeviceGraph, t0: float, t1: float,
                         cfg: PropagatorConfig | None = None) -> np.ndarray:
    """Full unitary of the scheduled evolution (the reference for the state path)."""
    eye = np.eye(2**g.n_qubits, dtype=complex)
    return sweep_block(eye, g, t0, t1, cfg or PropagatorConfig())


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

    The gap samples come from one compile, diagonalized as a batch on the
    whole register: its two lowest levels lie in different flip sectors.
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
    gaps = np.concatenate([np.ptp(np.linalg.eigvalsh(dev.check_hermitian(Hs))[:, :2], axis=1)
                           for Hs in _hamiltonians(*dev.hamiltonian_terms(g), ts)])  # E1 - E0
    gsT = ground_state(dev.hamiltonian_at(g, t1))
    final_overlap = float(abs(np.vdot(gsT.state.amps, final.amps)) ** 2)
    diag = RampDiagnostics(float(np.min(gaps)), ts, gaps, init_overlap, final_overlap)
    return final, diag
