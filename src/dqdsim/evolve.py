"""Propagation engines.

All evolution is done with exact exponentials of Hermitian matrices obtained
by eigendecomposition, so every step is unitary to machine precision and the
norm is conserved by construction.  A time-dependent device
H(t) = H0 + sum_j f_j(t) B_j is integrated with the fourth-order
commutator-free rule CF4:2 (:func:`cf4`; Blanes & Moan, Appl. Numer. Math. 56
(2006); Alvermann & Fehske, J. Comput. Phys. 230 (2011)): each interval of the
step grid takes two exponentials, each of a fixed combination of H at the
interval's two Gauss nodes.  The grid (:func:`step_grid`) is graded from the
device's schedules before any step is taken: intervals of 2 dt, halved where
H moves fast, by a threshold that shrinks with dt, and merged where it does
not move, so a static window is one exponential.  Every exponential's
eigendecomposition is refined (``_step_propagators``).  The exponential
midpoint rule (:func:`midpoint`, second order) stays as the reference rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .errors import ConvergenceError, DimensionError
from .hilbert import StateVector, _unsafe_state, fix_phase

_CHUNK = 4096  # step Hamiltonians assembled and diagonalized per chunk
_TWO_PI = 8 * np.arctan(np.longdouble(1))  # a float64 2 pi errs by 2.4e-16 per turn

DEGENERACY_TOL = 1e-10

_GAUSS = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6  # Gauss nodes on [0, 1]
_CF4_C = np.sqrt(3) / 3 - 0.5  # the CF4:2 weights 1/4 +- sqrt3/6, as an extrapolation

# step_grid's thresholds
GRID_TOL = 0.03
STILL = 1e-4
MAX_PHASE = 5.0
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class PropagatorConfig:
    """Integration knobs for scheduled evolution.

    ``dt`` is the single accuracy control.  It sets the coarse step: a CF4
    step of 2 dt takes two exponentials.  :func:`step_grid` may halve steps
    where the schedules move fast, by a threshold proportional to dt, so a
    smaller dt refines the whole grid, its graded stretches included.
    ``dt=None`` picks dt = min(0.2, 4/||H||) from the device's energy scale.
    ``richardson_check`` reruns with every grid interval halved and raises
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
        return min(0.2, 4.0 / dev.energy_scale(g))


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


def _step_propagators(Hs, h):
    """exp(-i H h) for a batch of Hermitian H, exact to ~eps rather than eps ||H|| h.

    ``h`` is one step for the batch or an array with one step per matrix.
    LAPACK's V is orthonormal, and H V = V lam holds, only to ~eps ||H||,
    which over thousands of steps at ||H|| h ~ 50 drifts ~1e-12.  So the
    residual H V - V lam is formed as (H_ii - lam_j) V_ij + (H - diag H) V,
    whose terms are no larger than H's off-diagonal part, A = V^-1 H V
    (V^-1 = (1 - G) V^H, G = V^H V - 1) is exponentiated to first order in
    its off-diagonal part, and the phases lam h + A_ii h are taken in extended
    precision and reduced to [-pi, pi] there, where double precision holds them to ~eps.
    """
    H = Hs.real if not np.any(Hs.imag) else Hs
    h = np.reshape(h, (-1, 1))
    lam, V = np.linalg.eigh(H)
    eye = np.eye(H.shape[-1])
    Vh = np.swapaxes(V.conj(), 1, 2)
    diag = np.diagonal(H, axis1=1, axis2=2).real[:, :, None]
    res = (diag - lam[:, None, :]) * V + (H - diag * eye) @ V
    G = Vh @ V - eye
    A = Vh @ res
    A -= G @ A
    half = np.exp(-0.5j * h * lam)
    x = 0.5 * h[:, :, None] * (lam[:, :, None] - lam[:, None, :])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    E = half[:, :, None] * (A * sinc) * (-1j * h * half)[:, None, :]
    phase = lam.astype(np.longdouble) * h + np.diagonal(A, axis1=1, axis2=2).real * h
    phase -= _TWO_PI * np.rint(phase / _TWO_PI)
    on = np.arange(H.shape[-1])
    E[:, on, on] = np.exp(-1j * phase.astype(float))
    W = Vh - G @ Vh
    if W.dtype.kind == "f":  # real H: two real products cost half a complex one
        return V @ (E.real @ W) + 1j * (V @ (E.imag @ W))
    return V @ (E @ W)


def _hamiltonians(H0, terms, F):
    """H0 + sum_j F[k, j] B_j for each row k of F, in stacks of <= 32 MiB (complex)."""
    n = max(1, min(_CHUNK, 2**25 // (16 * H0.size)))
    for c0 in range(0, len(F), n):
        Fc = F[c0:c0 + n]
        Hs = np.broadcast_to(H0, (len(Fc),) + H0.shape).copy()
        for j, (_, B) in enumerate(terms):
            Hs += Fc[:, j, None, None] * B
        yield Hs


def _values(terms, ts):
    """Schedule values f_j(t): one row per time, one column per term."""
    return np.reshape(np.transpose([dev.schedule_value(s, ts) for s, _ in terms]),
                      (len(ts), len(terms)))


def midpoint(terms, edges):
    """Reference rule (second order): per interval, one exponential of H at its midpoint."""
    h = np.diff(edges)
    return _values(terms, edges[:-1] + h / 2), h


def cf4(terms, edges):
    """CF4:2 (fourth order): per interval, exp(-i h/2 (H0 + sum g2 B)) after
    exp(-i h/2 (H0 + sum g1 B)), with g1 = 2(a f1 + a' f2) and g2 = 2(a' f1 + a f2)
    at the Gauss nodes, a, a' = 1/4 +- sqrt3/6; taken as f1 - c (f2 - f1) and
    f2 + c (f2 - f1), c = sqrt3/3 - 1/2, so that g = f exactly where f is still."""
    h = np.diff(edges)
    f1, f2 = (_values(terms, edges[:-1] + x * h) for x in _GAUSS)
    d = _CF4_C * (f2 - f1)
    return np.stack([f1 - d, f2 + d], axis=1).reshape(2 * len(h), len(terms)), np.repeat(h / 2, 2)


def step_grid(g: dev.DeviceGraph, t0: float, t1: float, h: float):
    """Interval edges over [t0, t1], or None when no schedule moves there.

    The window is cut into equal intervals of at most h.  An interval of
    length s over which H moves is halved while its local-error proxy
    s ||dH|| max(1, s ||H||) exceeds ``GRID_TOL`` h / h_auto, h_auto = 2 dt
    of the auto step.  With ||dH|| ~ s ||H'||, halving s quarters the proxy
    while halving h halves the threshold: a graded stretch's steps shrink
    like sqrt(dt), so it converges at second order in dt where the bulk
    converges at fourth, and the refinement fades as dt shrinks.  An interval
    is also halved while it moves by s ||dH|| > ``STILL`` at a phase
    s ||H|| above ``MAX_PHASE``: the pair's entangle ramp errs by 2e-4 at a
    phase of 8 and by 4e-9 at 4, while a barely moving stretch is fine at any
    phase.  Runs of intervals over which H does not move are merged.  ||dH||
    and ||H|| are bounded from the graph's schedules (a tunneling amplitude
    counts once, a Coulomb link half, as in :func:`device.energy_scale`), so
    every block and sector of the device steps on the same grid.
    """
    driven = [(t.amplitude, 1.0) for t in g.tunnel_terms]
    driven += [(link.strength, 0.5) for link in g.coulomb_links]
    driven = [(s, w) for s, w in driven if not s.is_constant]

    def variation(edges):  # schedules are monotone: the end values bound the change
        return sum((w * np.abs(np.diff(s.value(edges))) for s, w in driven),
                   np.zeros(len(edges) - 1))

    if not variation(np.array([t0, t1]))[0]:
        return None
    edges = np.linspace(t0, t1, max(1, int(np.ceil((t1 - t0) / h))) + 1)
    scale = dev.energy_scale(g)
    tol = GRID_TOL * h / (2 * PropagatorConfig().resolve_dt(g))
    for _ in range(_MAX_HALVINGS):
        span = np.diff(edges)
        dh, phase = span * variation(edges), span * scale
        coarse = (dh * np.maximum(1.0, phase) > tol) | ((dh > STILL) & (phase > MAX_PHASE))
        if not coarse.any():
            break
        edges = np.sort(np.concatenate([edges, edges[:-1][coarse] + span[coarse] / 2]))
    moves = variation(edges) > 0
    return edges[np.concatenate([[True], moves[:-1] | moves[1:], [True]])]


def _sweep(psi, H0, terms, F, hs):
    """Advance psi (a state or a column block) by exp(-i hs[k] (H0 + sum_j F[k, j] B_j))
    for k = 0, 1, ...: each chunk's product U[N-1] ... U[0] is taken pairwise in
    log-depth batched calls and applied once."""
    c0 = 0
    for Hs in _hamiltonians(H0, terms, F):
        Us = _step_propagators(Hs, hs[c0:c0 + len(Hs)])
        c0 += len(Hs)
        while len(Us) > 1:  # an odd count carries its last factor
            pairs = Us[1::2] @ Us[0:-1:2]
            Us = np.concatenate([pairs, Us[-1:]]) if len(Us) % 2 else pairs
        psi = Us[0] @ psi
    return psi


def sweep_block(psi, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig,
                compiled=None):
    """Sweep psi (a state or column block) over [t0, t1] under g, or under
    ``compiled``, an invariant block of ``hamiltonian_terms(g)`` (the step grid
    still from g), by :func:`cf4` on :func:`step_grid`'s grid of coarse step
    2 dt.  ``richardson_check`` reruns with every interval halved and bounds
    the (Frobenius) deviation."""
    if not t1 >= t0:
        raise DimensionError(f"need t0 <= t1, got [{t0}, {t1}]")
    if t1 == t0:
        return psi
    H0, terms = compiled or dev.hamiltonian_terms(g)
    dt = cfg.resolve_dt(g)
    edges = step_grid(g, t0, t1, 2 * dt)
    if edges is None:  # nothing moves: one exponential is exact
        return _sweep(psi, H0, terms, *midpoint(terms, np.array([t0, t1])))
    out = _sweep(psi, H0, terms, *cf4(terms, edges))
    if cfg.richardson_check:
        halves = np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2]))
        out_half = _sweep(psi, H0, terms, *cf4(terms, halves))
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

    Schedules are sampled at each step's Gauss nodes, inside the step.  A
    :func:`flip_symmetric` device sweeps a state that is exactly a flip
    eigenvector (S[::-1] == s S, s = +-1) in its half-dimension sector, on the
    orthonormal basis (e_i + s e_{d-1-i}) / sqrt(2).
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
    H0, terms = dev.hamiltonian_terms(g)
    gaps = np.concatenate([np.ptp(np.linalg.eigvalsh(dev.check_hermitian(Hs))[:, :2], axis=1)
                           for Hs in _hamiltonians(H0, terms, _values(terms, ts))])  # E1 - E0
    gsT = ground_state(dev.hamiltonian_at(g, t1))
    final_overlap = float(abs(np.vdot(gsT.state.amps, final.amps)) ** 2)
    diag = RampDiagnostics(float(np.min(gaps)), ts, gaps, init_overlap, final_overlap)
    return final, diag
