"""Propagation engines.

Dense evolution is done with exact exponentials of Hermitian matrices obtained
by eigendecomposition, so every step is unitary to machine precision and the
norm is conserved by construction.  A time-dependent device
H(t) = H0 + sum_j f_j(t) B_j is integrated with the fourth-order
commutator-free rule CF4:2 (:func:`cf4`; Blanes & Moan, Appl. Numer. Math. 56
(2006); Alvermann & Fehske, J. Comput. Phys. 230 (2011)): each interval of the
step grid takes two exponentials, each of a fixed combination of H at the
interval's two Gauss nodes.  The grid (:func:`step_grid`) is graded from the
device's schedules before any step is taken: intervals of 2 dt, halved where
H moves fast, by a threshold that shrinks with dt, and merged where it does
not move, so a static window is one exponential (at the auto dt or coarser,
also where it barely moves, in steps longer than 2 dt).  Every exponential's
eigendecomposition is refined (``_step_propagators``).  The exponential
midpoint rule (:func:`midpoint`, second order) stays as the reference rule.

The dense sweep (:func:`sweep_block`) of the whole 2^n register is the general
engine and the tests' reference.  The support ramps (:func:`adiabatic_ramp`)
and the coupling sweep an open transverse-field Ising chain as 2M x 2M rotations
of a Gaussian state's Majorana covariance (:func:`sweep_majorana`), which they take
and return with no 2^n vector; the rotations are taken by scaling and squaring
with batched products alone (``_rotations``), without an eigendecomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .errors import ConfigError, ConvergenceError, DimensionError
from .hilbert import StateVector, _own_state, fix_phase, gaussian_overlap_sq

_CHUNK_BYTES = 2**18  # one sweep chunk's complex step stack; _rotations peaks at ~2.9x this
_TWO_PI = 8 * np.arctan(np.longdouble(1))  # a float64 2 pi errs by 2.4e-16 per turn

DEGENERACY_TOL = 1e-10

_GAUSS = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6  # Gauss nodes on [0, 1]
_CF4_C = np.sqrt(3) / 3 - 0.5  # the CF4:2 weights 1/4 +- sqrt3/6, as an extrapolation

# x^k coefficients, k <= 12, of C, S, T = cos sqrt x, sin sqrt x / sqrt x, (1 - cos sqrt x) / x
# in Paterson-Stockmeyer blocks: block b holds x^(4b), ..., x^(4b+4), the x^12 in the top one;
# one row per (block, function)
_TAYLOR = np.array([[(-1) ** k / math.factorial(2 * k + j) for k in range(13)] for j in range(3)])
_TAYLOR_BLOCKS = np.concatenate([np.pad(_TAYLOR[:, :4], [(0, 0), (0, 1)]),
                                 np.pad(_TAYLOR[:, 4:8], [(0, 0), (0, 1)]), _TAYLOR[:, 8:]])
_GOLDEN = (np.sqrt(5) - 1) / 2  # _rotations' step perturbations: k * _GOLDEN mod 1

# step_grid's thresholds
GRID_TOL = 0.03
STILL = 1e-4
MAX_PHASE = 5.0
_MAX_HALVINGS = 40
MAX_INTERVALS = 2**22  # a grid past this many intervals is out of simulation reach


@dataclass(frozen=True)
class PropagatorConfig:
    """Integration knobs for scheduled evolution.

    ``dt`` is the single accuracy control.  It sets the coarse step: a CF4
    step of 2 dt takes two exponentials.  :func:`step_grid` may halve steps
    where the schedules move fast, by a threshold proportional to dt, so a
    smaller dt refines the whole grid, its graded stretches included.  At the
    auto dt or coarser it merges steps where H barely moves, past 2 dt.
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


def _hermitian(H) -> np.ndarray:
    """H as a non-empty square array, checked Hermitian to 1e-12 (DimensionError otherwise)."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or not H.size:
        raise DimensionError(f"Hamiltonian of shape {H.shape} is not a non-empty square matrix")
    if not np.max(np.abs(H - H.conj().T)) <= 1e-12:  # NaN fails too
        raise DimensionError("Hamiltonian is not Hermitian (or not finite)")
    return H


def ground_state(H: np.ndarray) -> GroundState:
    """Lowest eigenpair, phase-fixed; flags a ground gap below 1e-10."""
    evals, evecs = np.linalg.eigh(_hermitian(H))
    degenerate = bool(len(evals) > 1 and evals[1] - evals[0] <= DEGENERACY_TOL)
    return GroundState(float(evals[0]), _own_state(fix_phase(evecs[:, 0])), degenerate)


def evolve_static(state: StateVector, H: np.ndarray, duration: float) -> StateVector:
    """exp(-i H duration)|state> over a finite duration, by the refined exponential of
    ``_step_propagators``."""
    H = _hermitian(H)
    if H.shape[0] != state.dim:
        raise DimensionError(f"H dim {H.shape[0]} vs state dim {state.dim}")
    if not np.isfinite(duration):
        raise DimensionError(f"duration {duration} is not finite")
    return _own_state(_step_propagators(H[None], duration)[0] @ state.amps)


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


def _rotations(Ks, h):
    """exp(h A), A = [[0, 2K], [-2K^T, 0]], for a batch of real M x M K (the Majorana rotation
    of a step h of H = i sum a_j K_jk b_k), by matrix products alone.  With B = 2hK and
    P = B B^T it is [[C(P), S(P) B], [-(S(P) B)^T, I - B^T T(P) B]], C(x) = cos sqrt x,
    S(x) = sin sqrt x / sqrt x, T(x) = (1 - cos sqrt x) / x: entire functions of P, so
    repeated and zero singular values need no care.  They are taken at B / 2^s, s the
    chunk's least with sqrt(||B||_1 ||B||_inf) / 2^s <= 2 (so ||P|| <= 4), as degree-12
    Paterson-Stockmeyer sums sharing P, ..., P^4, and the rotation is squared s times
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    Consecutive steps of a sweep share their length and every constant entry of K, so they
    would round alike and their errors add up: over the ~3k coupling steps of a 4-site
    coupler at a step angle of 17 the coupled state erred by up to 2.6e-12 against the dense
    sweep, where the SVD this replaces stayed within 3e-13.  So step k of a batch is taken at
    t = 2h/2^s (1 + eps_k), eps_k within +-2^-30 from the Weyl sequence k _GOLDEN mod 1, and
    moved on by the exact remainder to first order: with d = (2h/2^s - t) / t, O + d G O,
    G = [[0, B], [-B^T, 0]], is the rotation above with C - d P S, S + d C and T + d S in
    place of C, S and T; the second order is below 1e-17.
    """
    N, M = Ks.shape[0], Ks.shape[-1]
    h2 = 2 * np.broadcast_to(h, N)
    norms = [np.einsum(f, np.abs(Ks)).max(1) for f in ("kij->kj", "kij->ki")]  # ||K||_1, _inf
    s = int(np.ceil(np.log2(max((np.abs(h2) * np.sqrt(norms[0] * norms[1])).max(), 2.0) / 2)))
    tau = np.ldexp(h2, -s)
    t = tau * (1 + 2.0**-29 * ((np.arange(N) * _GOLDEN) % 1 - 0.5))
    B = t[:, None, None] * Ks
    Bt = np.ascontiguousarray(np.swapaxes(B, 1, 2))
    X = np.empty((5, N, M, M))  # I, P, P^2, P^3, P^4, written in place
    _, P, P2, P3, P4 = X
    X[0] = np.eye(M)
    for a, b, out in ((B, Bt, P), (P, P, P2), (P2, P, P3), (P2, P2, P4)):
        np.matmul(a, b, out=out)
    blocks = (_TAYLOR_BLOCKS @ X.reshape(5, -1)).reshape(3, 3, N, M, M)  # [block, function]
    C, S, T = (blocks[2] @ P4 + blocks[1]) @ P4 + blocks[0]
    del blocks  # its nine stacks, freed before the rotation is assembled and squared
    d = np.divide(tau - t, t, out=np.zeros_like(t), where=t != 0)[:, None, None]  # tau - t exact
    C, S, T = C - d * (P @ S), S + d * C, T + d * S  # O + d [[0, B], [-B^T, 0]] O
    O = np.empty((N, 2 * M, 2 * M))
    O[:, :M, :M], O[:, :M, M:] = C, S @ B
    O[:, M:, :M], O[:, M:, M:] = -np.swapaxes(O[:, :M, M:], 1, 2), X[0] - Bt @ (T @ B)
    for _ in range(s):
        O = O @ O
    return O


def _hamiltonians(H0, terms, F, d=None):
    """H0 + sum_j F[k, j] B_j per row k of F, in stacks sized as complex d x d (d = len(H0)
    unless given) stacks of <= _CHUNK_BYTES, or of one H."""
    n = max(1, _CHUNK_BYTES // (16 * (d or len(H0)) ** 2))
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


@np.errstate(over="ignore")  # an overflowed local-error proxy is inf and still compares
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
    phase.  Runs of intervals over which H does not move are merged.  When
    h >= h_auto, intervals 2k, 2k + 1 are then merged, pass after pass, while
    their union of length s passes both tests and its halves move alike, by a
    and b with s |a - b| max(1, s ||H||) <= ``STILL`` (merging a smooth ramp's
    ends, whose rate grows from 0, raised the pair's entangle error from 1.2e-7
    to 2.1e-7).  Merged steps do not shrink like h, so a finer dt is not
    merged.  ||dH|| and ||H|| are bounded from the graph's schedules (a
    tunneling amplitude counts once, a Coulomb link half, as in
    :func:`device.energy_scale`), so every block and sector of the device
    steps on the same grid.  Raises
    ConfigError before building a grid of more than ``MAX_INTERVALS``.
    """
    driven = [(t.amplitude, 1.0) for t in g.tunnel_terms]
    driven += [(link.strength, 0.5) for link in g.coulomb_links]
    driven = [(s, w) for s, w in driven if not s.is_constant]

    def variation(edges):  # schedules are monotone: the end values bound the change
        return sum((w * np.abs(np.diff(s.value(edges))) for s, w in driven),
                   np.zeros(len(edges) - 1))

    def check(n_intervals):
        if not n_intervals <= MAX_INTERVALS:  # NaN and inf fail too
            raise ConfigError(f"the step grid over [{t0:.3g}, {t1:.3g}] needs {n_intervals:.3g} "
                              f"intervals, more than {MAX_INTERVALS}; the run is out of reach")

    def coarse(span, moved):  # per interval: fails the local-error proxy or the phase rule
        dh, phase = span * moved, span * scale
        return (dh * np.maximum(1.0, phase) > tol) | ((dh > STILL) & (phase > MAX_PHASE))

    if not variation(np.array([t0, t1]))[0]:
        return None
    check(n := np.ceil((t1 - t0) / h))
    edges = np.linspace(t0, t1, max(1, int(n)) + 1)
    scale = dev.energy_scale(g)
    h_auto = 2 * PropagatorConfig().resolve_dt(g)
    tol = GRID_TOL * h / h_auto
    for _ in range(_MAX_HALVINGS):
        span = np.diff(edges)
        if not (halve := coarse(span, variation(edges))).any():
            break
        check(len(span) + np.count_nonzero(halve))
        edges = np.sort(np.concatenate([edges, edges[:-1][halve] + span[halve] / 2]))
    moves = variation(edges) > 0
    edges = edges[np.concatenate([[True], moves[:-1] | moves[1:], [True]])]
    while h >= h_auto:  # merge intervals 2k, 2k + 1 whose union passes and whose halves move alike
        moved = variation(edges)
        a, b, span = moved[0:-1:2], moved[1::2], np.diff(edges[::2])
        bend = span * np.abs(b - a) * np.maximum(1.0, span * scale)
        if not (merge := ~coarse(span, a + b) & (bend <= STILL)).any():
            break
        edges = np.delete(edges, 2 * np.flatnonzero(merge) + 1)
    return edges


def _sweep(psi, H0, terms, F, hs, step=None):
    """Advance psi (a state or a column block) by step(H0 + sum_j F[k, j] B_j, hs[k])
    for k = 0, 1, ...: each chunk's product U[N-1] ... U[0] is taken pairwise in
    log-depth batched calls and applied once.  ``step`` is the batched exponential,
    exp(-i h H) by ``_step_propagators`` unless given."""
    step, c0 = step or _step_propagators, 0
    for Hs in _hamiltonians(H0, terms, F, len(psi)):
        Us = step(Hs, hs[c0:c0 + len(Hs)])
        c0 += len(Hs)
        while len(Us) > 1:  # an odd count carries its last factor
            pairs = Us[1::2] @ Us[0:-1:2]
            Us = np.concatenate([pairs, Us[-1:]]) if len(Us) % 2 else pairs
        psi = Us[0] @ psi
    return psi


def _graded(g, t0, t1, cfg, run, deviation):
    """run(rule, edges) by :func:`cf4` on :func:`step_grid`'s grid of coarse step 2 dt, or by one
    (exact) midpoint exponential when nothing moves; ``richardson_check`` reruns with every
    interval halved and bounds ``deviation`` between the two results."""
    if not -np.inf < t0 <= t1 < np.inf:  # NaN fails too
        raise DimensionError(f"need finite t0 <= t1, got [{t0}, {t1}]")
    dt = cfg.resolve_dt(g)
    edges = step_grid(g, t0, t1, 2 * dt)
    if edges is None:
        return run(midpoint, np.array([t0, t1]))
    out = run(cf4, edges)
    if cfg.richardson_check:
        halves = np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2]))
        out_half = run(cf4, halves)
        err = deviation(out, out_half)
        if err > cfg.tolerance:
            raise ConvergenceError(
                f"step-doubling deviation {err:.3e} exceeds tolerance {cfg.tolerance:.1e} "
                f"at dt={dt:.3e}; decrease dt"
            )
        out = out_half
    return out


def sweep_block(psi, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig):
    """Sweep psi (a state or column block) over [t0, t1] under ``hamiltonian_terms(g)``,
    by :func:`cf4` on :func:`step_grid`'s grid of coarse step 2 dt.  ``richardson_check``
    reruns with every interval halved and bounds the (Frobenius) deviation."""
    if t1 == t0:
        return psi
    H0, terms = dev.hamiltonian_terms(g)
    return _graded(g, t0, t1, cfg,
                   lambda rule, edges: _sweep(psi, H0, terms, *rule(terms, edges)),
                   lambda a, b: float(np.linalg.norm(a - b)))


def sweep_majorana(gamma, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig,
                   compiled) -> np.ndarray:
    """A Gaussian state's Majorana covariance ``gamma`` swept over [t0, t1] under g: O gamma
    O^T for the 2M x 2M rotation O of :func:`sweep_block`'s sweep under ``compiled`` =
    :func:`device.majorana_terms` (g), which drifts from Gamma Gamma^T = I by ~1e-12, taken
    back to a pure covariance by one Newton-Schulz step Gamma (3I - Gamma^T Gamma) / 2.
    ``richardson_check`` bounds ||dGamma||_F / 4 on the halved grid, to first order the
    change of the phase-aligned state."""
    def run(rule, edges):
        O = _sweep(np.eye(len(gamma)), *compiled, *rule(compiled[1], edges), _rotations)
        G = O @ gamma @ O.T
        return G @ (3 * np.eye(len(G)) - G.T @ G) / 2
    return _graded(g, t0, t1, cfg, run, lambda a, b: float(np.linalg.norm(a - b)) / 4)


def evolve_scheduled(state: StateVector, g: dev.DeviceGraph, t0: float, t1: float,
                     cfg: PropagatorConfig | None = None) -> StateVector:
    """Integrate the time-dependent device Hamiltonian from t0 to t1 on the whole register,
    global phase included; schedules are sampled at each step's Gauss nodes, inside the step."""
    return _own_state(sweep_block(state.amps, g, t0, t1, cfg or PropagatorConfig()))


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


def adiabatic_ramp(gamma, g: dev.DeviceGraph, t0: float, t1: float,
                   cfg: PropagatorConfig | None = None):
    """(Gamma, RampDiagnostics): the Majorana covariance ``gamma`` of a Gaussian state swept
    by :func:`sweep_majorana`, and spectral-gap and ground-overlap diagnostics from K(t) of
    :func:`device.majorana_terms`, which raises DeviceError for a g it does not compile.

    One batched SVD K = U S V^T at 64 times gives the gaps E1 - E0 = 2 sigma_min and,
    at t0 and t1, the ground state's covariance [[0, -U V^T], [V U^T, 0]], whose squared
    overlap with a state of covariance Gamma is :func:`.hilbert.gaussian_overlap_sq`.  Warns
    when the initial state is not close to the instantaneous ground state at t0 (the
    ramp then has no adiabatic guarantee).
    """
    K0, terms = chain = dev.majorana_terms(g)
    ts = np.linspace(t0, t1, 64)
    U, s, Vt = np.linalg.svd(np.concatenate(list(_hamiltonians(K0, terms, _values(terms, ts)))))

    def ground_overlap_sq(k, gamma):
        W, Z = U[k] @ Vt[k], np.zeros_like(U[k])
        return gaussian_overlap_sq(np.block([[Z, -W], [W.T, Z]]), gamma)

    init_overlap = ground_overlap_sq(0, gamma)
    if init_overlap < 0.99:
        warnings.warn(
            f"initial ground-state overlap^2 is {init_overlap:.4f}; "
            "adiabatic following is not guaranteed",
            stacklevel=2,
        )
    final = sweep_majorana(gamma, g, t0, t1, cfg or PropagatorConfig(), chain)
    gaps = 2 * s[:, -1]
    diag = RampDiagnostics(float(np.min(gaps)), ts, gaps, init_overlap, ground_overlap_sq(-1, final))
    return final, diag
