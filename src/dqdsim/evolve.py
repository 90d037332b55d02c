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
engine.  No channel stage takes it (the rotation gate is in closed form): it serves
acceptance criteria 1 and 9 and the tests' references.  The support ramps (:func:`adiabatic_ramp`)
and the coupling sweep an open transverse-field Ising chain as 2M x 2M rotations
of a Gaussian state's Majorana covariance (:func:`sweep_majorana`), which they take
and return with no 2^n vector; the rotations are taken by scaling and squaring
with batched products alone (``_rotations``), without an eigendecomposition.
Their steps and rotation are planned once per device and window (:func:`sweep_plan`).
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from collections import namedtuple
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
_TOP_LEVELS = 9  # step_grid tests its blocks' top levels, down to <= 512 blocks, in one batch

_PLAN_ENTRIES, _PLAN_BYTES = 32, 2**24  # each memo holds at most so many values and bytes
_PLANS, _SPECTRA, _MEMO_LOCK = {}, {}, threading.Lock()  # sweep_plan's and adiabatic_ramp's memo


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
    norms = [functools.reduce(np.maximum, np.einsum(f, np.abs(Ks))) for f in ("kij->jk", "kij->ik")]
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
    """Schedule values f_j(t): one row per time, one column per term; each distinct schedule
    (a crossed link pair's two links share one) is evaluated once."""
    vals = {s: dev.schedule_value(s, ts) for s in dict.fromkeys(s for s, _ in terms)}
    return np.reshape(np.transpose([vals[s] for s, _ in terms]), (len(ts), len(terms)))


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


def check_reach(n_intervals, t0: float, t1: float):
    """ConfigError when a step grid over [t0, t1] needs more than ``MAX_INTERVALS`` intervals."""
    if not n_intervals <= MAX_INTERVALS:  # NaN and inf fail too
        raise ConfigError(f"the step grid over [{t0:.3g}, {t1:.3g}] needs {n_intervals:.3g} "
                          f"intervals, more than {MAX_INTERVALS}; the run is out of reach")


@np.errstate(over="ignore")  # an overflowed local-error proxy is inf and still compares
def step_grid(g: dev.DeviceGraph, t0: float, t1: float, h: float):
    """Interval edges over [t0, t1], or None when no schedule moves there (each takes one
    value at t0 and t1).

    The window is cut into n = ceil((t1 - t0) / h) equal coarse intervals.  An interval of
    length s over which H moves fails while its local-error proxy s ||dH|| max(1, s ||H||)
    exceeds ``GRID_TOL`` h / h_auto, h_auto = 2 dt of the auto step: with ||dH|| ~ s ||H'||,
    halving s quarters the proxy while halving h halves the threshold, so a graded
    stretch's steps shrink like sqrt(dt) and it converges at second order in dt where the
    bulk converges at fourth.  It also fails while it moves by s ||dH|| > ``STILL`` at a
    phase s ||H||_s above ``MAX_PHASE``, ||H||_s its own bound (CF4 converges below a phase
    of pi; Moan & Niesen, Found. Comput. Math. 8, 291 (2008)): the pair's entangle ramp
    errs by 2e-4 at a phase of 8 and by 4e-9 at 4, while a barely moving stretch is fine at
    any phase.  The proxy keeps the window's ||H||: at ||H||_s it erred 9x more.

    When h >= h_auto, the coarse intervals are first merged top-down in dyadic blocks
    [k 2^l, min((k + 1) 2^l, n)): a block with two halves is one interval when its union of
    length s passes and its halves move alike, by a and b with s |a - b| max(1, s ||H||) <=
    ``STILL`` (merging a smooth ramp's ends, whose rate grows from 0, raised the pair's
    entangle error from 1.2e-7 to 2.1e-7), else its halves are tested; a block with one
    half is that half.  The coarse intervals reached are halved while they fail.  Runs of
    intervals over which H does not move are then merged and, when h >= h_auto, intervals
    2k, 2k + 1 pass after pass by the blocks' rule.  Merged steps do not shrink like h, so
    a finer dt is not merged.  The monotone schedules' values at the window's ends bound
    ||H||, and at an interval's ends ||dH|| and ||H||_s, weighted by
    :func:`device.norm_weights`, so every block and sector of the device steps on the same
    grid.  Cost: in proportion to the blocks visited, not to n.  Each distinct schedule is
    evaluated once per time the rule visits, a tested block's edges and middle (the top
    ``_TOP_LEVELS`` levels' in one batch) or a halving's middle, and the merge passes reuse
    the values.  Raises ConfigError before building a grid of more than ``MAX_INTERVALS``.
    """
    terms = dev.norm_weights(g)
    held = sum(w * abs(s.v_start) for s, w in terms if s.is_constant)
    scheds = list(dict.fromkeys(s for s, _ in terms if not s.is_constant))
    driven = [(scheds.index(s), w) for s, w in terms if not s.is_constant]

    def values(ts):  # one row per distinct schedule, one column per time
        return np.array([dev.schedule_value(s, ts) for s in scheds]).reshape(len(scheds), len(ts))

    def weighted(X, start=0.0):  # start + the driven terms' weighted rows of X, in their order
        return sum((w * X[i] for i, w in driven), start)

    def variation(lo, hi):  # schedules are monotone: the end values bound the change
        return weighted(np.abs(hi - lo))

    def coarse(span, stretch, moved, lo, hi):  # per interval of end values lo, hi: fails the
        dh = span * moved  # local-error proxy, or the phase rule at the bound on ||H|| they give
        phase = span * weighted(np.maximum(np.abs(lo), np.abs(hi)), held)
        return (dh * stretch > tol) | ((dh > STILL) & (phase > MAX_PHASE))

    def merges(span, lo, mid, hi):  # per union of two halves: they move alike, and it passes
        a, b, stretch = variation(lo, mid), variation(mid, hi), np.maximum(1.0, span * scale)
        alike = span * np.abs(b - a) * stretch <= STILL
        return alike & ~coarse(span, stretch, a + b, lo, hi) if alike.any() else alike

    ends = values(np.array([t0, t1], dtype=float))
    if np.all(ends[:, 0] == ends[:, 1]):
        return None
    check_reach(n := np.ceil((t1 - t0) / h), t0, t1)
    n = max(1, int(n))
    step = (t1 - t0) / n  # coarse edge i < n is i step + t0, as np.linspace lays it
    scale, h_auto = dev.energy_scale(g), 2 * PropagatorConfig().resolve_dt(g)
    tol = GRID_TOL * h / h_auto

    # the blocks of the top levels, tested in one batch on the edges of the blocks of
    # 2^top coarse intervals, as columns [coarse index, time, values]
    levels = (n - 1).bit_length() if h >= h_auto else 0  # the root's 2^levels >= n
    top = max(0, levels - _TOP_LEVELS)
    at = np.arange(0, n, 1 << top)
    m = len(at)
    P = np.empty((2 + len(scheds), m + 1))
    P[:2, :m], P[:2, m] = (at, at * step + t0), (n, t1)
    P[2:, 0], P[2:, 1:m], P[2:, m] = ends[:, 0], values(P[1, 1:m]), ends[:, 1]
    r = 1 << np.arange(levels - top, 0, -1)  # the block sizes, root first, in batch intervals
    blocks = (m + r // 2 - 1) // r  # per size, the blocks with two halves: k r + r/2 < m
    size = np.repeat(r, blocks)
    lo = (np.arange(len(size)) - np.repeat(np.cumsum(blocks) - blocks, blocks)) * size
    mid, hi = lo + size // 2, np.minimum(lo + size, m)
    passed = merges(P[1, hi] - P[1, lo], *(np.take(P[2:], i, axis=1) for i in (lo, mid, hi)))
    reached, merged = np.ones(m, bool), []
    for a, b in zip(lo[passed].tolist(), hi[passed].tolist()):
        if reached[a]:  # not inside a block merged above it
            reached[a:b] = False
            merged.append(a)
    laid = [np.take(P[1:], merged, axis=1)]  # the left edges [time, values] of intervals laid

    # the blocks reached, level by level in order of their coarse index: their edges
    f = np.flatnonzero(reached)
    L, R = np.take(P, f, axis=1), np.take(P[1:], f + 1, axis=1)
    for level in range(top, 0, -1):
        mid = L[0] + (1 << level - 1)
        k = len(mid) - np.count_nonzero(mid[-1:] >= n)  # the last may have one half: it
        tm = mid[:k] * step + t0  # passes down as it is
        M = np.concatenate([mid[None, :k], tm[None], values(tm)])
        ok = merges(R[0, :k] - L[1, :k], L[2:, :k], M[2:], R[1:, :k])
        laid.append(np.compress(ok, L[1:, :k], axis=1))
        i = np.flatnonzero(~ok)  # the blocks that fail give their halves
        L = np.concatenate([np.take(L, i, axis=1), np.take(M, i, axis=1), L[:, k:]], axis=1)
        R = np.concatenate([np.take(M[1:], i, axis=1), np.take(R, i, axis=1), R[:, k:]], axis=1)

    # the coarse intervals reached, halved while they fail: one that passes keeps passing
    L, count = L[1:], n
    for _ in range(_MAX_HALVINGS):
        span = R[0] - L[0]
        halve = coarse(span, np.maximum(1.0, span * scale), variation(L[1:], R[1:]), L[1:], R[1:])
        if not len(i := np.flatnonzero(halve)):
            break
        check_reach(count := count + len(i), t0, t1)
        laid.append(np.compress(~halve, L, axis=1))
        L, R = np.take(L, i, axis=1), np.take(R, i, axis=1)
        tm = L[0] + span[i] / 2
        M = np.concatenate([tm[None], values(tm)])
        L, R = np.concatenate([L, M], axis=1), np.concatenate([M, R], axis=1)
    P = np.concatenate(laid + [L, P[1:, -1:]], axis=1)
    edges, V = P[0, order := np.argsort(P[0])], P[1:, order]  # equal times hold equal values
    moves = variation(V[:, :-1], V[:, 1:]) > 0
    keep = np.concatenate([[True], moves[:-1] | moves[1:], [True]])
    edges, V = edges[keep], V[:, keep]
    while h >= h_auto:  # merge intervals 2k, 2k + 1 by the blocks' rule
        if not (merge := merges(np.diff(edges[::2]), V[:, 0:-2:2], V[:, 1:-1:2], V[:, 2::2])).any():
            break
        drop = 2 * np.flatnonzero(merge) + 1
        edges, V = np.delete(edges, drop), np.delete(V, drop, axis=1)
    return edges


def _sweep(psi, H0, terms, F, hs, step=None):
    """Advance psi (a state or a column block) by step(H0 + sum_j F[k, j] B_j, hs[k])
    for k = 0, 1, ...: each chunk's product U[N-1] ... U[0] is taken pairwise in
    log-depth batched calls and applied once.  ``step`` is the batched exponential,
    exp(-i h H) by ``_step_propagators`` unless given.  A ``_rotations`` step is orthogonal
    only to ~1e-14 after its squarings and a chunk's product to the sum of its steps'
    defects (1.4e-12 over the 66 coupling steps at U = 164w, U' = 4w, dt = 0.41/w), so each
    such product O is taken back by one Newton-Schulz step O (3I - O^T O) / 2."""
    step, c0 = step or _step_propagators, 0
    for Hs in _hamiltonians(H0, terms, F, len(psi)):
        Us = step(Hs, hs[c0:c0 + len(Hs)])
        c0 += len(Hs)
        while len(Us) > 1:  # an odd count carries its last factor
            pairs = Us[1::2] @ Us[0:-1:2]
            Us = np.concatenate([pairs, Us[-1:]]) if len(Us) % 2 else pairs
        U = Us[0]
        if step is _rotations:
            U = U @ (3 * np.eye(len(U)) - U.T @ U) / 2
        psi = U @ psi
    return psi


SweepPlan = namedtuple("SweepPlan", "compiled dt edges F hs O", defaults=(None,))  # sweep_plan


def _lay(g, t0, t1, cfg, compile_) -> SweepPlan:
    compiled = compile_(g)
    if not -np.inf < t0 <= t1 < np.inf:  # NaN fails too
        raise DimensionError(f"need finite t0 <= t1, got [{t0}, {t1}]")
    edges = step_grid(g, t0, t1, 2 * (dt := cfg.resolve_dt(g)))
    rule, at = (midpoint, np.array([t0, t1])) if edges is None else (cf4, edges)
    return SweepPlan(compiled, dt, edges, *rule(compiled[1], at))


def _arrays(x):  # the arrays of x and of the tuples nested in it
    if isinstance(x, tuple):
        return [a for y in x for a in _arrays(y)]
    return [x] if isinstance(x, np.ndarray) else []


def memoised(memo: dict, key, make):
    """memo[key] (key -> (value, bytes)), made by make() on a miss with its arrays read-only.  A
    memo keeps at most ``_PLAN_ENTRIES`` values of ``_PLAN_BYTES`` in all, the least recently
    used dropped first (a larger one is used but not kept).  A hit moves its key last and
    returns; make() runs outside the lock, as it may reach another memo; of two racing builds
    of one key, the one kept first is served."""
    with _MEMO_LOCK:
        if (kept := memo.pop(key, None)) is not None:
            memo[key] = kept
            return kept[0]
    value, size = make(), 0
    for a in _arrays(value):
        a.setflags(write=False)
        size += a.nbytes
    with _MEMO_LOCK:
        value, size = memo.pop(key, (value, size))
        if size <= _PLAN_BYTES:
            memo[key] = value, size
            while len(memo) > _PLAN_ENTRIES or sum(n for _, n in memo.values()) > _PLAN_BYTES:
                del memo[next(iter(memo))]
    return value


def sweep_plan(g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig) -> SweepPlan:
    """What a Majorana sweep under g over [t0, t1] steps on, read-only and input-independent: the
    ``compiled`` chain, :func:`device.majorana_terms` (g) (2M x 2M, no 2^n array), the resolved
    ``dt``, :func:`step_grid`'s ``edges`` (None when nothing moves), the values ``F`` and step
    lengths ``hs`` of :func:`cf4` on them (else of one :func:`midpoint` step) and the sweep's
    2M x 2M rotation ``O``, the product of its steps' :func:`_rotations`.  Memoised on (g, t0,
    t1, dt), the grid's constants and ``_CHUNK_BYTES``, whose chunks decide O's last bits; it
    never holds anything computed from a swept covariance."""
    key = (g, t0, t1, cfg.resolve_dt(g), GRID_TOL, STILL, MAX_PHASE, MAX_INTERVALS, _TOP_LEVELS,
           _CHUNK_BYTES)

    def lay():
        plan = _lay(g, t0, t1, cfg, dev.majorana_terms)
        eye = np.eye(2 * len(plan.compiled[0]))
        return plan._replace(O=_sweep(eye, *plan.compiled, plan.F, plan.hs, _rotations))
    return memoised(_PLANS, key, lay)


def _graded(plan, cfg, run, deviation):
    """run(F, hs) on the plan's steps; ``richardson_check`` reruns with every grid interval
    halved and bounds ``deviation`` between the two results."""
    out = run(plan.F, plan.hs)
    if cfg.richardson_check and (e := plan.edges) is not None:
        out_half = run(*cf4(plan.compiled[1], np.sort(np.concatenate([e, (e[:-1] + e[1:]) / 2]))))
        if (err := deviation(out, out_half)) > cfg.tolerance:
            raise ConvergenceError(f"step-doubling deviation {err:.3e} exceeds tolerance "
                                   f"{cfg.tolerance:.1e} at dt={plan.dt:.3e}; decrease dt")
        out = out_half
    return out


def sweep_block(psi, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig):
    """Sweep psi (a state or column block) over [t0, t1] under ``hamiltonian_terms(g)``,
    by :func:`cf4` on :func:`step_grid`'s grid of coarse step 2 dt.  ``richardson_check``
    reruns with every interval halved and bounds the (Frobenius) deviation."""
    if t1 == t0:
        return psi
    plan = _lay(g, t0, t1, cfg, dev.hamiltonian_terms)
    return _graded(plan, cfg, lambda F, hs: _sweep(psi, *plan.compiled, F, hs),
                   lambda a, b: float(np.linalg.norm(a - b)))


def sweep_majorana(gamma, g: dev.DeviceGraph, t0: float, t1: float, cfg: PropagatorConfig,
                   plan: SweepPlan | None = None) -> np.ndarray:
    """A Gaussian state's Majorana covariance ``gamma`` swept over [t0, t1] under g: O gamma O^T
    for the 2M x 2M rotation O of the steps of ``plan`` = :func:`sweep_plan` (g, t0, t1, cfg),
    which drifts from Gamma Gamma^T = I by rounding, taken back to a pure covariance by one
    Newton-Schulz step Gamma (3I - Gamma^T Gamma) / 2.  ``richardson_check`` bounds
    ||dGamma||_F / 4 on the halved grid, to first order the change of the phase-aligned state."""
    plan = plan or sweep_plan(g, t0, t1, cfg)

    def run(F, hs):  # the plan's rotation O, or the halved grid's for richardson_check
        O = plan.O if F is plan.F else _sweep(np.eye(len(gamma)), *plan.compiled, F, hs, _rotations)
        G = O @ gamma @ O.T
        return G @ (3 * np.eye(len(G)) - G.T @ G) / 2
    return _graded(plan, cfg, run, lambda a, b: float(np.linalg.norm(a - b)) / 4)


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
    """Adiabaticity record of one ramp.  ``gaps`` (least ``min_gap``) are 2 sigma_min(K), the
    parity-changing crossing, which a ramp from |+>^n never meets; ``sector_gaps`` (least
    ``min_sector_gap``) are 2 (sigma_min + sigma_next), the gap in its sector (inf for one
    site): sqrt(U^2 + 16 w^2) on the pair's ramp, the one its tangent profile follows.  The
    pair's also records ``protocol.pair_ramp_phase``; other ramps leave those two None."""

    min_gap: float
    gap_times: np.ndarray
    gaps: np.ndarray
    initial_ground_overlap_sq: float
    final_ground_overlap_sq: float
    sector_gaps: np.ndarray
    min_sector_gap: float
    ramp_cycles: float | None = None
    predicted_residue: float | None = None


def adiabatic_ramp(gamma, g: dev.DeviceGraph, t0: float, t1: float,
                   cfg: PropagatorConfig | None = None):
    """(Gamma, RampDiagnostics): the Majorana covariance ``gamma`` of a Gaussian state swept
    by :func:`sweep_majorana`, and spectral-gap and ground-overlap diagnostics from K(t) of
    its :func:`sweep_plan`'s chain, which raises DeviceError for a g it does not compile.

    One batched SVD K = U S V^T at 64 times gives the gaps 2 sigma_min and
    2 (sigma_min + sigma_next) and, at t0 and t1, the ground state's covariance
    [[0, -U V^T], [V U^T, 0]], whose squared overlap with a state of covariance Gamma is
    :func:`.hilbert.gaussian_overlap_sq`.  That record is memoised (read-only) on (g, t0, t1);
    the overlaps are taken on every call.  Warns when the initial state is not close to the
    instantaneous ground state at t0 (the ramp then has no adiabatic guarantee).
    """
    cfg = cfg or PropagatorConfig()
    K0, terms = (plan := sweep_plan(g, t0, t1, cfg)).compiled

    def spectrum():  # the times, gaps, sector gaps and ground covariances at t0 and t1
        ts = np.linspace(t0, t1, 64)
        U, s, Vt = np.linalg.svd(np.concatenate(list(_hamiltonians(K0, terms, _values(terms, ts)))))
        gaps = 2 * s[:, -1]
        sector = gaps + 2 * s[:, -2] if s.shape[1] > 1 else np.full(len(ts), np.inf)
        Z = np.zeros_like(U[0])
        return ts, gaps, sector, *(np.block([[Z, -W], [W.T, Z]]) for W in (U[0] @ Vt[0],
                                                                           U[-1] @ Vt[-1]))
    ts, gaps, sector, ground0, ground1 = memoised(_SPECTRA, (g, t0, t1), spectrum)
    init_overlap = gaussian_overlap_sq(ground0, gamma)
    if init_overlap < 0.99:
        warnings.warn(
            f"initial ground-state overlap^2 is {init_overlap:.4f}; "
            "adiabatic following is not guaranteed",
            stacklevel=2,
        )
    final = sweep_majorana(gamma, g, t0, t1, cfg, plan)
    diag = RampDiagnostics(float(np.min(gaps)), ts, gaps, init_overlap,
                           gaussian_overlap_sq(ground1, final), sector, float(np.min(sector)))
    return final, diag
