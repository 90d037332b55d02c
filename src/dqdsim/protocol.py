"""The teleportation pipeline over double-dot charge qubits.

Stages (qubit 0 is the encoder, qubit 1 Alice's support, the last qubit is
Bob; any qubits in between belong to a longer support chain):

1. encode   -- free tunneling evolution of |0>, cut off at time t_bar;
2. entangle -- slow growth of every inter-pair Coulomb repulsion takes the
   support register from its separable ground state |+>^n to its plateau
   ground state, near (|0...0> + |1...1>)/sqrt(2), on :func:`ramp_support`'s profile;
3. couple   -- slow growth of the encoder-support repulsion maps
   (a|0> + b|1>) x (|00>+|11>)/sqrt(2) onto a|000> + b|111>;
4. bell     -- encoder and support-1 tunneling on, everything else frozen:
   the aligned two-qubit block rotates at the second-order rate 2w^2/U;
5. measure  -- after a quarter rotation Alice measures the encoder charge
   and Bob fixes his qubit with diag(1, -i) (outcome 0) or diag(1, +i).

:class:`Channel` is the one engine for every support length, and
:func:`build_channel` the one builder: it prepares stages 2 to 4 once per
channel at ``ProtocolParams.n_support``, and the channel runs encode and
measure per input.  :func:`teleport_end_to_end` builds a channel per input.

Every stage exists in ``full`` mode (numerical propagation of the device Hamiltonian) and
``effective`` mode (the closed-form two-level algebra the full dynamics approaches when
w << U).  In full mode every ramp device, the support ramps and the coupler, is an open
transverse-field Ising chain, so those stages sweep a Majorana covariance, |+>^n's in
closed form or that of |+> x S (:func:`.evolve.adiabatic_ramp`, :func:`.evolve.sweep_majorana`):
a support is handed on as its covariance in both modes, and a channel builds one state,
the coupled one.  The rotation stage is one exponential of a two-qubit device, a 4 x 4 gate.

Phase conventions: a device tunneling phase p produces the evolution
amplitude exp(-ip) on logical |1> (see :mod:`.device`), while the encoder is
specified by the phase family cos(wt)|0> + i exp(2i phi) sin(wt)|1>.  The
encoder device therefore carries tunneling phase -2*phi; eigenvector checks
against the single-DQD Hamiltonian use the device phase directly.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import device as dev
from . import evolve
from .errors import ConfigError, ConvergenceError, DeviceError, DimensionError
from .hilbert import (NORM_TOL, StateVector, _own_state, fidelity,  # noqa: F401
                      gaussian_overlap_sq, gaussian_state)

# Adiabaticity budget of the gap-adapted coupling ramp: the sweep rate is
# eps * gap^3 / J, so the default duration is 1/(4 J eps) = 4/J.
EPS_ADIABATIC = 1.0 / 16.0

# Whole cycles of phase in the pair's auto support ramp, where its loss vanishes to first order.
RAMP_CYCLES = 8

# Auto-derived ramps beyond this duration (in 1/w) are refused; they occur
# when the support crossing gap is so small (long chains at large U) that a
# faithful sweep is out of simulation reach.
MAX_AUTO_RAMP = 5.0e4

# The register's qubit budget: the encoder plus at most MAX_QUBITS - 1 support qubits.
MAX_QUBITS = 12

# Bob's local corrections, keyed by Alice's measured bit.
CORRECTIONS = {
    0: np.diag([1.0, -1.0j]).astype(complex),
    1: np.diag([1.0, 1.0j]).astype(complex),
}


def faithful_ramp(support_gap: float) -> float:
    """Gap-adapted coupling-ramp duration 1/(4 J eps) for a crossing gap 2J (inf at 2J = 0)."""
    return 1.0 / (4.0 * (support_gap / 2.0) * EPS_ADIABATIC) if support_gap > 0 else np.inf


@dataclass(frozen=True)
class InputQubit:
    """Normalized single-qubit amplitudes (alpha, beta)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # NaN and inf fail too
            raise DimensionError(f"|alpha|^2 + |beta|^2 = {norm} != 1")

    def state(self) -> StateVector:
        return StateVector(np.array([self.alpha, self.beta], dtype=complex))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "InputQubit":
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        return cls(v[0], v[1])


@dataclass
class ProtocolParams:
    """All protocol knobs.

    ``n_support``, an integer in [2, MAX_QUBITS - 1], is the length of the support
    register: 2 is the pair, and Bob's qubit is its far end.  Durations left as None
    are derived from the spectral structure: the support's entangling ramp ``T_ent``, ~8/w
    for the pair and ``3 U_max / w^2`` for longer supports (:meth:`resolved_T_ent`), and
    ``T_couple = 4/J`` where 2J is the avoided-crossing gap of the support register at the
    start of the coupling ramp (J = 2 w^2/U_max for the pair).  At the reference point
    U_max = Uprime_max = 100 w the pair's are 8.20/w and 200/w.

    ``Uprime_max`` (the encoder-support plateau) tracks U_max unless set,
    so a sweep of U_max moves the whole repulsion family.  ``bell_U`` is
    the repulsion that stays on between encoder and support during the
    timed rotation stage and sets its rate 2 w^2 / bell_U; it defaults to
    Uprime_max.
    """

    w: float = 1.0
    phi: float = 0.0
    U_max: float = 100.0
    Uprime_max: float | None = None
    T_ent: float | None = None
    T_couple: float | None = None
    bell_U: float | None = None
    wait_angle: float = np.pi / 4
    mode: str = "full"
    seed: int = 7
    n_support: int = 2
    integrator: evolve.PropagatorConfig = field(default_factory=evolve.PropagatorConfig)

    def __post_init__(self):
        """DimensionError naming every bad field; None leaves a field to be derived."""
        bad = []
        for f in fields(self):  # the real settings, by annotation
            v = getattr(self, f.name)
            if not f.type.startswith("float") or (v is None and f.default is None):
                continue  # None leaves an optional one to be derived
            try:
                finite = math.isfinite(v)
            except (OverflowError, TypeError):  # an int past a float's range, or no number
                finite = False
            nonneg = f.name in ("U_max", "Uprime_max")
            if not finite:
                bad.append(f"{f.name} must be finite, got {v!s:.40}")
            elif f.name not in ("phi", "wait_angle") and not (v >= 0 if nonneg else v > 0):
                bad.append(f"{f.name} must be {'nonnegative' if nonneg else 'positive'}, got {v}")
        if self.mode not in ("full", "effective"):
            bad.append(f"mode must be 'full' or 'effective', got {self.mode!r}")
        for name, lo, hi, rule in (("seed", 0, math.inf, "a nonnegative integer"), (
                "n_support", 2, MAX_QUBITS - 1, f"an integer in [2, {MAX_QUBITS - 1}]")):
            v = getattr(self, name)  # with the encoder, n_support + 1 qubits
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v <= hi:
                bad.append(f"{name} must be {rule}, got {v!r}")
        if bad:
            raise DimensionError("; ".join(bad))
        if self.U_max > 0 and self.w / self.U_max > 0.1:
            warnings.warn(
                f"w/U_max = {self.w / self.U_max:.3f} > 0.1: the two-level "
                "reduction degrades in this regime",
                stacklevel=3,  # past the generated __init__, to the caller
            )

    def resolved_Uprime(self) -> float:
        return self.U_max if self.Uprime_max is None else self.Uprime_max

    def resolved_bell_U(self) -> float:
        return self.resolved_Uprime() if self.bell_U is None else self.bell_U

    def resolved_T_ent(self) -> float:
        """T_ent, or the default; ConfigError when that is not finite or w^2 underflows.  The
        pair's ramp phase is k = RAMP_CYCLES whole cycles (:func:`pair_ramp_phase`) at T =
        2 pi k kappa / (4 w arcsin kappa) (2 pi k / 4w at U_max = 0), ~8/w at every U_max;
        three or more sites, whose many-level chain crosses the Ising critical point at U = 2w,
        take max(3 U_max / w^2, 10 / w)."""
        if self.T_ent is not None:
            return self.T_ent
        w2 = self.w**2  # underflowed, it leaves no (w/U)^2 scale and no rotation rate
        t = max(3.0 * self.U_max / w2, 10.0 / self.w) if w2 else np.inf
        if self.n_support == 2 and w2:
            t = RAMP_CYCLES / pair_ramp_phase(self.U_max, self.w, 1.0)["ramp_cycles"]
        if not t < np.inf:
            raise ConfigError(f"the default support ramp is not finite at w = {self.w:.3g}; "
                              "raise w or set the ramp duration")
        return t

    def resolved_wait(self) -> float:
        """The rotation stage's wait, wait_angle over the rate 2 w^2 / bell_U; ConfigError
        unless bell_U, the rate and the wait are positive and finite."""
        bell_U = self.resolved_bell_U()
        if not bell_U > 0:
            raise ConfigError(f"the rotation stage needs a positive bell_U, got {bell_U:g}")
        rate = effective_rabi(self.w, bell_U)
        wait = self.wait_angle / rate if 0 < rate < np.inf else np.nan
        if not 0 < wait < np.inf:
            raise ConfigError(f"the rotation stage's rate 2w^2/bell_U = {rate:.3g} and its wait "
                              f"{wait:.3g} must be positive and finite")
        return wait

    def in_reach(self, t: float, given: float | None, ramp: str, device) -> float:
        """The duration t of ``ramp``, by the one reach rule of every ramp a channel steps.
        ConfigError when t is auto-derived (``given`` is None) and longer than MAX_AUTO_RAMP / w,
        or, auto or given, when its coarse grid of ceil(t / 2 dt) intervals passes
        ``evolve.MAX_INTERVALS``, dt that of the ramp's device ``device()``: ``step_grid``'s
        first check, skipped as there when no schedule moves (one exponential steps it)."""
        if given is None and not t * self.w <= MAX_AUTO_RAMP:  # inf and NaN fail too
            raise ConfigError(f"the auto-derived {ramp} needs {t:.3g}/w, more than "
                              f"{MAX_AUTO_RAMP:g}/w; lower U_max or set it explicitly")
        g = device()
        if any(not s.is_constant for s, _ in dev.norm_weights(g)):
            try:
                evolve.check_reach(np.ceil(t / (2 * self.integrator.resolve_dt(g))), 0.0, t)
            except ConfigError as exc:
                raise ConfigError(f"the {ramp}: {exc}") from None
        return t

    def support_ramp(self) -> float:
        """T_ent as the support ramp steps it, refused by :meth:`in_reach` on the ramp's device."""
        t = self.resolved_T_ent()
        return self.in_reach(t, self.T_ent, "entangling ramp T_ent",
                             lambda: ramp_graph(self, self.n_support, t))

    def resolved_T_couple(self, support_gap: float) -> float:
        """T_couple, or the default :func:`faithful_ramp` across the crossing gap."""
        return faithful_ramp(support_gap) if self.T_couple is None else self.T_couple


# --------------------------------------------------------------------------
# stage devices


def support_graph(params: ProtocolParams, n_support: int, link: dev.Schedule,
                  first: int = 0) -> dev.DeviceGraph:
    """Support register on DQDs first .. first + n_support - 1.

    Each register DQD tunnels at w and each nearest-neighbour pair carries
    the crossed link pair on schedule ``link``; DQDs below ``first`` are
    laid out without any term.
    """
    qubits = range(first, first + n_support)
    links = []
    for k in qubits[:-1]:
        links += dev.dqd_pair_links(k, k + 1, link)
    tunnels = [dev.TunnelTerm(k, dev.Schedule.constant(params.w)) for k in qubits]
    return dev.DeviceGraph(range(first + n_support), tunnels, links)


def support_crossing_gap(params: ProtocolParams, n_support: int) -> float:
    """Splitting of the two lowest support levels at the coupling start.

    This is the avoided-crossing gap the coupling ramp has to negotiate:
    2J = 4w^2/U_max for a single pair, and it shrinks quickly (order
    w(w/U)^(n-1)) for longer chains.  The plateau register is an open
    transverse-field Ising chain (Pfeuty, Ann. Phys. 57, 1970), whose gap is
    twice the least singular value of the n x n upper-bidiagonal matrix with
    diagonal w and superdiagonal U_max/2, so no 2^n device is built.
    """
    B = np.diag(np.full(n_support, params.w)) + np.diag(np.full(n_support - 1, params.U_max / 2), 1)
    return float(2.0 * np.linalg.svd(B, compute_uv=False)[-1])


def coupler_graph(params: ProtocolParams, n_support: int,
                  t_couple: float, gap: float) -> dev.DeviceGraph:
    """Encoder (frozen) + support register, with the encoder-support link ramp.

    The encoder-support repulsion follows a gap-adapted tangent profile so
    the ramp is slow exactly where the support's aligned doublet rotates.
    """
    register = support_graph(params, n_support, dev.Schedule.constant(params.U_max), first=1)
    ramp = dev.Schedule.tangent(0.0, params.resolved_Uprime(), 0.0, t_couple, gap_scale=gap / 2.0)
    return dev.DeviceGraph(register.dqds, register.tunnel_terms,
                           register.coulomb_links + dev.dqd_pair_links(0, 1, ramp))


def resolve_coupling(params: ProtocolParams, n_support: int):
    """(T_couple, crossing gap, rotation wait); T_couple and the gap are None in effective mode.

    The channel's preflight: channel builders call it before they prepare the support, so
    no ramp is stepped before a refusal, and pass its result to the :class:`Channel`.
    Raises ConfigError when the rotation stage's wait or the crossing gap (0 for long supports
    at huge U_max) is not positive and finite, or when the coupling ramp is out of
    :meth:`ProtocolParams.in_reach` on the ``n_support``-site coupler.
    The register's size is bounded by ``MAX_QUBITS`` alone: no stage holds a 2^n x 2^n array.
    """
    t_wait = params.resolved_wait()
    if params.mode == "effective":
        return None, None, t_wait
    if not 0 < (gap := support_crossing_gap(params, n_support)) < np.inf:  # NaN fails too
        raise ConfigError(f"the coupling ramp T_couple follows the support's crossing gap, which "
                          f"is {gap:.3g} at n_support = {n_support}: not positive and finite")
    t = params.resolved_T_couple(gap)
    params.in_reach(t, params.T_couple, f"coupling ramp T_couple across the crossing gap "
                    f"{gap:.3g}", lambda: coupler_graph(params, n_support, t, gap))
    return t, gap, t_wait


# --------------------------------------------------------------------------
# stage operations


class _first_read(functools.cached_property):
    """functools.cached_property less the lock Python 3.11 takes on each first read, ~0.8 us."""
    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


@dataclass(frozen=True)
class EncodeResult:
    t_bar: float
    achieved: InputQubit

    @_first_read
    def state(self) -> StateVector:  # the achieved amplitudes, built on first read
        return _own_state(np.array([self.achieved.alpha, self.achieved.beta]))


def encode_qubit(target: InputQubit, w: float, phi: float = 0.0) -> EncodeResult:
    """Free evolution of |0> cut off at t_bar = arccos(|alpha|)/w.

    Only the magnitude of the target is programmable; the relative phase of
    the achieved qubit is fixed to i*exp(2i phi).  The achieved amplitudes
    are returned and downstream fidelity checks score against them.  The state
    is the closed form of the encoder DQD's free evolution under tunneling w
    with device phase -2 phi.  DimensionError unless w is positive and finite.
    """
    if not 0 < w < np.inf:  # NaN fails too
        raise DimensionError(f"w must be positive and finite, got {w}")
    mag = abs(target.alpha)
    if mag > 1.0 + 1e-12:
        raise DimensionError(f"|alpha| = {mag} > 1")
    t_bar = float(np.arccos(min(mag, 1.0)) / w)
    a, b = complex(np.cos(w * t_bar)), complex(1j * np.exp(2j * phi) * np.sin(w * t_bar))
    return EncodeResult(t_bar, InputQubit(a, b))  # refused unless finite; then of norm 1


def cross_to_aligned_ratio(U: float, w: float) -> float:
    """Ground-state amplitude ratio (cross configurations over aligned ones).

    Equals (sqrt(U^2 + 16 w^2) - U)/(4 w), evaluated in the equivalent
    cancellation-free form 4w/(sqrt(U^2 + 16 w^2) + U), which is so only for a repulsion:
    DimensionError unless U >= 0 and w > 0 are finite.
    """
    if not (0 <= U < np.inf and 0 < w < np.inf):  # NaN fails too
        raise DimensionError(f"the ratio needs finite U >= 0 and w > 0, got U = {U}, w = {w}")
    return 4.0 * w / (np.hypot(U, 4.0 * w) + U)


def entangled_pair_reference(U: float, w: float) -> StateVector:
    """Exact two-qubit ground state at repulsion plateau U.

    Aligned amplitudes 1 and cross amplitudes r = (sqrt(U^2+16w^2)-U)/(4w),
    normalized; the cross sign is positive, matching direct diagonalization.
    """
    r = cross_to_aligned_ratio(U, w)
    return _own_state(np.array([1.0, r, r, 1.0], dtype=complex) / math.hypot(1.0, r, r, 1.0))


def bell_target(n_qubits: int = 2) -> StateVector:
    return ghz_encoded(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), n_qubits)


@functools.cache
def ghz_covariance(n: int) -> np.ndarray:
    """The read-only Majorana covariance of :func:`bell_target` (n): i<b_k a_(k+1)> =
    <Z_k Z_(k+1)> = 1 and i<a_0 b_(n-1)> = <X_0 ... X_(n-1)> = 1."""
    gamma = np.zeros((2 * n, 2 * n))
    gamma[range(n, 2 * n - 1), range(1, n)] = gamma[0, -1] = 1.0
    gamma -= gamma.T
    gamma.setflags(write=False)
    return gamma


def _support_qubits(gamma) -> int:
    """n of a 2n x 2n support covariance; DimensionError for any other shape or n < 2."""
    shape = np.shape(gamma)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 or shape[0] < 4:
        raise DimensionError(f"a support covariance is 2n x 2n with n >= 2, got shape {shape}")
    return shape[0] // 2


def pair_ramp_phase(U: float, w: float, T: float) -> dict:
    """The pair's ramp 0 -> U over T, a two-level sweep, kappa = U / sqrt(U^2 + 16 w^2): its
    ``ramp_cycles`` Phi / 2 pi, Phi = T 4w arcsin(kappa) / kappa (T 4w at U = 0), and its end loss
    to first order at adiabaticity eps = kappa / (8 w T), ``predicted_residue`` 4 eps^2
    sin^2(Phi/2) = (arcsin(kappa) sinc(Phi / 2 pi) / 2)^2 (Vitanov & Garraway, PRA 53, 4288),
    the sine taken of the phase less its nearest whole cycle, so a whole cycle gives 0."""
    arc = math.asin(kappa := U / math.hypot(U, 4.0 * w))
    cycles = T * 2.0 * w * (arc / kappa if kappa else 1.0) / math.pi
    sinc = math.sin(math.pi * (cycles - round(cycles))) / (math.pi * cycles) if cycles else 1.0
    return dict(ramp_cycles=cycles, predicted_residue=(sinc * arc / 2) ** 2)


def ramp_support(params: ProtocolParams, n_support: int, T: float):
    """Adiabatic preparation of a support register; returns (Gamma_S, RampDiagnostics).

    The register starts in its uncoupled ground state |+>^n, of covariance [[0, I], [-I, 0]]
    in closed form (i<a_k b_k> = <X_k> = 1), and steps on :func:`ramp_graph`'s device; the
    pair's diagnostics add :func:`pair_ramp_phase`.
    The ramp is an open transverse-field Ising chain, so :func:`evolve.adiabatic_ramp` sweeps that
    covariance and returns the register's, Gamma_S, whose amplitudes ``gaussian_state`` builds.
    """
    U, g = params.U_max, ramp_graph(params, n_support, T)
    plus = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n_support))
    gamma, diag = evolve.adiabatic_ramp(plus, g, 0.0, T, params.integrator)
    return gamma, diag if n_support > 2 else replace(diag, **pair_ramp_phase(U, params.w, T))


def ramp_graph(params: ProtocolParams, n_support: int, T: float) -> dev.DeviceGraph:
    """The support ramp's device: every link 0 -> U_max over T, the pair's on ``Schedule.tangent``
    of gap scale 2w, as its sector is the crossing [[0, -2w], [-2w, U]] (Roland & Cerf, PRA 65,
    042308 (2002)), longer supports' on a smoothstep."""
    U = params.U_max
    return support_graph(params, n_support, dev.Schedule.tangent(0.0, U, 0.0, T, gap_scale=2.0 *
                         params.w) if n_support == 2 else dev.Schedule.smooth(0.0, U, 0.0, T))


def plateau_covariance(U: float, w: float, n: int) -> np.ndarray:
    """The read-only Majorana covariance of the n-site support's plateau ground state in
    the sector X_0 ... X_(n-1) = +1, which the ramp from |+>^n keeps.

    The plateau is H = i a^T K b, K = -w I + (U/2) subdiag (:func:`device.majorana_terms`),
    whose ground covariance is [[0, -W], [W^T, 0]] with W = L R^T for K = L S R^T.  Its
    parity is <X_0 ... X_(n-1)> = (-1)^n det W; the least singular pair is flipped when that
    is -1.  At n = 2 it is :func:`entangled_pair_reference`'s covariance.
    """
    return _plateau(U, w, n)[0]


@functools.lru_cache(maxsize=64)  # with its GHZ overlap^2: an effective build takes neither
def _plateau(U: float, w: float, n: int):  # the SVD nor the overlap's determinant
    L, _, Rt = np.linalg.svd(np.diag(np.full(n - 1, U / 2), -1) - w * np.eye(n))
    if (-1) ** n * np.linalg.det(L) * np.linalg.det(Rt) < 0:
        L[:, -1] *= -1
    W, Z = L @ Rt, np.zeros((n, n))
    gamma = np.block([[Z, -W], [W.T, Z]])
    gamma.setflags(write=False)
    return gamma, gaussian_overlap_sq(gamma, ghz_covariance(n))


def make_entangled_pair(params: ProtocolParams):
    """The support register's preparation at ``params.n_support``; returns (Gamma_S, ramp
    diagnostics or None).  Full mode ramps it (:func:`ramp_support`); effective mode's is
    the plateau ground state's, :func:`plateau_covariance`.  A ramp out of
    :meth:`ProtocolParams.in_reach` raises ConfigError before it is stepped."""
    if params.mode == "effective":
        return plateau_covariance(params.U_max, params.w, params.n_support), None
    return ramp_support(params, params.n_support, params.support_ramp())


def ghz_encoded(alpha: complex, beta: complex, n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = alpha
    amps[-1] = beta
    return StateVector(amps)


# The encoder in |+>: coupling it once yields the images of |0> and |1>.
_PLUS = StateVector(np.full(2, np.sqrt(0.5), dtype=complex))


def couple_unknown(unknown: StateVector, support: np.ndarray,
                   params: ProtocolParams, coupling=None) -> StateVector:
    """Attach the encoder qubit to the support register S of covariance ``support``.

    Full mode ramps the encoder-support repulsion with the gap-adapted
    profile.  The encoder does not tunnel, so U(u x S) = u_0 U(|0> x S) +
    u_1 U(|1> x S), read off U(|+> x S): the coupler is an open transverse-field
    Ising chain, and :func:`evolve.sweep_majorana` sweeps the covariance of |+> x S
    (that of |+> on a_0, b_0, S's on the rest), whose amplitudes are then built once, up
    to a global phase.  Effective mode returns alpha|0...0> + beta|1...1> exactly,
    normalized as ``unknown`` is.  ``coupling``: as in :class:`Channel`.  Raises
    DimensionError unless ``support`` is 2n x 2n, n >= 2, and in full mode DeviceError,
    before any sweep, when S's covariance is not real, finite, antisymmetric and pure
    (||G + G^T||_F, ||G G^T - I||_F <= 1e-12), the encoder tunnels or the coupler is no
    Ising chain.
    """
    if unknown.n_qubits != 1:
        raise DimensionError("unknown state must be a single qubit")
    n = _support_qubits(support)
    if params.mode == "effective":
        amps = np.zeros(2 ** (1 + n), dtype=complex)
        amps[::amps.size - 1] = unknown.amps
        return _own_state(amps)
    skew = np.linalg.norm(support + support.T)
    mixed = np.linalg.norm(support @ support.T - np.eye(2 * n))
    if np.iscomplexobj(support) or not skew <= 1e-12 or not mixed <= 1e-12:  # NaN fails too
        raise DeviceError(f"the support is no real, pure Majorana covariance: ||G + G^T||_F = "
                          f"{skew:.1e} and ||G G^T - I||_F = {mixed:.1e} must be <= 1e-12")
    t_couple, gap, _ = coupling or resolve_coupling(params, n)
    g = coupler_graph(params, n, t_couple, gap)
    if any(term.dqd == 0 for term in g.tunnel_terms):
        raise DeviceError("the encoder tunnels during coupling, so its bit does not split")
    plan = evolve.sweep_plan(g, 0.0, t_couple, params.integrator)  # compiles g, or refuses it
    gamma = np.zeros((2 * n + 2, 2 * n + 2))
    gamma[0, n + 1], gamma[n + 1, 0] = 1.0, -1.0  # |+>: i<a_0 b_0> = <X_0> = 1
    rest = np.r_[1:n + 1, n + 2:2 * n + 2]
    gamma[np.ix_(rest, rest)] = support  # S's Majoranas carry X_0, which |+> reads as 1
    coupled = gaussian_state(evolve.sweep_majorana(gamma, g, 0.0, t_couple, params.integrator,
                                                   plan))
    # the encoder bit is the parity of the basis index
    return _own_state(coupled * np.tile(unknown.amps / _PLUS.amps, coupled.size // 2))


def effective_rabi(w: float, U: float) -> float:
    """Second-order rotation rate 2 w^2 / U of the aligned doublet."""
    if w == 0:
        return 0.0
    if U <= 0:
        raise DimensionError("effective rate needs U > 0")
    return 2.0 * w**2 / U


def effective_gate(params: ProtocolParams, t: float) -> np.ndarray:
    """The effective rotation stage's 4 x 4 gate over a finite t: cos(wt) I + i sin(wt)
    (flip q0, q1) on the aligned block {|00>, |11>}, with the rate from :func:`effective_rabi`."""
    if not np.isfinite(t):
        raise DimensionError(f"rotation time {t} is not finite")
    om = effective_rabi(params.w, params.resolved_bell_U())
    c, s = np.cos(om * t), 1j * np.sin(om * t)
    return np.array([[c, 0, 0, s], [0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, c]])


def rotation_gate(params: ProtocolParams, t: float) -> np.ndarray:
    """The rotation stage's 4 x 4 gate over t on qubits 0 and 1: :func:`effective_gate`, or
    in full mode the exponential of the two-qubit :func:`support_graph` linked by bell_U."""
    if params.mode == "effective":
        return effective_gate(params, t)
    stage = support_graph(params, 2, dev.Schedule.constant(params.resolved_bell_U()))
    return evolve.sweep_block(np.eye(4, dtype=complex), stage, 0.0, t, params.integrator)


def bell_evolution(state: StateVector, params: ProtocolParams, t: float) -> StateVector:
    """Timed rotation of the (q0, q1) aligned block: :func:`rotation_gate`'s G applied as
    ``amps.reshape(-1, 4) @ G.T`` (index q0 + 2 q1 + 4 * the rest, which stay frozen)."""
    if state.n_qubits < 2:
        raise DimensionError("rotation stage needs at least qubits 0 and 1")
    G = rotation_gate(params, t)
    return _own_state((state.amps.reshape(-1, 4) @ G.T).ravel())


def _bob_state(z0: complex, z1: complex) -> StateVector:  # normalized, phased as fix_phase
    big = z0 if abs(z0) >= abs(z1) else z1
    scale = big.conjugate() / (abs(big) * math.hypot(abs(z0), abs(z1)))
    return _own_state(np.array([z0 * scale, z1 * scale]))


@dataclass(frozen=True)
class BranchResult:
    """One branch; Bob's states are built on first read from his code-pair readout ``_pair``."""
    outcome: int
    probability: float
    fidelity: float
    _pair: tuple = field(repr=False)

    @_first_read
    def bob_state_raw(self) -> StateVector:
        return _bob_state(*self._pair)

    @_first_read
    def bob_state_corrected(self) -> StateVector:  # D on the code pair scales |1...1>
        return _bob_state(self._pair[0], complex(CORRECTIONS[self.outcome][1, 1]) * self._pair[1])


@dataclass
class TeleportResult:
    outcome: int
    p0: float
    p1: float
    fidelity_to_input: float
    branches: tuple
    step_log: dict

    # the drawn branch's, branches[-outcome]: they come in outcome order, an empty one left out
    bob_state_raw = property(lambda self: self.branches[-self.outcome].bob_state_raw)
    bob_state_corrected = property(lambda self: self.branches[-self.outcome].bob_state_corrected)


@functools.lru_cache(maxsize=64)
def _seeded_uniform(seed) -> float:
    """The uniform draw that picks Alice's outcome; it depends on the seed only."""
    return np.random.default_rng(seed).random()


class _Readout:
    """Alice's readout of the register x = u @ post at any amplitudes u, from forms in u
    computed once, so ``read`` costs the same at every register size.

    ``post`` maps u to the register, index k + 2 s + 4 i (encoder bit k, support bit s,
    receiving register i < R); a channel adds its coupled images and their effective
    reference for the step log.  Branch k's slice a[i, s] = x[i, s, k] has p_k = tr G_k,
    G_k = a^+ a; the dominant eigenvector of a a^+ (rank <= 2, never formed) is a v for
    G_k's dominant v, in closed form (v = (1, 0) if the top pair is degenerate).  Bob's raw
    readout is c v normalized, c = a[[0, -1]]; his diagonal correction D scales it and the
    fidelity is |c^+ (D^+ t)|^2 / p_k.  c is linear in u, u @ L; G_k, the leakage (weight on
    0 < i < R - 1) and the step log's overlaps are forms u^+ F u.  Both are rows of one
    matrix W, so ``read`` takes one product, of W with (u, conj(u_a) u_b for all a, b).
    """

    def __init__(self, post, coupled=None, ideal=None, t_wait=None):
        self.t_wait = t_wait  # a channel's rotation wait, for its bell entry
        r, R = post.shape[0], post.shape[1] // 4
        mid = post.reshape(r, R, 4).copy()
        mid[:, ::R - 1] = 0.0  # the rows off the code pair
        bras = np.array([post, mid.reshape(r, -1)] + ([] if coupled is None else [coupled]))
        if not np.isfinite(bras).all():
            raise ConvergenceError("the register's amplitudes are not finite")
        kets = bras if ideal is None else np.array([ideal, *bras[1:]])
        Z = post.reshape(r, R, 2, 2).transpose(3, 2, 0, 1).reshape(2, 2 * r, R)  # k x [s, u] x i
        # G_k, then <a|b> over the register: (post, ideal), the leakage (mid, mid), then
        # (coupled, coupled) and the coupled ends' conjugates, <coupled u|u on the code pair>
        forms = [(Z.conj() @ Z.transpose(0, 2, 1)).reshape(2, 2, r, 2, r).transpose(0, 1, 3, 2, 4)
                 .reshape(8, r, r), bras.conj() @ kets.transpose(0, 2, 1)]
        if coupled is not None:
            forms.append(coupled[None, :, ::coupled.shape[1] - 1].conj())  # [:, [0, -1]]
        forms = np.concatenate(forms)
        self._W = np.zeros((8 + len(forms), r + 1, r), dtype=complex)
        self._W[:8, 0] = post.reshape(r, R, 2, 2)[:, ::R - 1].transpose(3, 1, 2, 0).reshape(8, r)
        self._W[8:, 1:] = forms  # row n: W[n, 0] . u + sum_ab W[n, 1 + a, b] conj(u_a) u_b
        self._W = self._W.reshape(len(self._W), -1)

    def read(self, u, params: ProtocolParams, achieved: InputQubit, log: dict) -> TeleportResult:
        """The readout at the amplitudes u (a sequence of complex); its step_log is ``log`` with
        ``couple`` and ``bell`` (a channel's) and ``measure`` appended."""
        y = (self._W @ np.array(list(u) + [a.conjugate() * b for a in u for b in u])).tolist()
        x, q = y[:8], y[8:]  # branch k's c[i][s] = x[4 k + 2 i + s]; the forms
        p0, p1 = probs = [(q[0] + q[3]).real, (q[4] + q[7]).real]  # G_k[s][t] = q[4k + 2s + t]
        if abs(p0 + p1 - 1.0) > NORM_TOL:
            raise DimensionError(f"the branches' total weight (trace) {p0 + p1} deviates from 1")
        branches = {}
        for k, prob, (c00, c01, c10, c11) in zip((0, 1), probs, (x[:4], x[4:8])):
            if prob < 1e-12:  # an empty branch can only occur for degenerate inputs
                continue
            g00, g01, g11 = q[4 * k], q[4 * k + 1], q[4 * k + 3]
            h = (g00 - g11).real / 2
            r = math.hypot(h, abs(g01))
            # cancellation-free; h + r is 0 only for G = p I / 2, then v = (1, 0)
            v0, v1 = (h + r or 1.0, g01.conjugate()) if h >= 0 else (g01, r - h)
            w0, w1 = c00 * v0 + c01 * v1, c10 * v0 + c11 * v1
            pair_norm = math.hypot(abs(w0), abs(w1)) / math.sqrt(  # |c v| / |a v|, where
                (prob / 2 + r) * (abs(v0) ** 2 + abs(v1) ** 2))  # |a v|^2 = lambda_max |v|^2
            if pair_norm < 1e-12:
                raise ConvergenceError(f"the register's normalized dominant state has amplitude "
                                       f"norm {pair_norm:.1e} < 1e-12 on the code pair; it has "
                                       "leaked out of the code-pair subspace")
            # D on the code pair: |0...0> has Bob's bit 0, |1...1> has it 1
            phase = complex(CORRECTIONS[k][1, 1])
            t0, t1 = complex(achieved.alpha), phase.conjugate() * complex(achieved.beta)
            fid = (abs(c00.conjugate() * t0 + c10.conjugate() * t1) ** 2
                   + abs(c01.conjugate() * t0 + c11.conjugate() * t1) ** 2) / prob
            branches[k] = BranchResult(k, prob, fid, (w0, w1))

        drawn = 0 if _seeded_uniform(params.seed) < p0 else 1
        picked = branches.get(drawn) or branches[1 - drawn]  # never the empty branch
        if len(q) > 10:  # the coupled reference alpha|0...0> + beta|1...1> is u on the code pair
            log["couple"] = {"target_overlap_sq": abs(q[11]) ** 2, "norm": math.sqrt(q[10].real)}
            log["bell"] = {"t_wait": self.t_wait, "effective_overlap_sq": abs(q[8]) ** 2,
                           "norm": math.sqrt(p0 + p1)}
        # the leakage form is positive semidefinite; rounding must not take it below 0
        log["measure"] = {"p0": p0, "p1": p1, "leakage": max(0.0, q[9].real)}
        return TeleportResult(picked.outcome, p0, p1, picked.fidelity, (*branches.values(),), log)


def alice_measure_and_correct(state: StateVector, params: ProtocolParams,
                              achieved: InputQubit) -> TeleportResult:
    """Measure the encoder charge, apply Bob's conditional phase, and score: the
    :class:`_Readout` of the one-row map of ``state``, with its refusals, as in :class:`Channel`
    (qubits 0 and 1 are Alice's, the target is ``achieved`` on the code pair)."""
    if state.n_qubits < 3:
        raise DimensionError("need encoder, support and at least one receiving qubit")
    return _Readout(state.amps[None]).read([1.0], params, achieved, {})


class Channel:
    """Teleportation engine over any prepared support register, pair or chain.

    Everything that does not depend on the input is done once.  The encoder
    is coupled to the support in the state |+> and the result is split on
    the encoder bit into the images U(|0> x S) and U(|1> x S).  The split is
    exact because the encoder does not tunnel while it is coupled, so U is
    block-diagonal in its bit; :func:`couple_unknown` checks that on the
    coupler graph.  S comes as its Majorana covariance, and the coupler is an open
    transverse-field Ising chain, so the coupling is a rotation of 2(n_support + 1)
    Majoranas; it fixes both images up to one common global phase, on which no output
    depends.  Full mode refuses a covariance that is not pure with DeviceError.  Both
    images then go through the rotation stage's 4 x 4 gate, and the readout's forms are
    built (:class:`_Readout`).  ``teleport`` encodes an input and evaluates them; it forms
    no register-sized array.  The entangle log's ``norm`` is ||Gamma_S||_F / sqrt(2n).
    """

    def __init__(self, support: np.ndarray, ramp, params: ProtocolParams, coupling=None):
        """``coupling``: :func:`resolve_coupling`'s result, if the builder resolved it first."""
        self.params = params
        n = _support_qubits(support)
        coupling = coupling or resolve_coupling(params, n)
        self.t_couple, gap, self.t_wait = coupling
        if gap is not None and self.t_couple < 0.5 * faithful_ramp(gap):
            warnings.warn(f"coupling ramp {self.t_couple:.3g}/w is shorter than the "
                          f"~{faithful_ramp(gap):.3g}/w the crossing gap {gap:.3g} requires; "
                          "the transfer will be unfaithful", stacklevel=2)
        coupled = couple_unknown(_PLUS, support, params, coupling).amps
        self._coupled = np.zeros((2, coupled.size), dtype=complex)
        for k in (0, 1):  # the encoder bit is the parity of the basis index
            self._coupled[k, k::2] = coupled[k::2] / _PLUS.amps[k]
        G = rotation_gate(params, self.t_wait)  # once, for both images
        self._post = (self._coupled.reshape(2, -1, 4) @ G.T).reshape(2, -1)
        E = G if params.mode == "effective" else effective_gate(params, self.t_wait)
        ideal = np.zeros((2, coupled.size), dtype=complex)  # E on |0...0> and |1...1>
        ideal[0, :4], ideal[1, -4:] = E[:, 0], E[:, 3]
        self._readout = _Readout(self._post, self._coupled, ideal, self.t_wait)
        log = {"norm": float(np.linalg.norm(support)) / math.sqrt(2 * n)}
        if ramp is not None:
            log.update(min_gap=ramp.min_gap, min_sector_gap=ramp.min_sector_gap,
                       ground_overlap_sq=ramp.final_ground_overlap_sq)
            if ramp.ramp_cycles is not None:  # the pair's ramp phase and its predicted loss
                log.update(ramp_cycles=ramp.ramp_cycles, predicted_residue=ramp.predicted_residue)
        key = params.U_max, params.w, n  # the effective support is the memoised plateau's
        plateau = params.mode == "effective" and support is plateau_covariance(*key)
        ghz = _plateau(*key)[1] if plateau else gaussian_overlap_sq(support, ghz_covariance(n))
        self._shared = {"entangle": MappingProxyType(log), "channel": MappingProxyType(
            {"ghz_overlap_sq": ghz, "T_couple": self.t_couple})}  # read-only, for every result

    def teleport(self, target: InputQubit) -> TeleportResult:
        """Encode, couple, rotate, measure and correct one input.

        The step log records each stage's norm and its overlap with the
        effective-mode reference; the entangle and channel entries are the
        channel's own, read-only views shared by every input.
        """
        enc = encode_qubit(target, self.params.w, self.params.phi)
        u = enc.achieved.alpha, enc.achieved.beta
        return self._readout.read(u, self.params, enc.achieved,
                                  {"encode": {"t_bar": enc.t_bar, "achieved": u}, **self._shared})

    def mean_fidelity(self) -> float:
        """The exact Haar mean of sum_k p_k F_k over inputs u fed to the coupler (not the
        encoder, whose qubits carry a fixed phase): it is quadratic in u u^+, so the six
        Pauli eigenstates, a 2-design, give it exactly."""
        s = math.sqrt(0.5)
        pauli = ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s), (s, 1j * s), (s, -1j * s))
        return sum(b.probability * b.fidelity for u in pauli
                   for b in self._readout.read(u, self.params, InputQubit(*u), {}).branches) / 6


def build_channel(params: ProtocolParams) -> Channel:
    """The channel over a support of ``params.n_support`` qubits: the coupling is resolved
    first, so an unrunnable rotation or an out-of-reach coupling is refused before the
    support is prepared (:func:`make_entangled_pair`)."""
    coupling = resolve_coupling(params, params.n_support)
    return Channel(*make_entangled_pair(params), params, coupling)


def teleport_end_to_end(target: InputQubit, params: ProtocolParams) -> TeleportResult:
    """Prepare the support, build its channel and teleport one input.

    To teleport many inputs over one support, build ``build_channel(params)`` once
    and call its ``teleport``.
    """
    return build_channel(params).teleport(target)
