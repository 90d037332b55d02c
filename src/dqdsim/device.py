"""Dot-level device description compiled to logical Hamiltonians.

A device is a set of double-dot qubits (DQDs) with tunneling terms and
inter-dot Coulomb links, each driven by a scalar time schedule.  Units:
hbar = 1, energies in a reference tunneling amplitude w, times in 1/w.

Dot numbering follows the hardware layout: DQD k owns dots (2k+1, 2k+2),
and logical |1>_k means the excess electron sits in the odd dot.  A Coulomb
link between dots of two different DQDs therefore compiles to a product of
logical projectors: odd dots map to P1, even dots to P0.

The tunneling term of a DQD with amplitude w and phase p compiles to
``-w * (exp(-ip)|1><0| + exp(+ip)|0><1|)`` on that qubit, so evolving
logical |0> under it yields ``cos(wt)|0> + i sin(wt) exp(-ip)|1>``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DeviceError

SCHEDULE_KINDS = ("constant", "linear_ramp", "smooth_ramp", "tangent_ramp")

HERMITICITY_TOL = 1e-14


@dataclass(frozen=True)
class Schedule:
    """Scalar function of time.

    Every kind holds v_start for t <= t_start and v_end for t >= t_end and is
    continuous; values and times must be finite.  ``smooth_ramp`` uses the
    cubic smoothstep 3x^2 - 2x^3, which has zero slope at both endpoints.
    ``tangent_ramp`` is a gap-adapted profile for sweeping a two-level avoided crossing
    [[0, -J], [-J, v]]: it follows dv/dt proportional to gap^3 so that the
    sweep spends its time where the instantaneous gap (min 2J at v=0) is
    smallest; ``gap_scale`` holds J.
    """

    kind: str
    v_start: float
    v_end: float
    t_start: float = 0.0
    t_end: float = 0.0
    gap_scale: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise DeviceError(f"unknown schedule kind {self.kind!r}")
        if not np.all(np.isfinite((self.v_start, self.v_end, self.t_start, self.t_end))):
            raise DeviceError("schedule values and times must be finite")
        if self.t_start > self.t_end:
            raise DeviceError("schedule has t_start > t_end")
        if self.kind == "tangent_ramp" and not (
                self.gap_scale is not None and 0 < self.gap_scale < np.inf):  # NaN fails too
            raise DeviceError("tangent_ramp requires a positive, finite gap_scale")

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls("constant", value, value)

    @classmethod
    def linear(cls, v_start, v_end, t_start, t_end) -> "Schedule":
        return cls("linear_ramp", v_start, v_end, t_start, t_end)

    @classmethod
    def smooth(cls, v_start, v_end, t_start, t_end) -> "Schedule":
        return cls("smooth_ramp", v_start, v_end, t_start, t_end)

    @classmethod
    def tangent(cls, v_start, v_end, t_start, t_end, gap_scale) -> "Schedule":
        return cls("tangent_ramp", v_start, v_end, t_start, t_end, gap_scale)

    def value(self, t):
        """Evaluate at a scalar or array time."""
        return schedule_value(self, t)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or self.v_start == self.v_end

    def max_abs(self) -> float:
        return max(abs(self.v_start), abs(self.v_end))


def schedule_value(s: Schedule, t):
    """Value(s) of a schedule at time(s) t (vectorized)."""
    t = np.asarray(t, dtype=float)
    if s.kind == "constant":
        out = np.full_like(t, s.v_start)
        return out if out.ndim else float(out)
    span = s.t_end - s.t_start
    x = np.clip((t - s.t_start) / span, 0.0, 1.0) if span > 0 else np.where(t < s.t_start, 0.0, 1.0)
    if s.kind == "linear_ramp":
        y = x
    elif s.kind == "smooth_ramp":
        y = 3 * x**2 - 2 * x**3
    else:  # tangent_ramp
        delta = s.v_end - s.v_start
        j = s.gap_scale
        if delta == 0:
            y = np.zeros_like(x)
        else:
            hyp = np.hypot(delta, 2 * j)
            kappa = abs(delta) / hyp
            # 1 - (kappa x)^2 = (2j/hyp)^2 + kappa^2 (1-x)(1+x), cancellation-free
            denom = np.sqrt((2 * j / hyp) ** 2 + kappa**2 * (1.0 - x) * (1.0 + x))
            y = 2 * j * kappa * x / denom / abs(delta)
    out = s.v_start + (s.v_end - s.v_start) * y
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TunnelTerm:
    """Intra-DQD tunneling with a static phase (vector-potential induced)."""

    dqd: int
    amplitude: Schedule
    phase: float = 0.0


@dataclass(frozen=True)
class CoulombLink:
    """Coulomb repulsion between two dots of different DQDs."""

    dot_i: int
    dot_j: int
    strength: Schedule


@dataclass(frozen=True)
class DeviceGraph:
    dqds: tuple
    tunnel_terms: tuple = ()
    coulomb_links: tuple = ()

    def __init__(self, dqds, tunnel_terms=(), coulomb_links=()):
        object.__setattr__(self, "dqds", tuple(dqds))
        object.__setattr__(self, "tunnel_terms", tuple(tunnel_terms))
        object.__setattr__(self, "coulomb_links", tuple(coulomb_links))

    @property
    def n_qubits(self) -> int:
        return len(self.dqds)


def dot_qubit(dot: int) -> int:
    """DQD index owning a (1-based) dot label."""
    if dot < 1:
        raise DeviceError(f"dot labels are 1-based, got {dot}")
    return (dot - 1) // 2


def validate(g: DeviceGraph) -> list:
    """Check structural invariants; an empty list means the graph is valid."""
    errors = []
    qubits = set(g.dqds)
    if sorted(qubits) != list(range(len(g.dqds))):
        errors.append(f"dqds must be 0..N-1 without gaps, got {g.dqds}")
    seen_tunnel = set()
    for term in g.tunnel_terms:
        if term.dqd not in qubits:
            errors.append(f"tunneling on nonexistent DQD {term.dqd}")
        if term.dqd in seen_tunnel:
            errors.append(f"multiple tunneling terms on DQD {term.dqd}")
        seen_tunnel.add(term.dqd)
        if min(term.amplitude.v_start, term.amplitude.v_end) < 0:
            errors.append(f"negative tunneling amplitude on DQD {term.dqd}")
        if not (np.isfinite(term.phase) and np.imag(term.phase) == 0):
            errors.append(f"tunneling phase {term.phase!r} on DQD {term.dqd} is not real and "
                          "finite, so the Hamiltonian is not Hermitian")
    n_dots = 2 * len(g.dqds)
    for link in g.coulomb_links:
        for dot in (link.dot_i, link.dot_j):
            if dot < 1 or dot > n_dots:
                errors.append(f"link references nonexistent dot {dot}")
        if link.dot_i >= 1 and link.dot_j >= 1 and max(link.dot_i, link.dot_j) <= n_dots:
            if dot_qubit(link.dot_i) == dot_qubit(link.dot_j):
                errors.append(f"link ({link.dot_i},{link.dot_j}) joins dots of one DQD")
        if min(link.strength.v_start, link.strength.v_end) < 0:
            errors.append(f"negative Coulomb strength on link ({link.dot_i},{link.dot_j})")
    return errors


def dqd_pair_links(qubit_a: int, qubit_b: int, strength: Schedule) -> tuple:
    """The crossed link pair penalizing disagreeing logical values.

    Links the odd dot of each DQD to the even dot of the other, which
    compiles to strength * (P1 P0 + P0 P1) on the qubit pair: the diagonal
    is {0, U, U, 0} over logical (a,b) in {00, 01, 10, 11}.
    """
    return (
        CoulombLink(2 * qubit_a + 1, 2 * qubit_b + 2, strength),
        CoulombLink(2 * qubit_a + 2, 2 * qubit_b + 1, strength),
    )


def _tunnel_matrix(phase: float) -> np.ndarray:
    return -np.array([[0.0, np.exp(1j * phase)],
                      [np.exp(-1j * phase), 0.0]], dtype=complex)


def _embed_single(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    mask = 1 << qubit
    idx = np.arange(dim)
    low = idx[(idx & mask) == 0]
    high = low | mask
    out[low, low] += op[0, 0]
    out[low, high] += op[0, 1]
    out[high, low] += op[1, 0]
    out[high, high] += op[1, 1]
    return out


def link_diagonal(link: CoulombLink, n: int) -> np.ndarray:
    """Unit-strength diagonal of one Coulomb link over an n-qubit register.

    The link's energy counts when both of its dots are occupied: an odd
    dot's occupation maps to P1 on its qubit, an even dot's to P0.
    """
    qa, qb = dot_qubit(link.dot_i), dot_qubit(link.dot_j)
    if qa == qb:
        raise DeviceError(f"link ({link.dot_i},{link.dot_j}) joins dots of one DQD")
    want_a, want_b = link.dot_i % 2, link.dot_j % 2  # odd dots map to P1
    idx = np.arange(2**n)
    return ((((idx >> qa) & 1) == want_a) & (((idx >> qb) & 1) == want_b)).astype(float)


def hamiltonian_terms(g: DeviceGraph):
    """Split H(t) = H0 + sum_j f_j(t) B_j with constant schedules folded into H0.

    Returns ``(H0, [(schedule, B_j), ...])``; used by the propagators to
    assemble many time samples at once.
    """
    if errs := validate(g):
        raise DeviceError("; ".join(errs))
    n = g.n_qubits
    tunnels = ((term.amplitude, _embed_single(_tunnel_matrix(term.phase), term.dqd, n))
               for term in g.tunnel_terms)
    links = ((link.strength, np.diag(link_diagonal(link, n)).astype(complex))
             for link in g.coulomb_links)
    return _split(np.zeros((2**n, 2**n), dtype=complex), tunnels, links)


def _split(H0, *parts):
    """(H0 plus the constant parts, [the driven ones]) of iterables of (schedule, B), lazily."""
    terms = []
    for sched, B in (part for group in parts for part in group):
        if sched.is_constant:
            H0 += sched.v_start * B
        else:
            terms.append((sched, B))
    return H0, terms


def majorana_terms(g: DeviceGraph):
    """The device as a free-fermion chain H(t) = i sum_jk a_j K(t)_jk b_k + const,
    K lower-bidiagonal, over the Jordan-Wigner Majoranas a_k = X_0..X_{k-1} Z_k,
    b_k = X_0..X_{k-1} Y_k: a tunneling term -w X_k is -w i a_k b_k, a crossed
    link pair U (1 - Z_k Z_{k+1}) / 2 is (U/2) i a_{k+1} b_k, each link carrying
    half.  Returns ``(K0, [(schedule, K_j), ...])`` split like
    :func:`hamiltonian_terms`; None unless every tunneling phase is 0 and every
    link has its crossed partner on the same schedule between DQDs k and k+1.
    An invalid graph, a phase that is not real and finite included, raises DeviceError.
    """
    if errs := validate(g):
        raise DeviceError("; ".join(errs))
    if any(term.phase != 0 for term in g.tunnel_terms):
        return None
    unit = np.eye(g.n_qubits)
    parts = [(term.amplitude, -np.outer(unit[term.dqd], unit[term.dqd])) for term in g.tunnel_terms]
    unpaired = Counter()  # a link's single-Z terms cancel against its crossed partner's
    for link in g.coulomb_links:
        (qa, odd_a), (qb, odd_b) = sorted((dot_qubit(d), d % 2)
                                          for d in (link.dot_i, link.dot_j))
        if qb != qa + 1 or odd_a == odd_b:
            return None
        unpaired[qa, link.strength] += 1 if odd_a else -1
        parts.append((link.strength, 0.25 * np.outer(unit[qb], unit[qa])))
    return None if any(unpaired.values()) else _split(np.zeros_like(unit), parts)


def hamiltonian_at(g: DeviceGraph, t: float) -> np.ndarray:
    """Full 2^N x 2^N Hamiltonian of the device at time t (Hermitian)."""
    H0, terms = hamiltonian_terms(g)
    H = H0.copy()
    for sched, B in terms:
        H += schedule_value(sched, t) * B
    return check_hermitian(H)


def check_hermitian(H: np.ndarray) -> np.ndarray:
    """H, or a stack of them, after checking it is Hermitian (DeviceError otherwise)."""
    if not np.max(np.abs(H - np.swapaxes(H, -1, -2).conj())) < HERMITICITY_TOL:  # NaN fails too
        raise DeviceError("device Hamiltonian is not Hermitian (a tunneling phase must be real)")
    return H


def energy_scale(g: DeviceGraph) -> float:
    """Coarse upper bound on ||H(t)||, used to pick integration steps."""
    scale = 0.0
    for term in g.tunnel_terms:
        scale += term.amplitude.max_abs()
    for link in g.coulomb_links:
        scale += link.strength.max_abs() / 2.0  # two links share one qubit pair
    return max(scale, 1e-12)
