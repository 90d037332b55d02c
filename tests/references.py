"""Reference constructions that only the tests use."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from dqdsim import evolve
from dqdsim.device import DeviceGraph, Schedule, TunnelTerm, energy_scale, hamiltonian_at
from dqdsim.errors import ConfigError, DimensionError
from dqdsim.hilbert import (StateVector, _majoranas, _own_state, fix_phase, gaussian_state,
                            tensor_product)
from dqdsim.protocol import cross_to_aligned_ratio, support_graph

# Single-qubit constants.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)  # projector on logical |0>
P1 = np.array([[0, 0], [0, 1]], dtype=complex)  # projector on logical |1>


def basis_index(bits) -> int:
    """Map a bit list (qubit 0 first) to its little-endian basis index.

    >>> basis_index([1, 0])
    1
    """
    idx = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise DimensionError(f"bit {k} is {b!r}, expected 0 or 1")
        idx |= int(b) << k
    return idx


def align_phase(amps: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``amps`` times the global phase that brings it closest to ``ref``."""
    overlap = np.vdot(amps, ref)
    return amps * (overlap / abs(overlap) if overlap else 1.0)


def majorana_covariance(amps: np.ndarray) -> np.ndarray:
    """Gamma_pq = i <c_p c_q> (p != q) over the Majoranas (a, b) of ``hilbert._majoranas``,
    as the Gram matrix of the vectors c_p|psi>: O(n^2 2^n), no 2^n x 2^n operator."""
    gather, sign = _majoranas(amps.size.bit_length() - 1)
    phi = sign * amps[gather]
    return -np.imag(phi.conj() @ phi.T)


def encode_graph(w: float, phi: float) -> DeviceGraph:
    """Single-DQD encoder device realizing the +2*phi amplitude family, whose
    free evolution ``protocol.encode_qubit`` takes in closed form."""
    return DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(w), phase=-2.0 * phi),))


def kron_le(*ops) -> np.ndarray:
    """Kronecker product with little-endian factor order: ``kron_le(A, B)`` acts
    with A on the least-significant qubit of the result, as ``basis_index``."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(np.asarray(op, dtype=complex), out)
    return out


def majorana_matrices(n: int) -> list:
    """Dense Jordan-Wigner Majoranas a_0..a_{n-1}, b_0..b_{n-1} of n qubits,
    a_k = X_0..X_{k-1} Z_k and b_k = X_0..X_{k-1} Y_k, as 2^n x 2^n matrices."""
    return [kron_le(*[PAULI_X] * k, P, *[ID2] * (n - k - 1))
            for P in (PAULI_Z, PAULI_Y) for k in range(n)]


def parent_gaussian_state(gamma: np.ndarray) -> np.ndarray:
    """The pure Gaussian state of covariance ``gamma``, phase-fixed: the ground state of its
    parent Hamiltonian -(i/4) sum_pq Gamma_pq c_p c_q (gap 1), by one 2^M x 2^M ``eigh``."""
    gather, sign = _majoranas(len(gamma) // 2)
    rows = np.arange(gather.shape[1])
    H = np.zeros((rows.size, rows.size), dtype=complex)
    for p in range(len(gamma)):
        for q in range(p + 1, len(gamma)):  # <i| c_p c_q |gather_q[gather_p[i]]>
            H[rows, gather[q][gather[p]]] -= 0.5j * gamma[p, q] * sign[p] * sign[q][gather[p]]
    return fix_phase(np.linalg.eigh(H)[1][:, 0])


def effective_pair_covariance(U: float, w: float) -> np.ndarray:
    """The support pair's plateau ground covariance in closed form, that of
    ``entangled_pair_reference``: [[0, X], [-X^T, 0]] with X = [[x, c], [-c, x]],
    x = 2r/(1 + r^2) and c = (1 - r^2)/(1 + r^2) for the cross-to-aligned ratio r."""
    r = cross_to_aligned_ratio(U, w)
    x, c = 2 * r / (1 + r * r), (1 - r * r) / (1 + r * r)
    return np.array([[0, 0, x, c], [0, 0, -c, x], [-x, c, 0, 0], [-c, -x, 0, 0]])


def plateau_ground_state(params, n: int) -> np.ndarray:
    """The lowest eigenvector of the dense 2^n x 2^n plateau support (``hamiltonian_at`` of
    ``support_graph`` at U_max) within the sector X_0 ... X_(n-1) = +1, phase-fixed."""
    H = hamiltonian_at(support_graph(params, n, Schedule.constant(params.U_max)), 0.0)
    parity, sector = np.linalg.eigh(kron_le(*[PAULI_X] * n))
    sector = sector[:, parity > 0]
    return fix_phase(sector @ np.linalg.eigh(sector.conj().T @ H @ sector)[1][:, 0])


def random_covariance(rng, n_qubits: int) -> np.ndarray:
    """A random rotation O Gamma O^T of the Majorana covariance Gamma of |+>^n."""
    O = np.linalg.qr(rng.normal(size=(2 * n_qubits, 2 * n_qubits)))[0]
    return O @ majorana_covariance(np.full(2**n_qubits, 2.0 ** (-n_qubits / 2), dtype=complex)) @ O.T


def random_gaussian_state(rng, n_qubits: int) -> StateVector:
    """The state of :func:`random_covariance`."""
    return StateVector(gaussian_state(random_covariance(rng, n_qubits)))


def apply_local(state: StateVector, op, targets) -> StateVector:
    """(I x ... x op x ... x I)|state> for a 2^k x 2^k ``op`` indexed little-endian
    in ``targets`` order (targets[0] is the least-significant bit of its index).
    The result is not renormalized: projectors shrink the norm."""
    targets = list(targets)
    n, k = state.n_qubits, len(targets)
    if len(set(targets)) != k:
        raise DimensionError(f"repeated target in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise DimensionError(f"target out of range for {n} qubits: {targets}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise DimensionError(f"operator shape {op.shape} does not match {k} targets")
    # a little-endian vector reshaped to [2] * n has qubit n-1 on axis 0; the
    # operator tensor's axes are [r_{k-1}, ..., r_0, c_{k-1}, ..., c_0]
    contract = [n - 1 - t for t in reversed(targets)]
    out = np.tensordot(op.reshape([2] * (2 * k)), state.amps.reshape([2] * n),
                       axes=(list(range(k, 2 * k)), contract))
    return _own_state(np.moveaxis(out, list(range(k)), contract).reshape(-1))


def instantaneous_gap(g: DeviceGraph, t: float) -> float:
    """E1(t) - E0(t) of the dense device Hamiltonian (0 for a single level)."""
    evals = np.linalg.eigvalsh(hamiltonian_at(g, t))
    return float(evals[1] - evals[0]) if len(evals) > 1 else 0.0


# the textbook four-branch decomposition of teleportation

BELL_BASIS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}

PAULIS = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class BellBranch:
    name: str
    probability: float
    corrections: tuple
    best_fidelity: float


@dataclass(frozen=True)
class BellDecompositionReport:
    branches: dict
    ok: bool


def bell_decomposition_check(target, tol: float = 1e-10) -> BellDecompositionReport:
    """Verify the four-branch measurement identity on (unknown x shared pair).

    Builds (a|0>+b|1>) x (|01>+|10>)/sqrt(2), projects the first two qubits
    onto each Bell state and reports which single-qubit Pauli restores the
    input ``target`` (an ``InputQubit``) on the third qubit, up to a global
    phase.  For generic inputs the mapping is phi+ -> X, phi- -> Y, psi+ -> I,
    psi- -> Z; the psi- branch carries the Z correction that standard
    bookkeeping sometimes mislabels.
    """
    shared = StateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    arr = tensor_product(target.state(), shared).amps.reshape(2, 2, 2)  # axes [q2, q1, q0]
    branches = {}
    ok = True
    for name, bell in BELL_BASIS.items():
        # cond[x] = <bell|_{q0,q1} psi>, leaving the B amplitude on x
        cond = np.einsum("bxy,xy->b", arr, bell.reshape(2, 2).conj())
        prob = float(np.vdot(cond, cond).real)
        found = []
        best = 0.0
        if prob > 1e-14:
            cond_n = cond / np.sqrt(prob)
            for pname, P in PAULIS.items():
                f = abs(np.vdot(target.state().amps, P @ cond_n)) ** 2
                best = max(best, f)
                if f >= 1.0 - tol:
                    found.append(pname)
        branches[name] = BellBranch(name, prob, tuple(found), best)
        ok = ok and bool(found)
    return BellDecompositionReport(branches, ok)


# the oscillation fit of a population series

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


def _grid_rule(g: DeviceGraph, h: float):
    """The driven terms, the tests and the coarse count of ``evolve.step_grid`` on g at coarse
    step h, each schedule evaluated afresh at every call: (driven, variation(lo, hi),
    coarse(lo, hi, moved), merges(lo, mid, hi), merging, check(n_intervals)) over arrays of
    interval ends lo, hi (and middles mid), each driven term's change weighted and summed in
    ``device.norm_weights``' order."""
    weighted = [(t.amplitude, 1.0) for t in g.tunnel_terms]
    weighted += [(link.strength, 0.5) for link in g.coulomb_links]
    driven = [(s, w) for s, w in weighted if not s.is_constant]
    held = sum(w * abs(s.v_start) for s, w in weighted if s.is_constant)
    scale = energy_scale(g)
    h_auto = 2 * evolve.PropagatorConfig().resolve_dt(g)
    tol = evolve.GRID_TOL * h / h_auto

    def variation(lo, hi):
        return sum((w * np.abs(s.value(hi) - s.value(lo)) for s, w in driven), np.zeros(len(lo)))

    def local_norm(lo, hi):  # per interval: the bound on ||H|| at its ends, by monotony
        return sum((w * np.maximum(np.abs(s.value(lo)), np.abs(s.value(hi))) for s, w in driven),
                   np.full(len(lo), held))

    def coarse(lo, hi, moved):
        span = hi - lo
        dh = span * moved
        return ((dh * np.maximum(1.0, span * scale) > tol)
                | ((dh > evolve.STILL) & (span * local_norm(lo, hi) > evolve.MAX_PHASE)))

    def merges(lo, mid, hi):
        a, b, span = variation(lo, mid), variation(mid, hi), hi - lo
        bend = span * np.abs(b - a) * np.maximum(1.0, span * scale)
        return ~coarse(lo, hi, a + b) & (bend <= evolve.STILL)

    def check(n_intervals):
        if not n_intervals <= evolve.MAX_INTERVALS:
            raise ConfigError(f"the step grid needs {n_intervals:.3g} intervals, "
                              f"more than {evolve.MAX_INTERVALS}")

    return driven, variation, coarse, merges, h >= h_auto, check


def _join_and_merge(edges, variation, merges, merging):
    """Still runs joined, then intervals 2k, 2k + 1 merged pass after pass when ``merging``."""
    moves = variation(edges[:-1], edges[1:]) > 0
    edges = edges[np.concatenate([[True], moves[:-1] | moves[1:], [True]])]
    while merging:
        if not (merge := merges(edges[0:-2:2], edges[1:-1:2], edges[2::2])).any():
            break
        edges = np.delete(edges, 2 * np.flatnonzero(merge) + 1)
    return edges


@np.errstate(over="ignore")
def step_grid_reference(g: DeviceGraph, t0: float, t1: float, h: float, refined_only=False):
    """``evolve.step_grid`` as a multi-pass reference: each block of coarse intervals tested by
    recursion from the root, the coarse intervals reached halved with every test re-run on
    every one of their intervals in every pass, then the still runs joined and the pairwise
    merge passes, each driven term's schedule evaluated afresh at every test.  It returns
    None only when every driven schedule takes the same value at t0 and t1.
    ``refined_only`` returns every time the rule visits: the edges and middle of each block
    tested, the edges of each coarse interval reached and each halving's middle."""
    driven, variation, coarse, merges, merging, check = _grid_rule(g, h)
    if all(s.value(t0) == s.value(t1) for s, _ in driven):
        return None
    check(n := np.ceil((t1 - t0) / h))
    n = max(1, int(n))
    coarse_edges = np.linspace(t0, t1, n + 1)
    visited, merged, reached = set(), [], []

    def descend(lo, hi, level):  # the block of coarse intervals [lo, hi) at ``level``
        visited.update((lo, hi))
        if not level:
            reached.append(lo)
        elif (mid := lo + (1 << level - 1)) >= hi:  # one half: the block is that half
            descend(lo, hi, level - 1)
        else:
            visited.add(mid)
            if merges(*(coarse_edges[[i]] for i in (lo, mid, hi)))[0]:
                merged.append(lo)
            else:
                descend(lo, mid, level - 1)
                descend(mid, hi, level - 1)

    if merging:
        descend(0, n, (n - 1).bit_length())
    else:
        for k in range(n):
            descend(k, k + 1, 0)
    reached = np.array(reached, dtype=int)
    lo, hi = coarse_edges[reached], coarse_edges[reached + 1]
    middles, count = [], n
    for _ in range(evolve._MAX_HALVINGS):
        if not (halve := coarse(lo, hi, variation(lo, hi))).any():
            break
        check(count := count + np.count_nonzero(halve))
        middles.append(mid := lo[halve] + (hi - lo)[halve] / 2)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([hi, hi[halve]])
        hi[np.flatnonzero(halve)] = mid
    if refined_only:
        return np.sort(np.concatenate([coarse_edges[sorted(visited)]] + middles))
    edges = np.sort(np.concatenate([coarse_edges[np.array(merged, dtype=int)], lo, [t1]]))
    return _join_and_merge(edges, variation, merges, merging)


@np.errstate(over="ignore")
def pairwise_grid_reference(g: DeviceGraph, t0: float, t1: float, h: float):
    """The step grid of the rule before the top-down blocks, kept as a witness: every coarse
    interval laid, halved while it fails (every test re-run on every edge in every pass),
    the still runs joined, then intervals 2k, 2k + 1 merged pass after pass."""
    driven, variation, coarse, merges, merging, check = _grid_rule(g, h)
    if all(s.value(t0) == s.value(t1) for s, _ in driven):
        return None
    check(n := np.ceil((t1 - t0) / h))
    edges = np.linspace(t0, t1, max(1, int(n)) + 1)
    for _ in range(evolve._MAX_HALVINGS):
        span = np.diff(edges)
        if not (halve := coarse(edges[:-1], edges[1:], variation(edges[:-1], edges[1:]))).any():
            break
        check(len(span) + np.count_nonzero(halve))
        edges = np.sort(np.concatenate([edges, edges[:-1][halve] + span[halve] / 2]))
    return _join_and_merge(edges, variation, merges, merging)
