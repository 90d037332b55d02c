import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim.device import (
    SCHEDULE_KINDS,
    CoulombLink,
    DeviceGraph,
    Schedule,
    TunnelTerm,
    dqd_pair_links,
    link_diagonal,
    hamiltonian_at,
    hamiltonian_terms,
    majorana_terms,
    schedule_value,
    validate,
)
from dqdsim.errors import DeviceError
from dqdsim.evolve import evolve_scheduled, scheduled_propagator
from dqdsim.hilbert import StateVector
from dqdsim.protocol import ProtocolParams, coupler_graph, support_crossing_gap
from references import ID2, P0, P1, kron_le, majorana_matrices


def pair_graph(U_sched, w=1.0):
    return DeviceGraph(
        dqds=(0, 1),
        tunnel_terms=(TunnelTerm(0, Schedule.constant(w)), TunnelTerm(1, Schedule.constant(w))),
        coulomb_links=dqd_pair_links(0, 1, U_sched),
    )


def protocol_graph():
    """Three DQDs with the 3-6, 4-5, 1-4, 2-3 link layout."""
    return DeviceGraph(
        dqds=(0, 1, 2),
        tunnel_terms=(TunnelTerm(1, Schedule.constant(1.0)), TunnelTerm(2, Schedule.constant(1.0))),
        coulomb_links=dqd_pair_links(1, 2, Schedule.constant(5.0))
        + dqd_pair_links(0, 1, Schedule.constant(3.0)),
    )


@st.composite
def schedules(draw):
    """Any valid schedule of one of the four kinds, with non-negative values."""
    kind = draw(st.sampled_from(SCHEDULE_KINDS))
    v_start, v_end = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))
    if kind == "constant":
        return Schedule.constant(v_start)
    t_start = draw(st.floats(-5.0, 5.0))
    t_end = t_start + draw(st.floats(0.0, 5.0))
    gap = draw(st.floats(0.01, 5.0)) if kind == "tangent_ramp" else None
    return Schedule(kind, v_start, v_end, t_start, t_end, gap)


@st.composite
def device_graphs(draw):
    """A valid graph of 2-4 DQDs: tunneling with real phases, single and crossed links."""
    n = draw(st.integers(2, 4))
    tunneling = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    terms = [TunnelTerm(q, draw(schedules()), phase=draw(st.floats(-np.pi, np.pi)))
             for q in tunneling]
    links = []
    for _ in range(draw(st.integers(0, 3))):
        qa, qb = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            links += dqd_pair_links(qa, qb, draw(schedules()))
        else:
            dots = (2 * qa + draw(st.integers(1, 2)), 2 * qb + draw(st.integers(1, 2)))
            links.append(CoulombLink(*dots, draw(schedules())))
    return DeviceGraph(dqds=range(n), tunnel_terms=terms, coulomb_links=links)


def dot_occupations(bits):
    """Dot-level occupancies of a logical basis state (1-based dot labels)."""
    occ = {}
    for k, b in enumerate(bits):
        occ[2 * k + 1] = b          # odd dot filled iff logical 1
        occ[2 * k + 2] = 1 - b
    return occ


class TestSchedule:
    def test_linear_midpoint(self):
        s = Schedule.linear(0.0, 10.0, 0.0, 10.0)
        assert schedule_value(s, 5.0) == pytest.approx(5.0)

    def test_smooth_midpoint(self):
        s = Schedule.smooth(0.0, 1.0, 0.0, 1.0)
        assert schedule_value(s, 0.5) == pytest.approx(0.5)

    def test_smooth_flat_endpoints(self):
        s = Schedule.smooth(0.0, 1.0, 0.0, 1.0)
        eps = 1e-6
        assert schedule_value(s, eps) < 1e-10 * 1e6  # slope ~ 3*eps^2/eps -> 0
        assert 1.0 - schedule_value(s, 1.0 - eps) < 1e-10 * 1e6

    def test_clamped_outside_window(self):
        s = Schedule.smooth(1.0, 3.0, 2.0, 4.0)
        assert schedule_value(s, 0.0) == pytest.approx(1.0)
        assert schedule_value(s, 9.0) == pytest.approx(3.0)

    def test_tangent_endpoints_and_monotone(self):
        s = Schedule.tangent(0.0, 100.0, 0.0, 200.0, gap_scale=0.02)
        ts = np.linspace(0.0, 200.0, 2001)
        vals = schedule_value(s, ts)
        assert vals[0] == pytest.approx(0.0)
        assert vals[-1] == pytest.approx(100.0, rel=1e-12)
        assert np.all(np.diff(vals) >= 0)
        # slow near the start: most of the window is spent below the gap scale
        assert vals[len(ts) // 2] < 0.1

    def test_tangent_needs_gap_scale(self):
        with pytest.raises(DeviceError):
            Schedule("tangent_ramp", 0.0, 1.0, 0.0, 1.0)

    def test_bad_kind(self):
        with pytest.raises(DeviceError):
            Schedule("exponential", 0.0, 1.0)

    def test_reversed_window(self):
        with pytest.raises(DeviceError):
            Schedule.linear(0.0, 1.0, 5.0, 2.0)

    @pytest.mark.parametrize("args", [
        ("smooth_ramp", 0.0, 1.0, 0.0, np.nan), ("smooth_ramp", 0.0, 1.0, np.nan, 1.0),
        ("linear_ramp", np.nan, 1.0, 0.0, 1.0), ("constant", np.inf, np.inf),
        ("linear_ramp", 0.0, 1.0, -np.inf, 1.0), ("tangent_ramp", 0.0, 1.0, 0.0, 1.0, np.nan),
        ("tangent_ramp", 0.0, 1.0, 0.0, 1.0, np.inf),
    ], ids=["nan-end", "nan-start", "nan-value", "inf-value", "inf-start", "nan-gap",
            "inf-gap"])
    def test_non_finite_schedule_is_refused(self, args):
        with pytest.raises(DeviceError):
            Schedule(*args)

    @pytest.mark.parametrize("make", [Schedule.linear, Schedule.smooth,
                                      lambda *a: Schedule.tangent(*a, gap_scale=0.5)],
                             ids=["linear", "smooth", "tangent"])
    def test_a_very_short_ramp_clips_without_a_warning(self, make):
        # t / span overflows to +-inf over a span of 1e-310; the clip still gives the ends
        s = make(2.0, 7.0, 0.0, 1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s.value(1e10) == 7.0
            assert s.value(-1e10) == 2.0

    def test_a_scalar_time_is_valued_as_in_an_array(self):
        # x**3 is libm's pow on a NumPy scalar and NumPy's own power on an array: a smoothstep's
        # scalar values differed from its array values in their last bits (at 98 of the 100 000
        # times below), so hamiltonian_at and the sweeps stepped a device on values that differed
        s = Schedule.smooth(-7420.395361492388, 0.0, -0.0, 4.141829021635899)
        assert schedule_value(s, 2.83500469245147) == -1749.9891420006697
        rng = np.random.default_rng(34)
        for k in range(20_000):
            kind = SCHEDULE_KINDS[k % 4]
            v0, v1 = rng.uniform(-1e4, 1e4, 2) * rng.choice([0.0, 1e-3, 1.0], 2)
            t0 = rng.uniform(-10.0, 10.0)
            t1 = t0 + rng.uniform(0.0, 10.0) * rng.choice([0.0, 1e-9, 1.0, 1.0])
            s = (Schedule.constant(v0) if kind == "constant" else Schedule(
                kind, v0, v1, t0, t1, rng.uniform(1e-3, 10.0) if kind == "tangent_ramp" else None))
            ts = np.concatenate([[t0, t1], rng.uniform(t0 - 1.0, t1 + 1.0, 3)])
            scalars = [schedule_value(s, t) for t in ts.tolist()]
            assert all(type(v) is float for v in scalars)
            assert np.array(scalars).tobytes() == schedule_value(s, ts).tobytes(), s

    @settings(deadline=None)
    @given(st.floats(min_value=-5.0, max_value=15.0, allow_nan=False))
    def test_values_bounded(self, t):
        s = Schedule.smooth(-2.0, 7.0, 0.0, 10.0)
        assert -2.0 - 1e-12 <= schedule_value(s, t) <= 7.0 + 1e-12


class TestCompileCoulomb:
    def test_link_3_6(self):
        # n3*n6 selects logical (q1, q2) = (1, 0); oracle: enumerate occupancies
        link = CoulombLink(3, 6, Schedule.constant(2.5))
        D = schedule_value(link.strength, 0.0) * link_diagonal(link, 3)
        expected = 2.5 * np.real(np.diag(np.kron(P0, P1)))  # little-endian: q1 is the low bit
        for q0 in (0, 1):  # the link acts on qubits (1, 2) only
            assert np.allclose(D[q0::2], expected)
        for q1 in (0, 1):
            for q2 in (0, 1):
                occ = dot_occupations([0, q1, q2])
                idx = (q1 << 1) | (q2 << 2)
                assert D[idx] == pytest.approx(2.5 * occ[3] * occ[6])

    def test_pair_links_penalize_disagreement(self):
        links = dqd_pair_links(1, 2, Schedule.constant(4.0))
        diag = np.zeros(8)
        for link in links:
            diag += schedule_value(link.strength, 0.0) * link_diagonal(link, 3)
        assert np.allclose(diag[0::2], [0.0, 4.0, 4.0, 0.0])
        # oracle: sum U * n_i * n_j over dot occupancies
        for q1 in (0, 1):
            for q2 in (0, 1):
                occ = dot_occupations([0, q1, q2])
                direct = 4.0 * (occ[3] * occ[6] + occ[4] * occ[5])
                assert diag[(q1 << 1) | (q2 << 2)] == pytest.approx(direct)

    def test_zero_strength(self):
        link = CoulombLink(1, 4, Schedule.constant(0.0))
        D = schedule_value(link.strength, 0.0) * link_diagonal(link, 2)
        assert np.allclose(D, 0.0)

    def test_same_dqd_rejected(self):
        with pytest.raises(DeviceError):
            link_diagonal(CoulombLink(1, 2, Schedule.constant(1.0)), 1)


class TestHamiltonian:
    def test_single_dqd_matrix(self):
        g = DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0)),))
        H = hamiltonian_at(g, 0.0)
        assert np.allclose(H, [[0, -1], [-1, 0]])
        evals, evecs = np.linalg.eigh(H)
        assert np.allclose(evals, [-1.0, 1.0])
        assert abs(abs(np.vdot(evecs[:, 0], np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-12

    def test_phase_leaves_spectrum(self):
        for phi in (0.0, np.pi / 2, 1.234):
            g = DeviceGraph(dqds=(0,),
                            tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0), phase=phi),))
            assert np.allclose(np.linalg.eigvalsh(hamiltonian_at(g, 0.0)), [-1.0, 1.0])

    def test_pair_at_zero_coupling(self):
        g = pair_graph(Schedule.constant(0.0))
        evals, evecs = np.linalg.eigh(hamiltonian_at(g, 0.0))
        assert np.allclose(np.sort(evals), [-2.0, 0.0, 0.0, 2.0])
        ground = evecs[:, 0]
        plus_plus = np.full(4, 0.5)
        assert abs(abs(np.vdot(ground, plus_plus)) - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(device_graphs(), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3))
    def test_hermitian_random_graphs(self, g, times):
        # validate refuses every phase that is not real and finite, so the compile is Hermitian
        # by construction, bit for bit, and no runtime check is needed
        H0, terms = hamiltonian_terms(g)
        for M in [H0] + [B for _, B in terms] + [hamiltonian_at(g, t) for t in times]:
            assert np.array_equal(M, M.conj().T)

    def test_nan_time_is_refused(self):
        g = pair_graph(Schedule.linear(0.0, 5.0, 0.0, 1.0))
        with pytest.raises(DeviceError, match="NaN"):
            hamiltonian_at(g, np.nan)
        assert np.array_equal(hamiltonian_at(g, np.inf), hamiltonian_at(g, 1.0))  # still accepted

    @pytest.mark.parametrize("n", range(1, 6))
    def test_terms_match_the_little_endian_kron(self, n):
        # every tunneling term on every qubit, and a link from each qubit to the next
        rng = np.random.default_rng(n)
        ramp = Schedule.linear(0.0, 1.0, 0.0, 1.0)
        phases = rng.uniform(-np.pi, np.pi, n)
        dots = [(2 * q + int(rng.integers(1, 3)), 2 * q + int(rng.integers(3, 5)))
                for q in range(n - 1)]
        g = DeviceGraph(dqds=range(n),
                        tunnel_terms=[TunnelTerm(q, ramp, phase=p) for q, p in enumerate(phases)],
                        coulomb_links=[CoulombLink(a, b, ramp) for a, b in dots])
        expected = []
        for q, p in enumerate(phases):
            T = -np.array([[0, np.exp(1j * p)], [np.exp(-1j * p), 0]])
            expected.append(kron_le(*[ID2] * q, T, *[ID2] * (n - 1 - q)))
        for q, (a, b) in enumerate(dots):  # an odd dot's occupation is P1, an even dot's P0
            expected.append(kron_le(*[ID2] * q, P1 if a % 2 else P0, P1 if b % 2 else P0,
                                    *[ID2] * (n - 2 - q)))
        H0, terms = hamiltonian_terms(g)
        assert not H0.any() and len(terms) == len(expected)
        for (_, B), E in zip(terms, expected):
            assert np.array_equal(B, E)

    def test_coulomb_diagonal_matches_occupancy_sum(self):
        # exhaustive check against the dot-level energy for up to 6 qubits
        rng = np.random.default_rng(17)
        for n in (2, 3, 6):
            links = []
            for _ in range(n):
                qa, qb = rng.choice(n, size=2, replace=False)
                dot_a = int(2 * qa + rng.integers(1, 3))
                dot_b = int(2 * qb + rng.integers(1, 3))
                links.append(CoulombLink(dot_a, dot_b, Schedule.constant(rng.uniform(0.5, 5))))
            g = DeviceGraph(dqds=tuple(range(n)), coulomb_links=tuple(links))
            H = hamiltonian_at(g, 0.0)
            assert np.allclose(H, np.diag(np.diag(H)))
            for idx in range(2**n):
                bits = [(idx >> k) & 1 for k in range(n)]
                occ = dot_occupations(bits)
                direct = sum(
                    link.strength.v_start * occ[link.dot_i] * occ[link.dot_j]
                    for link in links
                )
                assert H[idx, idx].real == pytest.approx(direct)

    def test_non_hermitian_term_raises(self):
        # a phase that is not real and finite makes the tunneling term non-Hermitian, and
        # every compiler refuses it (the dense engine would step a non-unitary "state"); the
        # check must hold under python -O, so it raises DeviceError, not AssertionError
        state = StateVector.computational(1, 0)
        for phase in (0.3j, 0.3 + 0.5j, np.nan, np.inf):
            g = DeviceGraph(dqds=(0,),
                            tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0), phase=phase),))
            assert any("Hermitian" in e for e in validate(g))
            for compile_ in (hamiltonian_terms, majorana_terms, lambda g: hamiltonian_at(g, 0.0),
                             lambda g: evolve_scheduled(state, g, 0.0, 1.0),
                             lambda g: scheduled_propagator(g, 0.0, 1.0)):
                with pytest.raises(DeviceError, match="Hermitian"):
                    compile_(g)


class TestMajoranaTerms:
    """The free-fermion form i sum_jk a_j K(t)_jk b_k of a transverse-field Ising device."""

    @staticmethod
    def generator(compiled, t):
        K0, terms = compiled
        return K0 + sum(schedule_value(s, t) * K for s, K in terms)

    @pytest.mark.parametrize("n_support", [2, 3, 4])
    def test_coupler_matches_the_dense_hamiltonian_up_to_a_constant(self, n_support):
        params = ProtocolParams(U_max=15.0, Uprime_max=40.0)
        g = coupler_graph(params, n_support, 20.0, support_crossing_gap(params, n_support))
        compiled = majorana_terms(g)
        n = n_support + 1
        c = majorana_matrices(n)
        for t in (0.0, 7.3, 19.9, 20.0):
            K = self.generator(compiled, t)
            assert np.array_equal(K, np.tril(np.triu(K, -1)))  # lower-bidiagonal
            H = sum(1j * K[j, k] * c[j] @ c[n + k] for j in range(n) for k in range(n))
            shift = hamiltonian_at(g, t) - H
            assert np.max(np.abs(shift - shift[0, 0] * np.eye(2**n))) <= 1e-12

    @pytest.mark.parametrize("case", ["phased tunnel", "single uncrossed link",
                                      "half a crossed pair", "non-adjacent DQDs"])
    def test_refuses_what_is_not_a_free_fermion_chain(self, case):
        U = Schedule.constant(5.0)
        tunnel = [TunnelTerm(k, Schedule.constant(1.0)) for k in range(3)]
        links = list(dqd_pair_links(0, 1, U))
        assert majorana_terms(DeviceGraph(range(3), tunnel, links)) is not None
        if case == "phased tunnel":
            tunnel[1] = TunnelTerm(1, Schedule.constant(1.0), phase=0.3)
        elif case == "single uncrossed link":  # P1 P1: odd dot to odd dot
            links.append(CoulombLink(3, 5, U))
        elif case == "half a crossed pair":
            links.append(dqd_pair_links(1, 2, U)[0])
        else:
            links += dqd_pair_links(0, 2, U)
        g = DeviceGraph(dqds=range(3), tunnel_terms=tunnel, coulomb_links=links)
        with pytest.raises(DeviceError, match="no open transverse-field Ising chain"):
            majorana_terms(g)


class TestValidate:
    def test_protocol_layout_ok(self):
        assert validate(protocol_graph()) == []

    def test_same_dqd_link(self):
        g = DeviceGraph(dqds=(0, 1),
                        coulomb_links=(CoulombLink(1, 2, Schedule.constant(1.0)),))
        assert any("one DQD" in e for e in validate(g))

    def test_tunneling_on_missing_dqd(self):
        g = DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(3, Schedule.constant(1.0)),))
        assert any("nonexistent" in e for e in validate(g))

    def test_negative_amplitude(self):
        g = DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(-1.0)),))
        assert any("negative" in e for e in validate(g))
