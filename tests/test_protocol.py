import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim import protocol
from dqdsim.device import DeviceGraph, Schedule, TunnelTerm
from dqdsim.errors import DeviceError, DimensionError
from dqdsim.evolve import PropagatorConfig, evolve_scheduled, scheduled_propagator
from dqdsim.hilbert import StateVector, fidelity, tensor_product
from dqdsim.metrics import fit_oscillation
from dqdsim.protocol import (
    Channel,
    InputQubit,
    ProtocolParams,
    alice_measure_and_correct,
    bell_decomposition_check,
    bell_evolution,
    bell_target,
    couple_unknown,
    coupling_stage,
    cross_to_aligned_ratio,
    effective_rabi,
    encode_graph,
    encode_qubit,
    entangled_pair_reference,
    ghz_encoded,
    make_entangled_pair,
    teleport_end_to_end,
)

EFFECTIVE = ProtocolParams(mode="effective")


def small_full_params(**overrides):
    """Fast full-mode configuration for unit tests (acceptance runs the big one)."""
    defaults = dict(U_max=30.0, Uprime_max=30.0, mode="full")
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def eq11_form(alpha, beta):
    """Post-rotation state at a quarter cycle, built from its printed form."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = alpha / np.sqrt(2)         # |00>(alpha|0> + i beta|1>)
    amps[0b100] = 1j * beta / np.sqrt(2)
    amps[0b011] = 1j * alpha / np.sqrt(2)    # i|11>(alpha|0> - i beta|1>)
    amps[0b111] = beta / np.sqrt(2)
    return StateVector(amps)


class TestInputQubit:
    def test_rejects_unnormalized(self):
        with pytest.raises(DimensionError):
            InputQubit(1.0, 1.0)

    def test_random_is_normalized(self):
        q = InputQubit.random(np.random.default_rng(0))
        assert abs(abs(q.alpha) ** 2 + abs(q.beta) ** 2 - 1) < 1e-12


class TestEncode:
    def test_trivial_target(self):
        enc = encode_qubit(InputQubit(1.0, 0.0), w=1.0, phi=0.0)
        assert enc.t_bar == pytest.approx(0.0)
        assert np.allclose(enc.state.amps, [1.0, 0.0])

    def test_quarter_cycle(self):
        enc = encode_qubit(InputQubit(1 / np.sqrt(2), 1 / np.sqrt(2)), w=1.0, phi=0.0)
        assert enc.t_bar == pytest.approx(np.pi / 4)
        assert np.allclose(enc.state.amps, [1 / np.sqrt(2), 1j / np.sqrt(2)])

    def test_phase_knob_quarter_turn(self):
        # phi = pi/4 turns (|0> + i|1>)/sqrt2 into (|0> - |1>)/sqrt2
        enc = encode_qubit(InputQubit(1 / np.sqrt(2), 1 / np.sqrt(2)), w=1.0, phi=np.pi / 4)
        assert np.allclose(enc.state.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_phase_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi = rng.uniform(-np.pi, np.pi)
            target = InputQubit(0.6, 0.8)
            base = encode_qubit(target, 1.0, 0.0)
            shifted = encode_qubit(target, 1.0, phi)
            assert abs(shifted.achieved.alpha - base.achieved.alpha) < 1e-12
            assert abs(shifted.achieved.beta - base.achieved.beta * np.exp(2j * phi)) < 1e-12

    def test_matches_closed_form_family(self):
        # full numerical evolution of the encoder device reproduces
        # cos(wt)|0> + i e^{2i phi} sin(wt)|1>
        rng = np.random.default_rng(19)
        for _ in range(20):
            w, phi, t = rng.uniform(0.5, 2), rng.uniform(-np.pi, np.pi), rng.uniform(0, 6)
            g = encode_graph(w, phi)
            out = evolve_scheduled(StateVector.computational(1, 0), g, 0.0, t,
                                   PropagatorConfig(dt=1e-3))
            assert abs(out.amps[0] - np.cos(w * t)) < 1e-8
            assert abs(out.amps[1] - 1j * np.exp(2j * phi) * np.sin(w * t)) < 1e-8


class TestEntangledPair:
    def test_ratio_formula(self):
        assert cross_to_aligned_ratio(0.0, 1.0) == pytest.approx(1.0)
        assert cross_to_aligned_ratio(3.0, 1.0) == pytest.approx(0.5)
        assert cross_to_aligned_ratio(1e7, 1.0) == pytest.approx(2e-7, rel=1e-5)

    def test_reference_uncoupled_is_product(self):
        st = entangled_pair_reference(0.0, 1.0)
        assert np.allclose(st.amps, np.full(4, 0.5))

    def test_reference_needs_tunneling(self):
        with pytest.raises(DimensionError):
            entangled_pair_reference(1.0, 0.0)

    def test_effective_overlap_identity(self):
        # |<bell|reference>|^2 == 1/(1+r^2) exactly
        for U in (10.0, 100.0):
            r = cross_to_aligned_ratio(U, 1.0)
            st, diag = make_entangled_pair(ProtocolParams(U_max=U, mode="effective"))
            assert diag is None
            assert fidelity(st, bell_target(2)) == pytest.approx(1 / (1 + r**2), abs=1e-12)
        assert fidelity(entangled_pair_reference(100.0, 1.0), bell_target(2)) >= 0.999

    def test_full_ramp_reaches_reference(self):
        params = small_full_params()
        st, diag = make_entangled_pair(params)
        assert fidelity(st, entangled_pair_reference(30.0, 1.0)) >= 0.999
        assert diag.final_ground_overlap_sq >= 0.999
        assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12


class TestCouple:
    def test_effective_is_exact(self):
        rng = np.random.default_rng(3)
        q = InputQubit.random(rng)
        support, _ = make_entangled_pair(EFFECTIVE)
        out = couple_unknown(q.state(), support, EFFECTIVE)
        assert np.allclose(out.amps, ghz_encoded(q.alpha, q.beta, 3).amps)

    def test_basis_input(self):
        support, _ = make_entangled_pair(EFFECTIVE)
        out = couple_unknown(StateVector.computational(1, 0), support, EFFECTIVE)
        assert np.allclose(out.amps, StateVector.computational(3, 0).amps)

    def test_full_mode_overlap(self):
        params = small_full_params()
        support, _ = make_entangled_pair(params)
        enc = encode_qubit(InputQubit(0.6, 0.8), 1.0, 0.0)
        out = couple_unknown(enc.state, support, params)
        target = ghz_encoded(enc.achieved.alpha, enc.achieved.beta, 3)
        assert fidelity(out, target) >= 0.99
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_rejects_multiqubit_unknown(self):
        support, _ = make_entangled_pair(EFFECTIVE)
        with pytest.raises(DimensionError):
            couple_unknown(support, support, EFFECTIVE)


def random_state(rng, n_qubits):
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(v / np.linalg.norm(v))


class TestChannel:
    @settings(max_examples=10, deadline=None)
    @given(n_support=st.sampled_from([2, 3]), U=st.floats(10.0, 40.0),
           seed=st.integers(0, 2**32 - 1))
    def test_split_matches_propagator(self, n_support, U, seed):
        # the images of |0> and |1> reassemble the coupled state of any input
        rng = np.random.default_rng(seed)
        params = ProtocolParams(U_max=U, integrator=PropagatorConfig(dt=0.5))
        support = random_state(rng, n_support)
        channel = Channel(support, None, params)
        enc = encode_qubit(InputQubit.random(rng), params.w, params.phi)
        g, t_couple, _ = coupling_stage(params, n_support)
        U_couple = scheduled_propagator(g, 0.0, t_couple, params.integrator)
        expected = U_couple @ tensor_product(enc.state, support).amps
        assert np.max(np.abs(channel.couple(enc.state).amps - expected)) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(n_support=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_effective_split_is_ghz_encoded(self, n_support, seed):
        rng = np.random.default_rng(seed)
        channel = Channel(bell_target(n_support), None, EFFECTIVE)
        enc = encode_qubit(InputQubit.random(rng), 1.0)
        a, b = enc.state.amps
        expected = ghz_encoded(a, b, n_support + 1).amps
        assert np.max(np.abs(channel.couple(enc.state).amps - expected)) <= 1e-15

    def test_refuses_a_tunneling_encoder(self, monkeypatch):
        original = protocol.coupler_graph

        def tunneling_encoder(*args):
            g = original(*args)
            extra = TunnelTerm(0, Schedule.constant(1.0))
            return DeviceGraph(g.dqds, g.tunnel_terms + (extra,), g.coulomb_links)

        monkeypatch.setattr(protocol, "coupler_graph", tunneling_encoder)
        with pytest.raises(DeviceError, match="encoder"):
            Channel(bell_target(2), None, small_full_params())

    def test_reuse_matches_one_shot(self):
        params = small_full_params()
        channel = Channel(*make_entangled_pair(params), params)
        q = InputQubit(0.6, 0.8j)
        assert channel.teleport(q).fidelity_to_input == pytest.approx(
            teleport_end_to_end(q, params).fidelity_to_input, abs=1e-14)


class TestEffectiveRabi:
    def test_values(self):
        assert effective_rabi(1.0, 20.0) == pytest.approx(0.1)
        assert effective_rabi(1.0, 100.0) == pytest.approx(0.02)

    def test_zero_tunneling(self):
        assert effective_rabi(0.0, 5.0) == 0.0

    def test_zero_coupling_rejected(self):
        with pytest.raises(DimensionError):
            effective_rabi(1.0, 0.0)


class TestBellEvolution:
    def test_zero_time_identity(self):
        st = ghz_encoded(0.6, 0.8j, 3)
        out = bell_evolution(st, EFFECTIVE, 0.0)
        assert np.allclose(out.amps, st.amps)

    def test_effective_quarter_cycle_form(self):
        rng = np.random.default_rng(12)
        om = effective_rabi(1.0, 100.0)
        for _ in range(10):
            q = InputQubit.random(rng)
            st = ghz_encoded(q.alpha, q.beta, 3)
            out = bell_evolution(st, EFFECTIVE, (np.pi / 4) / om)
            assert np.linalg.norm(out.amps - eq11_form(q.alpha, q.beta).amps) < 1e-12

    def test_full_mode_oscillation_rate(self):
        # population transfer of the aligned block oscillates at ~ 2 w^2/U'
        for U, tol in ((20.0, 0.05), (50.0, 0.01)):
            params = ProtocolParams(Uprime_max=U, mode="full")
            st = ghz_encoded(1.0, 0.0, 3)
            om = effective_rabi(1.0, U)
            ts = np.linspace(0.0, 1.25 * np.pi / om, 300)
            pops = []
            for t in ts:
                out = bell_evolution(st, params, t)
                arr = np.abs(out.amps) ** 2
                pops.append(arr[0b011] + arr[0b111])  # q0 = q1 = 1
            fit = fit_oscillation(ts, pops)
            assert abs(fit.frequency - om) / om <= tol

    def test_frozen_receiver(self):
        # any amplitude structure on Bob rides along unchanged in effective mode
        amps = np.zeros(8, dtype=complex)
        amps[0b000], amps[0b100] = 0.6, 0.8
        st = StateVector(amps)
        out = bell_evolution(st, EFFECTIVE, 1.0)
        rho_bob_before = np.abs([amps[0b000], amps[0b100]])
        arr = out.amps.reshape(2, 2, 2)
        bob_pops = np.sum(np.abs(arr) ** 2, axis=(1, 2))
        assert np.allclose(bob_pops, rho_bob_before**2)


class TestMeasureAndCorrect:
    def test_effective_exactness(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            q = InputQubit.random(rng)
            st = eq11_form(q.alpha, q.beta)
            res = alice_measure_and_correct(st, EFFECTIVE, q)
            assert abs(res.p0 - 0.5) < 1e-10
            assert abs(res.p1 - 0.5) < 1e-10
            for branch in res.branches:
                assert branch.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_corrections_are_branch_specific(self):
        q = InputQubit(0.6, 0.8j)
        st = eq11_form(q.alpha, q.beta)
        res = alice_measure_and_correct(st, EFFECTIVE, q)
        raw0 = res.branches[0].bob_state_raw
        # before correction the branch-0 state is alpha|0> + i beta|1>
        ref = np.array([q.alpha, 1j * q.beta])
        assert fidelity(raw0, StateVector(ref)) == pytest.approx(1.0, abs=1e-10)

    def test_basis_state_lands_on_bob(self):
        st = eq11_form(1.0, 0.0)
        res = alice_measure_and_correct(st, EFFECTIVE, InputQubit(1.0, 0.0))
        for branch in res.branches:
            assert fidelity(branch.bob_state_corrected,
                            StateVector.computational(1, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_outcome_follows_seed(self):
        q = InputQubit(0.6, 0.8)
        st = eq11_form(q.alpha, q.beta)
        outs = {alice_measure_and_correct(st, ProtocolParams(mode="effective", seed=s), q).outcome
                for s in range(8)}
        assert outs == {0, 1}
        a = alice_measure_and_correct(st, ProtocolParams(mode="effective", seed=5), q)
        b = alice_measure_and_correct(st, ProtocolParams(mode="effective", seed=5), q)
        assert a.outcome == b.outcome


class TestEndToEnd:
    def test_effective_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            q = InputQubit.random(rng)
            res = teleport_end_to_end(q, EFFECTIVE)
            assert res.fidelity_to_input == pytest.approx(1.0, abs=1e-10)
            assert abs(res.p0 - 0.5) < 1e-10

    def test_effective_basis_input(self):
        res = teleport_end_to_end(InputQubit(0.0, 1.0), EFFECTIVE)
        assert fidelity(res.bob_state_corrected,
                        StateVector.computational(1, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_full_mode_small(self):
        res = teleport_end_to_end(InputQubit(0.6, 0.8), small_full_params())
        assert res.fidelity_to_input >= 0.99
        assert res.step_log["entangle"]["norm"] == pytest.approx(1.0, abs=1e-9)
        assert res.step_log["couple"]["norm"] == pytest.approx(1.0, abs=1e-9)
        assert res.step_log["bell"]["norm"] == pytest.approx(1.0, abs=1e-9)
        assert res.step_log["couple"]["target_overlap_sq"] >= 0.99

    def test_full_mode_infidelity_decreases_with_coupling(self):
        fids = []
        for U in (15.0, 40.0):
            res = teleport_end_to_end(InputQubit(0.6, 0.8),
                                      small_full_params(U_max=U, Uprime_max=U))
            fids.append(np.mean([b.fidelity for b in res.branches]))
        assert 1 - fids[1] < 1 - fids[0]

    def test_full_mode_monotone_accuracy_in_coupling(self):
        # with ramp durations derived from the gap, deeper penalties only help
        infids = {}
        for U in (20.0, 50.0, 200.0):
            res = teleport_end_to_end(InputQubit(0.6, 0.8),
                                      ProtocolParams(U_max=U, Uprime_max=U, mode="full"))
            infids[U] = 1 - np.mean([b.fidelity for b in res.branches])
        assert infids[200.0] <= infids[50.0] <= infids[20.0]


class TestBellDecomposition:
    def test_generic_input_mapping(self):
        rep = bell_decomposition_check(InputQubit(0.6, 0.8j))
        assert rep.ok
        assert {k: v.corrections for k, v in rep.branches.items()} == {
            "phi+": ("X",), "phi-": ("Y",), "psi+": ("I",), "psi-": ("Z",),
        }
        for branch in rep.branches.values():
            assert branch.probability == pytest.approx(0.25, abs=1e-12)

    def test_random_inputs_have_unique_corrections(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            rep = bell_decomposition_check(InputQubit.random(rng))
            assert rep.ok
            assert all(len(b.corrections) == 1 for b in rep.branches.values())

    def test_basis_input_degenerate_branches(self):
        rep = bell_decomposition_check(InputQubit(1.0, 0.0))
        assert rep.ok
        # basis-state branches are restored by more than one Pauli
        assert any(len(b.corrections) > 1 for b in rep.branches.values())


class TestParams:
    def test_warns_on_shallow_coupling(self):
        with pytest.warns(UserWarning, match="w/U_max"):
            ProtocolParams(U_max=5.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(DimensionError):
            ProtocolParams(mode="hybrid")

    def test_duration_defaults_scale_with_coupling(self):
        p = ProtocolParams(U_max=100.0, Uprime_max=100.0)
        assert p.resolved_T_ent() == pytest.approx(200.0)
        gap = (np.hypot(100.0, 4.0) - 100.0) / 2.0
        assert p.resolved_T_couple(gap) == pytest.approx(8.0 / gap)
        assert p.resolved_bell_U() == pytest.approx(100.0)
