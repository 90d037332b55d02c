import functools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dqdsim import evolve, hilbert, protocol
from dqdsim.chain import ChainChannel, ChainSpec, make_ghz_chain
from dqdsim.device import DeviceGraph, Schedule, TunnelTerm, hamiltonian_at
from dqdsim.errors import ConfigError, ConvergenceError, DeviceError, DimensionError
from dqdsim.evolve import (
    PropagatorConfig,
    adiabatic_ramp,
    evolve_scheduled,
    evolve_static,
    ground_state,
    scheduled_propagator,
)
from dqdsim.hilbert import (
    StateVector,
    _own_state,
    fidelity,
    fix_phase,
    gaussian_overlap_sq,
    gaussian_state,
    measure_qubit,
    partial_trace,
    tensor_product,
)
from dqdsim.protocol import (
    Channel,
    InputQubit,
    ProtocolParams,
    alice_measure_and_correct,
    bell_evolution,
    bell_target,
    build_channel,
    couple_unknown,
    coupler_graph,
    cross_to_aligned_ratio,
    effective_gate,
    effective_rabi,
    encode_qubit,
    entangled_pair_reference,
    ghz_covariance,
    ghz_encoded,
    make_entangled_pair,
    plateau_covariance,
    ramp_support,
    resolve_coupling,
    rotation_gate,
    support_crossing_gap,
    support_graph,
    teleport_end_to_end,
)
from references import (align_phase, bell_decomposition_check, effective_pair_covariance,
                        encode_graph, fit_oscillation, majorana_covariance, plateau_ground_state,
                        random_covariance)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["alpha", "beta"])
    def test_rejects_non_finite_amplitudes(self, bad, slot):
        # a NaN norm compares False with any bound, so the check must fail it explicitly
        amps = {"alpha": 0.6, "beta": 0.8, slot: bad}
        with pytest.raises(DimensionError):
            InputQubit(**amps)

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

    @settings(max_examples=50, deadline=None)
    @given(w=st.floats(0.1, 10.0), phi=st.floats(-np.pi, np.pi), mag=st.floats(0.0, 1.0))
    def test_closed_form_matches_the_encoder_device(self, w, phi, mag):
        enc = encode_qubit(InputQubit(mag, np.sqrt(1.0 - mag**2)), w, phi)
        H = hamiltonian_at(encode_graph(w, phi), 0.0)
        device = evolve_static(StateVector.computational(1, 0), H, enc.t_bar)
        assert np.max(np.abs(enc.state.amps - device.amps)) < 1e-13

    def test_rejects_a_magnitude_above_one(self):
        # InputQubit would refuse this target itself; encode_qubit reads only alpha
        with pytest.raises(DimensionError, match="> 1"):
            encode_qubit(SimpleNamespace(alpha=1.0 + 1e-9, beta=0.0), 1.0)

    @pytest.mark.parametrize("w", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_a_tunneling_that_is_not_positive_and_finite(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic can warn
            with pytest.raises(DimensionError, match="w must be positive and finite"):
                encode_qubit(InputQubit(0.6, 0.8), w)


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

    def test_reference_refuses_a_nan_repulsion(self):
        with pytest.raises(DimensionError, match="U >= 0"):
            entangled_pair_reference(np.nan, 1.0)

    def test_ratio_refuses_an_attraction(self):
        # 4w/(hypot(U, 4w) + U) cancels for U < 0: at U = -1e8 w it gave 5.4e7, not 5.0e7
        with pytest.raises(DimensionError, match="U >= 0"):
            cross_to_aligned_ratio(-1e8, 1.0)

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_ratio_refuses_a_tunneling_that_is_not_finite(self, w):
        with pytest.raises(DimensionError, match="w > 0"):
            cross_to_aligned_ratio(3.0, w)

    def test_effective_overlap_identity(self):
        # |<bell|reference>|^2 == 1/(1+r^2) exactly
        for U in (10.0, 100.0):
            r = cross_to_aligned_ratio(U, 1.0)
            gamma, diag = make_entangled_pair(ProtocolParams(U_max=U, mode="effective"))
            st = StateVector(gaussian_state(gamma))
            assert diag is None
            assert fidelity(st, bell_target(2)) == pytest.approx(1 / (1 + r**2), abs=1e-12)
        assert fidelity(entangled_pair_reference(100.0, 1.0), bell_target(2)) >= 0.999

    def test_full_ramp_reaches_reference(self):
        params = small_full_params()
        gamma, diag = make_entangled_pair(params)
        st = StateVector(gaussian_state(gamma))
        assert fidelity(st, entangled_pair_reference(30.0, 1.0)) >= 0.999
        assert diag.final_ground_overlap_sq >= 0.999
        assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12


class TestSupportRamp:
    """Support ramps start in |+>^n exactly and sweep its Majorana covariance."""

    PARAMS = ProtocolParams(U_max=10.0, integrator=PropagatorConfig(dt=0.05))
    T = 30.0

    @staticmethod
    def engines(monkeypatch):
        """Record each sweep as (engine, dimension swept)."""
        seen = []
        block, majorana = evolve.sweep_block, evolve.sweep_majorana

        def block_spy(psi, *args):
            seen.append(("dense", psi.shape[0]))
            return block(psi, *args)

        def majorana_spy(gamma, *args):
            seen.append(("majorana", gamma.shape[0]))
            return majorana(gamma, *args)

        monkeypatch.setattr(evolve, "sweep_block", block_spy)
        monkeypatch.setattr(evolve, "sweep_majorana", majorana_spy)
        return seen

    def ramp_graph(self, n_support):
        # the pair's links follow its two-level crossing, of gap scale 2w; longer supports
        # ramp on a smoothstep
        p = self.PARAMS
        return support_graph(p, n_support, Schedule.tangent(
            0.0, p.U_max, 0.0, self.T, gap_scale=2.0 * p.w) if n_support == 2 else
            Schedule.smooth(0.0, p.U_max, 0.0, self.T))

    def assert_diagnostics_match_scan(self, g, start, final, diag):
        ts = np.linspace(0.0, self.T, 64)
        gaps = [np.diff(np.linalg.eigvalsh(hamiltonian_at(g, t))[:2])[0] for t in ts]
        assert np.array_equal(diag.gap_times, ts)
        assert np.max(np.abs(diag.gaps - gaps)) <= 1e-13
        assert abs(diag.min_gap - min(gaps)) <= 1e-13
        for t, state, overlap in ((0.0, start, diag.initial_ground_overlap_sq),
                                  (self.T, final, diag.final_ground_overlap_sq)):
            gs = ground_state(hamiltonian_at(g, t)).state
            assert abs(overlap - abs(np.vdot(gs.amps, state)) ** 2) <= 1e-13

    @pytest.mark.parametrize("n_support", [2, 3, 4])
    def test_matches_the_full_propagator(self, n_support, monkeypatch):
        # the ramp keeps the global phase gaussian_state fixes: compare after aligning it
        seen = self.engines(monkeypatch)
        gamma, diag = ramp_support(self.PARAMS, n_support, self.T)
        final = StateVector(gaussian_state(gamma))
        assert seen == [("majorana", 2 * n_support)]
        g = self.ramp_graph(n_support)
        start = np.full(2**n_support, 2.0 ** (-n_support / 2))
        expected = scheduled_propagator(g, 0.0, self.T, self.PARAMS.integrator) @ start
        assert np.max(np.abs(align_phase(final.amps, expected) - expected)) <= 1e-12
        self.assert_diagnostics_match_scan(g, start, final.amps, diag)

    def test_the_pair_ramp_records_its_sector_gap(self):
        # the pair's kept sector is the crossing [[0, -2w], [-2w, U]]: its gap
        # sqrt(U^2 + 16 w^2), least (4w) at U = 0, is the one the tangent profile follows
        gamma, diag = ramp_support(self.PARAMS, 2, self.T)
        U = self.ramp_graph(2).coulomb_links[0].strength.value(diag.gap_times)
        assert np.max(np.abs(diag.sector_gaps - np.hypot(U, 4.0))) <= 1e-13
        assert diag.min_sector_gap == pytest.approx(4.0, abs=1e-13)
        assert diag.min_gap == pytest.approx((np.hypot(10.0, 4.0) - 10.0) / 2, abs=1e-13)  # ~4w^2/U
        log = Channel(gamma, diag, self.PARAMS).teleport(InputQubit(0.6, 0.8)).step_log
        assert log["entangle"]["min_sector_gap"] == diag.min_sector_gap

    @pytest.mark.parametrize("n_support", [2, 3, 4, 5, 6])
    def test_starts_from_the_covariance_of_plus(self, n_support, monkeypatch):
        starts, ramp = [], evolve.adiabatic_ramp

        def spy(gamma, *args):
            starts.append(gamma)
            return ramp(gamma, *args)

        monkeypatch.setattr(evolve, "adiabatic_ramp", spy)
        ramp_support(self.PARAMS, n_support, 1.0)
        (gamma,) = starts
        assert np.max(np.abs(gaussian_state(gamma) - 2.0 ** (-n_support / 2))) <= 1e-15

    def test_antisymmetric_state_sweeps_its_sector(self, monkeypatch):
        # |->|+>|+> is Gaussian and flip-odd (S[::-1] == -S): its ramp stays in that sector
        g = self.ramp_graph(3)
        S = np.full(8, 2.0 ** -1.5, dtype=complex)
        S[1::2] *= -1
        seen = self.engines(monkeypatch)
        with pytest.warns(UserWarning, match="overlap"):  # the first excited state
            gamma, diag = adiabatic_ramp(majorana_covariance(S), g, 0.0, self.T,
                                         self.PARAMS.integrator)
        assert seen == [("majorana", 6)]
        out = gaussian_state(gamma)
        expected = scheduled_propagator(g, 0.0, self.T, self.PARAMS.integrator) @ S
        assert np.max(np.abs(expected[::-1] + expected)) <= 1e-12
        assert np.max(np.abs(align_phase(out, expected) - expected)) <= 1e-12
        self.assert_diagnostics_match_scan(g, S, out, diag)

    @pytest.mark.parametrize("case", ["flip-breaking device"])
    def test_takes_the_full_sweep_otherwise(self, case, monkeypatch):
        # adiabatic_ramp refuses what its Majorana route cannot sweep, before any sweep;
        # the dense engine evolve_scheduled takes the full sweep of it
        g = self.ramp_graph(3)
        start = StateVector(np.full(8, 2.0 ** -1.5, dtype=complex))
        # a tunneling phase on one DQD keeps H Hermitian but leaves no free-fermion chain
        terms = tuple(TunnelTerm(t.dqd, t.amplitude, phase=0.3) if t.dqd == 1 else t
                      for t in g.tunnel_terms)
        g = DeviceGraph(g.dqds, terms, g.coulomb_links)
        seen = self.engines(monkeypatch)
        with pytest.raises(DeviceError, match="Ising chain"):
            adiabatic_ramp(majorana_covariance(start.amps), g, 0.0, self.T,
                           self.PARAMS.integrator)
        assert seen == []
        final = evolve_scheduled(start, g, 0.0, self.T, self.PARAMS.integrator)
        assert seen == [("dense", 8)]
        expected = scheduled_propagator(g, 0.0, self.T, self.PARAMS.integrator) @ start.amps
        assert np.max(np.abs(final.amps - expected)) <= 1e-12


class TestSupportCovariance:
    """A support is handed to the channel as its Majorana covariance: the closed forms,
    the lift to |+> x S and the GHZ overlap read from it agree with the amplitudes'."""

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("U", [1e-3, 1.0, 100.0, 1e5])
    def test_effective_pair_is_the_reference_covariance(self, U):
        gamma, diag = make_entangled_pair(ProtocolParams(U_max=U, mode="effective"))
        assert diag is None
        expected = majorana_covariance(entangled_pair_reference(U, 1.0).amps)
        assert np.max(np.abs(gamma - expected)) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 9))
    def test_effective_ghz_is_the_ghz_covariance(self, n):
        gamma = ghz_covariance(n)
        assert np.max(np.abs(gamma - majorana_covariance(bell_target(n).amps))) <= 1e-15
        assert not gamma.flags.writeable
        if n < 8:  # the effective support is the plateau ground state, memoised
            assert make_ghz_chain(ChainSpec(n, EFFECTIVE))[0] is plateau_covariance(100.0, 1.0, n)

    @pytest.mark.parametrize("n", [2, 4])
    def test_an_effective_build_takes_no_determinant(self, n, monkeypatch):
        # the plateau's GHZ overlap is memoised with its covariance on (U, w, n)
        params = replace(EFFECTIVE, n_support=n)
        expected = gaussian_overlap_sq(plateau_covariance(100.0, 1.0, n), ghz_covariance(n))
        build_channel(params)

        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.det called")
        monkeypatch.setattr(np.linalg, "det", refused)
        log = build_channel(params).teleport(InputQubit(0.6, 0.8)).step_log
        assert log["channel"]["ghz_overlap_sq"] == expected

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("U", [1e-3, 1.0, 25.0, 100.0, 1e5])
    def test_the_plateau_svd_is_the_pair_closed_form(self, U):
        gamma = plateau_covariance(U, 1.0, 2)
        assert np.max(np.abs(gamma - effective_pair_covariance(U, 1.0))) <= 1e-15

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("U", [0.5, 10.0, 100.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_the_plateau_state_is_the_dense_ground_state_of_the_plus_sector(self, n, U):
        # <X_0 ... X_(n-1)> = (-1)^n det W: the sector takes det W = -1 at odd n, so a rule
        # that keeps det W > 0 would pick the odd sector at n = 3 and 5
        params = ProtocolParams(U_max=U)
        gamma, _ = make_entangled_pair(replace(params, mode="effective", n_support=n))
        assert np.linalg.det(gamma[n:, :n]) == pytest.approx((-1) ** n, abs=1e-12)
        state = StateVector(gaussian_state(gamma))
        assert fidelity(state, StateVector(plateau_ground_state(params, n))) >= 1 - 1e-12

    def test_the_effective_build_takes_no_svd_once_memoised(self, monkeypatch):
        params = ProtocolParams(U_max=123.0, mode="effective")
        teleport_end_to_end(InputQubit(0.6, 0.8), params)

        def refused(*args, **kwargs):
            raise AssertionError("an SVD ran for a memoised support")

        monkeypatch.setattr(np.linalg, "svd", refused)
        for q in (InputQubit(0.6, 0.8), InputQubit(0.8, 0.6j)):
            assert teleport_end_to_end(q, params).fidelity_to_input == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_the_coupler_sweeps_the_covariance_of_plus_times_the_support(self, n, seed):
        gamma = random_covariance(np.random.default_rng(seed), n)
        lifted, sweep = [], evolve.sweep_majorana

        def spy(g, *args):
            lifted.append(g)
            return sweep(g, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve, "sweep_majorana", spy)
            couple_unknown(_PLUS_STATE, gamma, small_full_params(T_couple=1.0))
        expected = majorana_covariance(
            tensor_product(_PLUS_STATE, StateVector(gaussian_state(gamma))).amps)
        assert np.max(np.abs(lifted[0] - expected)) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_ghz_overlap_is_the_amplitudes_of_either_parity(self, n, seed):
        # reflecting one Majorana flips the parity X_0 ... X_(n-1), so of a random support and
        # its reflection one is odd and has no overlap with the (even) GHZ state
        gamma = random_covariance(np.random.default_rng(seed), n)
        reflected = gamma.copy()
        reflected[0], reflected[:, 0] = -gamma[0], -gamma[:, 0]
        overlaps = []
        for g in (gamma, reflected):
            S = gaussian_state(g)
            overlaps.append(abs(S[0] + S[-1]) ** 2 / 2)
            assert abs(gaussian_overlap_sq(g, ghz_covariance(n)) - overlaps[-1]) <= 1e-15
        assert min(overlaps) <= 1e-15 < max(overlaps)

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("n_support", [2, 3, 6])
    def test_a_full_mode_build_builds_one_state(self, n_support, monkeypatch):
        # gaussian_state once, for the coupled register; _majoranas, which every pass
        # between amplitudes and a covariance takes, once, inside that call
        built, passes = [], []
        build, majoranas = protocol.gaussian_state, hilbert._majoranas
        monkeypatch.setattr(protocol, "gaussian_state",
                            lambda gamma: built.append(len(gamma) // 2) or build(gamma))
        monkeypatch.setattr(hilbert, "_majoranas", lambda n: passes.append(n) or majoranas(n))
        build_channel(ProtocolParams(U_max=10.0, T_ent=45.0, n_support=n_support,
                                     integrator=PropagatorConfig(dt=0.2)))
        assert built == passes == [n_support + 1]


class TestSweepAccuracy:
    def test_default_pair_sweeps_against_a_converged_reference(self):
        # no worse than the midpoint rule's 5.3e-7 (entangle) and 2.3e-4 (couple,
        # taken over the images of |0> and |1>: sqrt 2 times the deviation of the
        # coupled |+> x S); the reference steps dt = 0.0025 and is itself ~1e-11
        # (entangle) and ~3e-7 (couple) off
        params = ProtocolParams()
        t_couple, gap, _ = resolve_coupling(params, 2)
        g = coupler_graph(params, 2, t_couple, gap)
        plus_support = tensor_product(_PLUS_STATE, entangled_pair_reference(params.U_max, params.w))

        def stages(cfg):
            ent = gaussian_state(ramp_support(replace(params, integrator=cfg), 2,
                                              params.resolved_T_ent())[0])
            return ent, evolve_scheduled(plus_support, g, 0.0, t_couple, cfg).amps
        ent, cpl = stages(params.integrator)
        ent_ref, cpl_ref = stages(evolve.PropagatorConfig(dt=0.0025))
        assert np.linalg.norm(ent - ent_ref) <= 5.3e-7
        assert np.sqrt(2) * np.linalg.norm(cpl - cpl_ref) <= 2.3e-4

    def test_default_chain_coupling_against_a_converged_reference(self):
        # the 4-DQD chain's coupling (U = 15w, U' = 100w) on the Majorana route: on a grid of
        # steps no longer than 2 dt it erred by 2.2e-5 against dt = 0.004; the step grid merges
        # ~97% of its steps, and may cost at most 5% of that
        params = ProtocolParams(U_max=15.0, Uprime_max=100.0)
        support, _ = ramp_support(params, 4, ChainSpec(4, params).resolved_T_ghz())

        def coupled(p):
            return couple_unknown(_PLUS_STATE, support, p).amps
        cpl, ref = coupled(params), coupled(replace(params, integrator=PropagatorConfig(dt=0.004)))
        assert np.linalg.norm(align_phase(cpl, ref) - ref) <= 1.05 * 2.2e-5


class TestStageNorms:
    """Random full-mode parameters: every Majorana product a support ramp or a coupling
    steps is orthogonal, and the states of both stages have unit norm."""

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @settings(max_examples=60, deadline=None)
    @given(U=st.floats(4.0, 200.0), Uprime=st.floats(4.0, 200.0), dt=st.floats(0.05, 0.5),
           T_ent=st.floats(1.0, 20.0), T_couple=st.floats(1.0, 20.0), n=st.sampled_from([2, 3]),
           theta=st.floats(0.0, np.pi))
    # 66 coupling rotations whose defects summed to 1.4e-12 before each chunk was polished
    @example(U=164.0, Uprime=4.0, dt=0.40625, T_ent=1.0, T_couple=19.25, n=3, theta=0.0)
    def test_orthogonal_products_and_unit_norms(self, U, Uprime, dt, T_ent, T_couple, n, theta):
        params = ProtocolParams(U_max=U, Uprime_max=Uprime, T_ent=T_ent, T_couple=T_couple,
                                integrator=PropagatorConfig(dt=dt))
        evolve._PLANS.clear()  # a device Hypothesis repeats would be served its memoised O
        products, sweep = [], evolve._sweep

        def spy(*args):
            products.append(sweep(*args))
            return products[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve, "_sweep", spy)
            support = ramp_support(params, n, T_ent)[0]
            unknown = StateVector(np.array([np.cos(theta / 2), 1j * np.sin(theta / 2)]))
            coupled = couple_unknown(unknown, support, params)
        assert len(products) == 2
        for O in products:
            assert np.max(np.abs(O.T @ O - np.eye(len(O)))) <= 1e-12
        for amps in (gaussian_state(support), coupled.amps):
            assert abs(np.linalg.norm(amps) - 1) <= 1e-12


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
            couple_unknown(bell_target(2), support, EFFECTIVE)


_PLUS_STATE = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))


def _phased_support(coupler_graph):
    """coupler_graph with a tunneling phase on support DQD 1: it keeps the encoder
    bit but breaks X^n, and it is no free-fermion chain."""
    def phased(*args):
        g = coupler_graph(*args)
        terms = tuple(TunnelTerm(t.dqd, t.amplitude, phase=0.3) if t.dqd == 1 else t
                      for t in g.tunnel_terms)
        return DeviceGraph(g.dqds, terms, g.coulomb_links)
    return phased


def random_state(rng, n_qubits):
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(v / np.linalg.norm(v))


class TestChannel:
    def test_the_step_logs_shared_entries_are_read_only(self):
        channel = build_channel(small_full_params())
        a, b = (channel.teleport(q) for q in (InputQubit(0.6, 0.8), InputQubit(1.0, 0.0)))
        assert list(a.step_log) == ["encode", "entangle", "channel", "couple", "bell", "measure"]
        for key in ("entangle", "channel"):
            assert a.step_log[key] is b.step_log[key]
            with pytest.raises(TypeError):
                a.step_log[key]["norm"] = 0.0
        assert list(a.step_log["bell"]) == ["t_wait", "effective_overlap_sq", "norm"]
        assert a.step_log["bell"]["t_wait"] == channel.t_wait

    @settings(max_examples=10, deadline=None)
    @given(n_support=st.sampled_from([2, 3]), U=st.floats(10.0, 40.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n_support=3, U=32.951171875, seed=0)  # Majorana rounding that adds up coherently
    def test_split_matches_propagator(self, n_support, U, seed):
        # the images of |0> and |1> reassemble the coupled state of any input, up to
        # the one global phase the Majorana route leaves open
        rng = np.random.default_rng(seed)
        params = ProtocolParams(U_max=U, integrator=PropagatorConfig(dt=0.5))
        gamma = random_covariance(rng, n_support)
        support = StateVector(gaussian_state(gamma))
        enc = encode_qubit(InputQubit.random(rng), params.w, params.phi)
        t_couple, gap, _ = resolve_coupling(params, n_support)
        g = coupler_graph(params, n_support, t_couple, gap)
        U_couple = scheduled_propagator(g, 0.0, t_couple, params.integrator)
        expected = U_couple @ tensor_product(enc.state, support).amps
        coupled = couple_unknown(enc.state, gamma, params).amps
        assert np.max(np.abs(align_phase(coupled, expected) - expected)) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(n_support=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_effective_split_is_ghz_encoded(self, n_support, seed):
        rng = np.random.default_rng(seed)
        enc = encode_qubit(InputQubit.random(rng), 1.0)
        a, b = enc.state.amps
        expected = ghz_encoded(a, b, n_support + 1).amps
        coupled = couple_unknown(enc.state, ghz_covariance(n_support), EFFECTIVE)
        assert np.max(np.abs(coupled.amps - expected)) <= 1e-15

    def test_refuses_a_tunneling_encoder(self, monkeypatch):
        original = protocol.coupler_graph

        def tunneling_encoder(*args):
            g = original(*args)
            extra = TunnelTerm(0, Schedule.constant(1.0))
            return DeviceGraph(g.dqds, g.tunnel_terms + (extra,), g.coulomb_links)

        monkeypatch.setattr(protocol, "coupler_graph", tunneling_encoder)
        with pytest.raises(DeviceError, match="encoder"):
            Channel(ghz_covariance(2), None, small_full_params())

    @staticmethod
    def coupling_sweeps(monkeypatch, n_support, t_couple):
        """Record each coupling sweep as (engine, dimension swept)."""
        seen = []
        block, majorana = evolve.sweep_block, evolve.sweep_majorana

        def block_spy(psi, g, t0, t1, *args):
            if g.n_qubits == n_support + 1 and t1 == t_couple:
                seen.append(("dense", psi.shape[0]))
            return block(psi, g, t0, t1, *args)

        def majorana_spy(gamma, *args):
            seen.append(("majorana", gamma.shape[0]))
            return majorana(gamma, *args)

        monkeypatch.setattr(evolve, "sweep_block", block_spy)
        monkeypatch.setattr(evolve, "sweep_majorana", majorana_spy)
        return seen

    @pytest.mark.parametrize("n_support", [2, 3])
    def test_couples_through_the_majorana_sweep(self, n_support, monkeypatch):
        # pair and chain channels ramp the 2n_support Majoranas of the support, then
        # rotate the 2M of the coupler's M = n_support + 1 sites
        params = ProtocolParams(U_max=10.0, integrator=PropagatorConfig(dt=0.05))
        t_couple, _, _ = resolve_coupling(params, n_support)
        seen = self.coupling_sweeps(monkeypatch, n_support, t_couple)
        build_channel(replace(params, n_support=n_support))
        assert seen == [("majorana", 2 * n_support), ("majorana", 2 * (n_support + 1))]

    @pytest.mark.parametrize("case", ["phased support"])
    def test_other_couplings_take_the_dense_sweep(self, case, monkeypatch):
        # the channel couples only under an open transverse-field Ising chain and refuses
        # anything else before any sweep; the dense engine evolve_scheduled sweeps such a
        # coupling on the whole register.  A tunneling phase on a support DQD keeps the
        # encoder bit but breaks the chain.
        params = small_full_params()
        t_couple, gap, _ = resolve_coupling(params, 2)
        monkeypatch.setattr(protocol, "coupler_graph", _phased_support(protocol.coupler_graph))
        seen = self.coupling_sweeps(monkeypatch, 2, t_couple)
        with pytest.raises(DeviceError, match="Ising"):
            Channel(ghz_covariance(2), None, params)
        assert seen == []
        g = protocol.coupler_graph(params, 2, t_couple, gap)
        evolve_scheduled(tensor_product(_PLUS_STATE, bell_target(2)), g, 0.0, t_couple,
                         params.integrator)
        assert seen == [("dense", 8)]

    @pytest.mark.parametrize("case", ["wrong shape", "odd size", "one qubit", "complex",
                                      "not antisymmetric", "NaN", "mixed"])
    def test_refuses_a_covariance_that_is_not_pure(self, case, monkeypatch):
        # the support's covariance is the caller's: a malformed one is refused before any
        # sweep, where sweep_majorana's closing Newton-Schulz step and gaussian_state
        # would otherwise make a state up from it
        params = small_full_params()
        seen = self.coupling_sweeps(monkeypatch, 2, resolve_coupling(params, 2)[0])
        gamma = np.array(ghz_covariance(2))
        bad = {"wrong shape": gamma[:3], "odd size": gamma[:3, :3], "one qubit": gamma[:2, :2],
               "complex": 1j * gamma, "not antisymmetric": np.abs(gamma),
               "NaN": np.where(gamma == 1.0, np.nan, gamma), "mixed": 0.9 * gamma}[case]
        error = DimensionError if case in ("wrong shape", "odd size", "one qubit") else DeviceError
        for build in (lambda: Channel(bad, None, params),
                      lambda: couple_unknown(_PLUS_STATE, bad, params)):
            with pytest.raises(error):
                build()
        assert seen == []

    def test_sweeps_a_coupler_without_flip_symmetry_whole(self, monkeypatch):
        # a tunneling phase on a support DQD keeps the encoder bit but breaks X^n: the
        # channel refuses the coupler, and the dense engine sweeps any input through it
        monkeypatch.setattr(protocol, "coupler_graph", _phased_support(protocol.coupler_graph))
        params = small_full_params()
        support = bell_target(2)
        t_couple, gap, _ = resolve_coupling(params, 2)
        g = protocol.coupler_graph(params, 2, t_couple, gap)
        U_couple = scheduled_propagator(g, 0.0, t_couple, params.integrator)
        assert np.max(np.abs(U_couple[::-1, ::-1] - U_couple)) > 1e-3  # no X^n symmetry
        enc = encode_qubit(InputQubit(0.6, 0.8), params.w, params.phi)
        psi = tensor_product(enc.state, support)
        out = evolve_scheduled(psi, g, 0.0, t_couple, params.integrator)
        assert np.max(np.abs(out.amps - U_couple @ psi.amps)) <= 1e-12

    @settings(max_examples=12, deadline=None)
    @given(n_support=st.sampled_from([2, 3, 4]), U=st.floats(10.0, 40.0),
           Uprime=st.floats(4.0, 100.0), dt=st.floats(0.02, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_majorana_route_matches_the_dense_sweep(self, n_support, U, Uprime, dt, seed):
        gamma = random_covariance(np.random.default_rng(seed), n_support)
        support = StateVector(gaussian_state(gamma))
        params = ProtocolParams(U_max=U, Uprime_max=Uprime, T_couple=20.0,
                                integrator=PropagatorConfig(dt=dt))
        g = coupler_graph(params, n_support, *resolve_coupling(params, n_support)[:2])
        with pytest.MonkeyPatch.context() as mp:
            seen = self.coupling_sweeps(mp, n_support, 20.0)
            route = couple_unknown(_PLUS_STATE, gamma, params).amps
        assert seen == [("majorana", 2 * (n_support + 1))]
        dense = evolve_scheduled(tensor_product(_PLUS_STATE, support), g, 0.0, 20.0,
                                 params.integrator).amps
        assert np.linalg.norm(align_phase(route, dense) - dense) <= 1e-12

    def test_richardson_check_covers_the_coupling(self, monkeypatch):
        params = small_full_params(integrator=PropagatorConfig(
            dt=0.5, richardson_check=True, tolerance=1e-14))
        seen = self.coupling_sweeps(monkeypatch, 2, resolve_coupling(params, 2)[0])
        with pytest.raises(ConvergenceError, match="step-doubling"):
            couple_unknown(_PLUS_STATE, ghz_covariance(2), params)
        assert seen == [("majorana", 6)]
        # at a loose tolerance it passes with the halved grid's state, as the dense check does
        cfg = PropagatorConfig(dt=0.5, richardson_check=True, tolerance=1e-3)
        t_couple, gap, _ = resolve_coupling(params, 2)
        out = couple_unknown(_PLUS_STATE, ghz_covariance(2), replace(params, integrator=cfg)).amps
        ref = evolve_scheduled(tensor_product(_PLUS_STATE, bell_target(2)),
                               coupler_graph(params, 2, t_couple, gap), 0.0, t_couple, cfg).amps
        assert np.linalg.norm(align_phase(out, ref) - ref) <= 1e-12

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
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["full", "effective"])
    def test_a_time_that_is_not_finite_is_refused(self, mode, bad):
        # no NaN amplitudes: the effective gate and the full gate's sweep refuse the time
        params = ProtocolParams(mode=mode)
        state = ghz_encoded(0.6, 0.8j, 3)
        for run in (lambda: effective_gate(params, bad), lambda: rotation_gate(params, bad),
                    lambda: bell_evolution(state, params, bad)):
            with pytest.raises(DimensionError, match="finite"):
                run()

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


def reference_measure(state, params, achieved):
    """Alice's measurement from the hilbert primitives: measure_qubit,
    partial_trace, and one eigh for the raw and one for the corrected matrix."""
    n = state.n_qubits
    nt = n - 2
    target = ghz_encoded(achieved.alpha, achieved.beta, nt).amps
    meas = measure_qubit(state, 0, rng=np.random.default_rng(params.seed))
    ref = {}
    for outcome, prob in enumerate((meas.p0, meas.p1)):
        if prob < 1e-12:
            continue
        rho = partial_trace(meas.branch(outcome), range(2, n))
        phase = protocol.CORRECTIONS[outcome][1, 1]
        corr = np.array([phase if (i >> (nt - 1)) & 1 else 1.0 for i in range(2**nt)])
        rho_corr = (corr[:, None] * rho) * corr.conj()[None, :]
        readouts = []
        for m in (rho, rho_corr):
            v = np.linalg.eigh(m)[1][:, -1]
            pair = np.array([v[0], v[-1]])
            readouts.append(fix_phase(pair / np.linalg.norm(pair)))
        fid = float(np.real(target.conj() @ rho_corr @ target))
        ref[outcome] = (prob, rho, *readouts, fid)
    return meas, ref


def assert_matches_reference(res, meas, ref):
    picked = meas.outcome if meas.outcome in ref else 1 - meas.outcome
    assert res.outcome == picked
    assert abs(res.p0 - meas.p0) <= 1e-14 and abs(res.p1 - meas.p1) <= 1e-14
    assert [b.outcome for b in res.branches] == sorted(ref)
    for b in res.branches:
        prob, _, raw, corrected, fid = ref[b.outcome]
        assert abs(b.probability - prob) <= 1e-14
        assert np.max(np.abs(b.bob_state_raw.amps - raw)) <= 1e-12
        assert np.max(np.abs(b.bob_state_corrected.amps - corrected)) <= 1e-12
        assert abs(b.fidelity - fid) <= 1e-12
    code = sum(p * (rho[0, 0] + rho[-1, -1]).real for p, rho, *_ in ref.values())
    assert abs(res.step_log["measure"]["leakage"] - (1.0 - code)) <= 1e-12


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

    def test_leaked_register_is_refused(self):
        # branch 0 has rank 2: weight 0.9 on the register's |01> (support bit 0) and
        # 0.1 on |00> (support bit 1); its dominant state |01> is off the code pair
        amps = np.zeros(16, dtype=complex)
        amps[0b1000] = np.sqrt(0.9)
        amps[0b0010] = np.sqrt(0.1)
        with pytest.raises(ConvergenceError, match="code-pair"):
            alice_measure_and_correct(StateVector(amps), EFFECTIVE, InputQubit(0.6, 0.8))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 7), state_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_primitive_reference(self, n, state_seed, seed):
        rng = np.random.default_rng(state_seed)
        state = random_state(rng, n)
        achieved = InputQubit.random(rng)
        params = ProtocolParams(mode="effective", seed=seed)
        meas, ref = reference_measure(state, params, achieved)
        for _, rho, *_ in ref.values():
            top = np.linalg.eigvalsh(rho)[-2:]
            assume(top[1] - top[0] > 1e-3)  # a degenerate top pair has no unique readout
        assert_matches_reference(alice_measure_and_correct(state, params, achieved), meas, ref)

    @pytest.mark.parametrize("empty", [0, 1])
    @pytest.mark.parametrize("residue", [0.0, 1e-7])
    def test_near_empty_branch_matches_the_reference(self, empty, residue):
        # p_empty = residue^2 <= 1e-14 < 1e-12: only one branch is evaluated
        rng = np.random.default_rng(4)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v[empty::2] = 0.0
        v[empty] = residue * np.linalg.norm(v)
        state = StateVector(v / np.linalg.norm(v))
        q = InputQubit(0.6, 0.8j)
        for seed in range(4):
            params = ProtocolParams(mode="effective", seed=seed)
            meas, ref = reference_measure(state, params, q)
            res = alice_measure_and_correct(state, params, q)
            assert [b.outcome for b in res.branches] == [1 - empty]
            assert_matches_reference(res, meas, ref)

    def test_leakage_is_nonnegative_on_the_full_pair(self):
        # summed as 1 - (code-pair weight), it read -3e-14 to -8e-13 here
        params = ProtocolParams()
        channel = protocol.build_channel(params)
        rng = np.random.default_rng(9)
        for _ in range(3):
            enc = encode_qubit(InputQubit.random(rng), params.w, params.phi)
            state = StateVector(enc.state.amps @ channel._post)
            res = alice_measure_and_correct(state, params, enc.achieved)
            assert res.step_log["measure"]["leakage"] >= 0.0
            assert_matches_reference(res, *reference_measure(state, params, enc.achieved))

    def test_readout_checks_the_density_matrix(self):
        # the branches' weights must sum to 1: total weight 2 is refused
        amps = np.sqrt(2.0) * eq11_form(0.6, 0.8).amps
        with pytest.raises(DimensionError, match="trace"):
            alice_measure_and_correct(_own_state(amps), EFFECTIVE, InputQubit(0.6, 0.8))

    @pytest.mark.parametrize("exact", [True, False])
    def test_degenerate_top_pair(self, exact):
        # branch 0's register matrix is P/2 for a rank-2 projector P: no unique readout
        rng = np.random.default_rng(8)
        if exact:  # support bit 0 on register |00>, |10>; bit 1 on |01>, |11>
            cols = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex) / np.sqrt(8)
        else:  # orthonormal columns mixing the code pair and the leaked states
            cols = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0] / 2
        arr = np.zeros((4, 2, 2), dtype=complex)  # [register, support bit, encoder bit]
        arr[:, :, 0] = cols
        other = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        arr[:, :, 1] = other / (np.sqrt(2) * np.linalg.norm(other))
        state = StateVector(arr.ravel())
        q = InputQubit(0.6, 0.8j)
        for seed in range(2):
            params = ProtocolParams(mode="effective", seed=seed)
            meas, ref = reference_measure(state, params, q)
            top = np.linalg.eigvalsh(ref[0][1])[-2:]
            assert top[1] - top[0] <= 1e-15
            res = alice_measure_and_correct(state, params, q)
            if exact:  # G = p I / 2 reads the support-0 column
                assert np.max(np.abs(res.branches[0].bob_state_raw.amps - [1, 0])) <= 1e-15
            assert abs(res.p0 - meas.p0) <= 1e-14 and abs(res.p1 - meas.p1) <= 1e-14
            for b in res.branches:
                for readout in (b.bob_state_raw, b.bob_state_corrected):
                    assert abs(np.linalg.norm(readout.amps) - 1.0) <= 1e-14
                assert abs(b.fidelity - ref[b.outcome][-1]) <= 1e-12

    def test_readout_takes_no_linalg_call(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        channel = ChainChannel(ChainSpec(4, EFFECTIVE))
        rng = np.random.default_rng(3)
        state = random_state(rng, 5)  # a chain4 channel's register size
        q = InputQubit.random(rng)
        reference = reference_measure(state, EFFECTIVE, q)
        for name in ("eigh", "eigvalsh", "svd", "eig"):
            monkeypatch.setattr(np.linalg, name, refused)
        assert_matches_reference(alice_measure_and_correct(state, EFFECTIVE, q), *reference)
        assert channel.teleport(q).fidelity_to_input == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_are_refused(self, bad):
        # no path writes a NaN readout: the register is checked before any branch
        amps = eq11_form(0.6, 0.8).amps.copy()
        amps[0b011] = bad
        with pytest.raises(ConvergenceError, match="not finite"):
            alice_measure_and_correct(_own_state(amps), EFFECTIVE, InputQubit(0.6, 0.8))

    def test_leaked_register_is_refused_by_the_measurement(self):
        # encoder and support in |00>, receiving register in |10> (qubit 2 set)
        st4 = StateVector.computational(4, 0b0100)
        with pytest.raises(ConvergenceError, match="code-pair"):
            alice_measure_and_correct(st4, EFFECTIVE, InputQubit(0.6, 0.8))

    def test_outcome_follows_seed(self):
        q = InputQubit(0.6, 0.8)
        st = eq11_form(q.alpha, q.beta)
        outs = {alice_measure_and_correct(st, ProtocolParams(mode="effective", seed=s), q).outcome
                for s in range(8)}
        assert outs == {0, 1}
        a = alice_measure_and_correct(st, ProtocolParams(mode="effective", seed=5), q)
        b = alice_measure_and_correct(st, ProtocolParams(mode="effective", seed=5), q)
        assert a.outcome == b.outcome


class TestReadoutForms:
    """``Channel.teleport`` evaluates forms built once from the rotated images: it must give
    what Alice's readout of the register u @ post gives, at every register size."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def channel(n_support, mode):
        if mode == "effective":
            return ChainChannel(ChainSpec(n_support, EFFECTIVE))
        # small U and short ramps keep the builds fast; the coupling is unfaithful on purpose
        params = ProtocolParams(U_max=10.0, T_couple=30.0, integrator=PropagatorConfig(dt=0.25))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "coupling ramp")
            return ChainChannel(ChainSpec(n_support, params, T_ghz=20.0))

    @staticmethod
    def assert_same_result(res, ref, tol):
        assert res.outcome == ref.outcome
        for a, b in ((res.p0, ref.p0), (res.p1, ref.p1),
                     (res.fidelity_to_input, ref.fidelity_to_input),
                     (res.step_log["measure"]["leakage"], ref.step_log["measure"]["leakage"])):
            assert abs(a - b) <= tol
        for a, b in ((res.bob_state_raw, ref.bob_state_raw),
                     (res.bob_state_corrected, ref.bob_state_corrected)):
            assert np.max(np.abs(a.amps - b.amps)) <= tol
        assert [b.outcome for b in res.branches] == [b.outcome for b in ref.branches]
        for a, b in zip(res.branches, ref.branches):
            assert abs(a.probability - b.probability) <= tol and abs(a.fidelity - b.fidelity) <= tol
            assert np.max(np.abs(a.bob_state_raw.amps - b.bob_state_raw.amps)) <= tol
            assert np.max(np.abs(a.bob_state_corrected.amps - b.bob_state_corrected.amps)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(n_support=st.integers(2, 6), mode=st.sampled_from(["full", "effective"]),
           seed=st.integers(0, 2**32 - 1))
    def test_teleport_is_the_readout_of_the_rotated_register(self, n_support, mode, seed):
        channel = self.channel(n_support, mode)
        params, q = channel.params, InputQubit.random(np.random.default_rng(seed))
        res = channel.teleport(q)
        enc = encode_qubit(q, params.w, params.phi)
        u = enc.state.amps
        post = u @ channel._post
        self.assert_same_result(res, alice_measure_and_correct(StateVector(post), params,
                                                               enc.achieved), 1e-14)
        coupled = u @ channel._coupled
        # the effective reference: the effective rotation of alpha|0...0> + beta|1...1>
        ideal = bell_evolution(ghz_encoded(u[0], u[1], n_support + 1),
                               replace(params, mode="effective"), channel.t_wait).amps
        log = res.step_log
        assert abs(log["couple"]["norm"] - np.linalg.norm(coupled)) <= 1e-14
        assert abs(log["couple"]["target_overlap_sq"]
                   - abs(np.vdot(coupled[[0, -1]], u)) ** 2) <= 1e-14
        assert abs(log["bell"]["norm"] - np.linalg.norm(post)) <= 1e-14
        assert abs(log["bell"]["effective_overlap_sq"] - abs(np.vdot(post, ideal)) ** 2) <= 1e-14

    @pytest.mark.parametrize("mode", ["full", "effective"])
    def test_teleport_forms_no_register_sized_array(self, mode, monkeypatch):
        class Refused:
            """Stands in for an image array and refuses every use."""
            __array_ufunc__ = None  # numpy hands @ and ufuncs over to the reflected methods

            def refuse(self, *args, **kwargs):
                raise AssertionError("teleport used a 2^n image array")

            __array__ = __getitem__ = __matmul__ = __rmatmul__ = __mul__ = __rmul__ = refuse
            __getattr__ = refuse

        with pytest.raises(AssertionError, match="image array"):
            np.ones(2) @ Refused()
        channel = self.channel(4, mode)
        rng = np.random.default_rng(5)
        qubits = [InputQubit.random(rng) for _ in range(3)]
        before = [channel.teleport(q) for q in qubits]
        for name in ("_coupled", "_post"):
            monkeypatch.setattr(channel, name, Refused())
        for q, ref in zip(qubits, before):
            res = channel.teleport(q)
            self.assert_same_result(res, ref, 0.0)
            assert res.step_log == ref.step_log


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_rejects_a_seed_that_is_no_nonnegative_int(self, seed):
        with pytest.raises(DimensionError, match="seed"):
            ProtocolParams(seed=seed)

    def test_rejects_bad_mode(self):
        with pytest.raises(DimensionError):
            ProtocolParams(mode="hybrid")

    @pytest.mark.parametrize("kwargs", [
        dict(w=np.nan), dict(w=np.inf), dict(U_max=np.nan), dict(U_max=np.inf),
        dict(Uprime_max=np.nan), dict(T_couple=np.nan), dict(T_ent=np.inf), dict(phi=np.nan),
        dict(U_max=10**400),  # an int past a float's range
    ])
    def test_rejects_non_finite_numbers(self, kwargs):
        with pytest.raises(DimensionError, match="must be finite"):
            ProtocolParams(**kwargs)

    @pytest.mark.parametrize("n_support", [1, 12, True, 3.0, "3", None])
    def test_rejects_an_n_support_that_is_no_integer_in_range(self, n_support):
        with pytest.raises(DimensionError, match=r"n_support must be an integer in \[2, 11\]"):
            ProtocolParams(n_support=n_support)

    @pytest.mark.parametrize("kwargs", [dict(T_ent=0.0), dict(T_couple=-1.0), dict(bell_U=0.0)])
    def test_rejects_non_positive_durations_and_bell_coupling(self, kwargs):
        # a zero-length support ramp would start at the plateau, not the uncoupled register
        with pytest.raises(DimensionError, match="positive"):
            ProtocolParams(**kwargs)

    def test_names_every_bad_field(self):
        with pytest.raises(DimensionError) as err:
            ProtocolParams(w=0.0, U_max=-1.0, T_couple=-2.0, mode="hybrid")
        assert str(err.value) == ("w must be positive, got 0.0; U_max must be nonnegative, "
                                  "got -1.0; T_couple must be positive, got -2.0; mode must be "
                                  "'full' or 'effective', got 'hybrid'")

    def test_duration_defaults_scale_with_coupling(self):
        p = ProtocolParams(U_max=100.0, Uprime_max=100.0)
        assert p.resolved_T_ent() == pytest.approx(8.20236796345)
        gap = (np.hypot(100.0, 4.0) - 100.0) / 2.0
        assert p.resolved_T_couple(gap) == pytest.approx(8.0 / gap)
        assert p.resolved_bell_U() == pytest.approx(100.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(Uprime_max=0.0), "positive bell_U"),  # bell_U tracks U'
        (dict(bell_U=1e-320), "rate"),  # 2w^2/bell_U overflows: no wait is left
        (dict(w=1e-300, T_ent=10.0), "rate"),  # w^2 underflows: the rate is 0
        (dict(wait_angle=0.0), "wait"),
    ])
    @pytest.mark.parametrize("mode", ["full", "effective"])
    def test_channel_refuses_an_unrunnable_rotation_stage_first(self, kwargs, match, mode,
                                                                 monkeypatch):
        def no_ramp(*args):
            raise AssertionError("the support ramp ran before the refusal")

        monkeypatch.setattr(protocol, "make_entangled_pair", no_ramp)
        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        params = ProtocolParams(mode=mode, **kwargs)
        with pytest.raises(ConfigError, match=match):
            build_channel(params)
        with pytest.raises(ConfigError, match=match):
            ChainChannel(ChainSpec(3, params))

    @pytest.mark.parametrize("kwargs, ramp", [
        (dict(U_max=1e4), "coupling ramp T_couple"),  # 2U/w^2, in MAX_AUTO_RAMP, on 5e7 intervals
        (dict(T_couple=1e7), "coupling ramp T_couple"),
        (dict(T_ent=1e7), "entangling ramp T_ent"),
    ])
    def test_channel_refuses_a_ramp_out_of_grid_reach_first(self, kwargs, ramp, monkeypatch):
        def no_ramp(*args):
            raise AssertionError("the support ramp ran before the refusal")

        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        with pytest.raises(ConfigError, match=f"the {ramp}.*: the step grid .* out of reach"):
            build_channel(ProtocolParams(**kwargs))

    def test_a_zero_crossing_gap_is_refused_before_a_coupler_is_built(self, monkeypatch):
        def no_graph(*args):
            raise AssertionError("a coupler graph was built before the refusal")

        monkeypatch.setattr(protocol, "coupler_graph", no_graph)
        params = ProtocolParams(U_max=1e200, n_support=4, T_ent=1e-199, T_couple=10.0)
        assert support_crossing_gap(params, 4) == 0.0
        with pytest.raises(ConfigError, match="the coupling ramp T_couple follows the support's "
                           "crossing gap, which is 0 at n_support = 4"):
            resolve_coupling(params, 4)

    def test_a_ramp_that_does_not_move_is_in_reach_at_any_length(self):
        # step_grid steps a device whose schedules do not move in one exponential
        params = ProtocolParams(U_max=0.0, T_ent=1e9)
        assert params.support_ramp() == 1e9
        assert ramp_support(params, 2, 1e9)[1].final_ground_overlap_sq == pytest.approx(1.0)
        with pytest.raises(ConfigError, match="entangling ramp T_ent"):
            replace(params, U_max=20.0).support_ramp()

    def test_overflowing_default_ramps_are_refused(self):
        # w^2 underflows to 0 at w = 1e-300: 2 U_max / w^2 is not a duration
        params = ProtocolParams(w=1e-300)
        with pytest.raises(ConfigError, match="not finite"):
            params.resolved_T_ent()
        with pytest.raises(ConfigError, match="not finite"):
            ChainSpec(3, params).resolved_T_ghz()
        assert ProtocolParams(w=1e-300, T_ent=10.0).resolved_T_ent() == 10.0


class TestNoRechecks:
    """The channel build and the per-input path wrap states whose norm holds by
    construction without StateVector's norm check."""

    @staticmethod
    def checked_states(monkeypatch):
        seen = []
        original = StateVector.__post_init__

        def spy(self):
            seen.append(self)
            original(self)

        monkeypatch.setattr(StateVector, "__post_init__", spy)
        return seen

    def test_effective_build_and_teleports_check_no_state(self, monkeypatch):
        checked = self.checked_states(monkeypatch)
        chain, pair = ChainChannel(ChainSpec(3, EFFECTIVE)), build_channel(EFFECTIVE)
        assert checked == []
        rng = np.random.default_rng(12)
        for channel in (pair, chain):
            for _ in range(5):
                channel.teleport(InputQubit.random(rng))
        assert checked == []
        StateVector.computational(1)
        assert len(checked) == 1  # the spy sees a checked state

    @pytest.mark.parametrize("n_support", [2, 3, 4, 5, 6])
    def test_ghz_overlap_is_the_fidelity_with_the_ghz_state(self, n_support):
        # the channel log's Gaussian overlap sqrt|det((G_S + G_GHZ) / 2)| on ramped supports
        params = ProtocolParams(U_max=10.0, integrator=PropagatorConfig(dt=0.25))
        support, ramp = ramp_support(params, n_support, 20.0)
        log = Channel(support, ramp, EFFECTIVE).teleport(InputQubit(0.6, 0.8)).step_log
        expected = fidelity(StateVector(gaussian_state(support)), bell_target(n_support))
        assert 0.1 < expected < 0.999
        assert abs(log["channel"]["ghz_overlap_sq"] - expected) <= 1e-15


class TestLazyResults:
    """A teleport builds Bob's states and the encoded state only when a caller reads them,
    each once, with the values an eager build gave."""

    @staticmethod
    def wraps(monkeypatch):
        seen = []
        original = protocol._own_state

        def spy(amps):
            seen.append(amps)
            return original(amps)

        monkeypatch.setattr(protocol, "_own_state", spy)
        return seen

    @staticmethod
    def eager(z0, z1):
        # the readout as it was built eagerly: normalized, phase-fixed like fix_phase
        big = z0 if abs(z0) >= abs(z1) else z1
        scale = big.conjugate() / (abs(big) * math.hypot(abs(z0), abs(z1)))
        return np.array([z0 * scale, z1 * scale])

    def test_a_chain_teleport_wraps_no_state(self, monkeypatch):
        channel = ChainChannel(ChainSpec(4, EFFECTIVE))
        seen = self.wraps(monkeypatch)
        res = channel.teleport(InputQubit(0.6, 0.8j))
        assert seen == []
        res.bob_state_raw, res.bob_state_raw, res.bob_state_corrected
        assert len(seen) == 2  # each state once, on its first read

    def test_branch_states_are_the_eager_ones_and_built_once(self):
        rng = np.random.default_rng(30)
        channel = ChainChannel(ChainSpec(4, EFFECTIVE))
        for _ in range(20):
            for b in channel.teleport(InputQubit.random(rng)).branches:
                w0, w1 = b._pair
                phase = complex(protocol.CORRECTIONS[b.outcome][1, 1])
                for state, ref in ((b.bob_state_raw, self.eager(w0, w1)),
                                   (b.bob_state_corrected, self.eager(w0, phase * w1))):
                    assert np.array_equal(state.amps, ref) and not state.amps.flags.writeable
                assert b.bob_state_raw is b.bob_state_raw
                assert b.bob_state_corrected is b.bob_state_corrected
                with pytest.raises(AttributeError):  # still frozen
                    b.fidelity = 0.0

    @pytest.mark.parametrize("empty", [None, 0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_the_result_states_are_the_drawn_branch_objects(self, seed, empty):
        amps = eq11_form(0.6, 0.8).amps.copy()
        if empty is not None:  # only branch 1 - empty is evaluated, whatever the draw
            amps[empty::2] = 0.0
            amps /= np.linalg.norm(amps)
        res = alice_measure_and_correct(StateVector(amps), ProtocolParams(mode="effective",
                                        seed=seed), InputQubit(0.6, 0.8))
        assert len(res.branches) == (2 if empty is None else 1)
        drawn, = [b for b in res.branches if b.outcome == res.outcome]
        assert res.bob_state_raw is drawn.bob_state_raw
        assert res.bob_state_corrected is drawn.bob_state_corrected
        assert res.fidelity_to_input == drawn.fidelity

    def test_encoded_state_is_the_achieved_amplitudes(self):
        enc = encode_qubit(InputQubit(0.6, 0.8), 1.3, 0.2)
        a = enc.achieved
        assert np.array_equal(enc.state.amps, [a.alpha, a.beta])
        assert enc.state is enc.state and not enc.state.amps.flags.writeable


class TestEffectiveLimit:
    def test_full_mode_approaches_the_effective_limit(self):
        # as w/U -> 0 the full dynamics' mean infidelity falls, like (w/U)^2 plus the
        # coupling's floor
        qubits = [InputQubit.random(np.random.default_rng(seed)) for seed in range(20)]
        losses = []
        for U in (25.0, 50.0, 100.0, 200.0):
            channel = build_channel(ProtocolParams(U_max=U))
            losses.append(1.0 - np.mean([channel.teleport(q).fidelity_to_input for q in qubits]))
            assert losses[-1] * U <= 0.06  # in units of w
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    @settings(max_examples=30, deadline=None)
    @given(U=st.floats(25.0, 800.0))
    def test_the_exact_mean_fidelity_obeys_the_limit(self, U):
        # bounds fixed before the run: a 28-point scan read 1 - F = 1.32-16.8 (w/U)^2, at most
        # 0.81 of the upper bound (at 25w), and exactly 0 in effective mode at 100w
        loss = 1.0 - build_channel(ProtocolParams(U_max=U)).mean_fidelity()
        assert 0.5 / U**2 <= loss <= 2.0 / U**2 + 4e-5
        effective = build_channel(ProtocolParams(U_max=U, mode="effective"))
        assert 1.0 - effective.mean_fidelity() <= 1e-15


class TestMeanFidelity:
    """Channel.mean_fidelity: the exact Haar mean of the branch-weighted fidelity."""

    @staticmethod
    def weighted(channel, u):
        branches = channel._readout.read(u, channel.params, InputQubit(*u), {}).branches
        return sum(b.probability * b.fidelity for b in branches)

    @pytest.mark.parametrize("U, n_support", [(25.0, 2), (100.0, 2), (400.0, 2), (10.0, 3)],
                             ids=["pair-U25", "pair-U100", "pair-U400", "chain3-U10"])
    def test_is_the_haar_mean(self, U, n_support):
        channel = build_channel(ProtocolParams(U_max=U, n_support=n_support))
        rng = np.random.default_rng(2027)
        samples = []
        for _ in range(4000):
            q = InputQubit.random(rng)
            samples.append(self.weighted(channel, (q.alpha, q.beta)))
        sigma = np.std(samples) / np.sqrt(len(samples))
        assert abs(channel.mean_fidelity() - np.mean(samples)) <= 3 * sigma
        # any other 2-design gives the same mean: the tetrahedron's four states
        s, t = np.sqrt(1 / 3), np.sqrt(2 / 3)
        sic = [(1.0, 0.0)] + [(s, t * np.exp(2j * np.pi * k / 3)) for k in range(3)]
        assert abs(np.mean([self.weighted(channel, u) for u in sic])
                   - channel.mean_fidelity()) <= 1e-13

    def test_effective_mode_is_faithful(self):
        assert abs(build_channel(EFFECTIVE).mean_fidelity() - 1.0) <= 1e-15


class TestPairRampBudget:
    # the exact mean infidelity 1 - F of the pair's former ramp, a smoothstep over 2 U/w^2
    SMOOTHSTEP_LOSS = {25.0: 2.6032e-3, 50.0: 6.0580e-4, 100.0: 1.6214e-4, 200.0: 5.8701e-5,
                       400.0: 3.2819e-5}

    @pytest.mark.parametrize("scale", [0.75, 1.0, 1.5])
    @pytest.mark.parametrize("U", sorted(SMOOTHSTEP_LOSS))
    def test_default_ramp_keeps_the_smoothstep_budget(self, U, scale):
        # the tangent ramp's default stays within the smoothstep's loss, and does not sit on
        # a cliff: a quarter shorter or half longer keeps it too
        params = ProtocolParams(U_max=U)
        if scale != 1.0:
            params = replace(params, T_ent=scale * params.resolved_T_ent())
        loss = 1.0 - build_channel(params).mean_fidelity()
        assert loss <= 1.35 * self.SMOOTHSTEP_LOSS[U]


class TestPairRampPhase:
    """The pair's support ramp is a two-level sweep at constant adiabaticity
    eps = kappa / (8 w T), kappa = U / sqrt(U^2 + 16 w^2) (1/(8 w T) up to (2w/U)^2), whose
    end loss is 4 eps^2 sin^2(Phi/2) to first order, Phi = T 4w arcsin(kappa) / kappa."""

    US = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0]

    @staticmethod
    def law(U, T):
        kappa = U / math.hypot(U, 4.0)
        phi = T * 4.0 * math.asin(kappa) / kappa
        return phi / (2 * math.pi), 4 * (kappa / (8 * T)) ** 2, math.sin(phi / 2) ** 2

    @pytest.mark.parametrize("U", US)
    def test_end_loss_follows_the_phase_law(self, U):
        # the law's next order is O(eps) relative to 4 eps^2, and eps <= 1/56 here: 5% of the
        # envelope 4 eps^2, fixed before the first run, over two cycles around the default
        per_cycle = protocol.RAMP_CYCLES / ProtocolParams(U_max=U).resolved_T_ent()
        for cycles in np.arange(7.0, 9.0 + 1e-9, 0.125):
            T = cycles / per_cycle
            diag = ramp_support(ProtocolParams(U_max=U), 2, T)[1]
            phase, envelope, sin2 = self.law(U, T)
            assert phase == pytest.approx(cycles, rel=1e-13)
            assert diag.ramp_cycles == pytest.approx(phase, rel=1e-13)
            assert diag.predicted_residue == pytest.approx(envelope * sin2, rel=1e-9, abs=1e-25)
            loss = 1.0 - diag.final_ground_overlap_sq
            assert abs(loss - envelope * sin2) <= 0.05 * envelope
            if cycles in (7.5, 8.5):  # the half-integer cycles next to the default: the worst
                assert abs(loss / envelope - 1.0) <= 0.1

    @pytest.mark.parametrize("U", US)
    def test_default_ramp_sits_on_a_whole_cycle(self, U):
        # k = 8 leaves the second-order residue, ~1.4e-7, below the plateau's (w/U)^2
        params = ProtocolParams(U_max=U)
        T = params.resolved_T_ent()
        assert 8.0 <= T <= 8.8
        diag = make_entangled_pair(params)[1]
        assert diag.ramp_cycles == pytest.approx(protocol.RAMP_CYCLES, rel=1e-14)
        assert diag.predicted_residue <= 1e-25
        if U == 100.0:  # exactly 8 cycles: 0, not 4 eps^2 times the square of sin(8 pi)'s rounding
            assert diag.predicted_residue == 0.0
        assert 1.0 - diag.final_ground_overlap_sq <= min(2e-7, (1.0 / U) ** 2)
        log = build_channel(params).teleport(InputQubit(0.6, 0.8)).step_log["entangle"]
        assert (log["ramp_cycles"], log["predicted_residue"]) == (
            diag.ramp_cycles, diag.predicted_residue)

    @pytest.mark.parametrize("U, most", [(100.0, 250), (400.0, 400)])
    def test_default_ramp_grid(self, U, most):
        # the 0.6 U/w^2 smoothstep-era default took 815 and 3 335 intervals here
        params = ProtocolParams(U_max=U)
        T = params.resolved_T_ent()
        g = support_graph(params, 2, Schedule.tangent(0.0, U, 0.0, T, gap_scale=2.0))
        edges = evolve.step_grid(g, 0.0, T, 2 * params.integrator.resolve_dt(g))
        assert len(edges) - 1 <= most

    def test_default_ramp_limit_at_no_repulsion(self):
        # kappa -> 0: 2 pi k / (4w), with no division by zero
        assert ProtocolParams(U_max=0.0).resolved_T_ent() == pytest.approx(4 * math.pi, rel=1e-15)
        assert ProtocolParams(U_max=0.0, w=2.0).resolved_T_ent() == pytest.approx(2 * math.pi)

    def test_chains_leave_the_phase_unset(self):
        params = ProtocolParams(U_max=10.0, n_support=3, T_ent=45.0)
        diag = make_entangled_pair(params)[1]
        assert diag.ramp_cycles is None and diag.predicted_residue is None
        log = build_channel(params).teleport(InputQubit(0.6, 0.8)).step_log["entangle"]
        assert "ramp_cycles" not in log and "predicted_residue" not in log

    @pytest.mark.parametrize("U", [
        100.0,
        pytest.param(400.0, marks=pytest.mark.xfail(strict=True, reason=(
            "the matched support's ~1.4e-7 second-order residue still interferes with the "
            "coupler: 1 - F moves by about +-6% here (+-2.4% from an exact support)"))),
    ])
    def test_mean_fidelity_is_flat_in_the_coupling_length(self, U):
        # with the support's residue at its second order, 1 - F over T_couple +- 0.1/w (the
        # oscillation's period is ~2 pi / U) stays within +-5% of its mid-range
        params = ProtocolParams(U_max=U)
        support, ramp = make_entangled_pair(params)
        t_couple = resolve_coupling(params, 2)[0]
        loss = np.array([1.0 - Channel(support, ramp, replace(params, T_couple=t_couple + d))
                         .mean_fidelity() for d in np.linspace(-0.1, 0.1, 41)])
        mid = (loss.max() + loss.min()) / 2
        assert (loss.max() - loss.min()) / 2 <= 0.05 * mid
