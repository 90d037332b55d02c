import itertools
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqdsim import device, evolve, protocol
from dqdsim.device import (
    DeviceGraph,
    Schedule,
    TunnelTerm,
    dqd_pair_links,
    energy_scale,
    hamiltonian_at,
    hamiltonian_terms,
    majorana_terms,
    schedule_value,
)
from dqdsim.errors import ConfigError, ConvergenceError, DeviceError, DimensionError
from dqdsim.evolve import (
    PropagatorConfig,
    _step_propagators,
    _sweep,
    adiabatic_ramp,
    cf4,
    evolve_scheduled,
    evolve_static,
    ground_state,
    midpoint,
    scheduled_propagator,
    step_grid,
    sweep_block,
)
from dqdsim.hilbert import StateVector, gaussian_state, tensor_product
from dqdsim.protocol import (
    Channel,
    InputQubit,
    ProtocolParams,
    Stages,
    build_channel,
    couple_unknown,
    coupler_graph,
    cross_to_aligned_ratio,
    entangled_pair_reference,
    ghz_covariance,
    make_entangled_pair,
    ramp_graph,
    resolve_coupling,
    support_crossing_gap,
    support_graph,
    teleport_end_to_end,
)
from references import (align_phase, dense_rotation_gate, majorana_covariance,
                        pairwise_grid_reference, random_covariance, random_gaussian_state,
                        step_grid_reference)


def single_dqd(w=1.0, phase=0.0):
    return DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(w), phase=phase),))


def pair_plateau(U, w=1.0):
    return DeviceGraph(
        dqds=(0, 1),
        tunnel_terms=(TunnelTerm(0, Schedule.constant(w)), TunnelTerm(1, Schedule.constant(w))),
        coulomb_links=dqd_pair_links(0, 1, Schedule.constant(U)),
    )


def entangling_ramp(U_max, T, w=1.0):
    return DeviceGraph(
        dqds=(0, 1),
        tunnel_terms=(TunnelTerm(0, Schedule.constant(w)), TunnelTerm(1, Schedule.constant(w))),
        coulomb_links=dqd_pair_links(0, 1, Schedule.smooth(0.0, U_max, 0.0, T)),
    )


def wobble_graph():
    """Non-commuting time dependence for convergence-order checks."""
    return DeviceGraph(
        dqds=(0, 1),
        tunnel_terms=(
            TunnelTerm(0, Schedule.constant(1.0)),
            TunnelTerm(1, Schedule.smooth(0.7, 1.5, 0.0, 2.0), phase=0.4),
        ),
        coulomb_links=dqd_pair_links(0, 1, Schedule.linear(0.0, 5.0, 0.0, 2.0)),
    )


class TestGroundState:
    def test_single_dqd(self):
        gs = ground_state(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert gs.energy == pytest.approx(-1.0)
        assert np.allclose(gs.state.amps, np.array([1, 1]) / np.sqrt(2))
        assert not gs.degenerate

    def test_pair_uncoupled(self):
        gs = ground_state(hamiltonian_at(pair_plateau(0.0), 0.0))
        assert gs.energy == pytest.approx(-2.0)
        assert np.allclose(gs.state.amps, np.full(4, 0.5))

    def test_pair_ratio_at_u3(self):
        # cross/aligned magnitude ratio at U = 3w is exactly 1/2
        gs = ground_state(hamiltonian_at(pair_plateau(3.0), 0.0))
        ratio = abs(gs.state.amps[1]) / abs(gs.state.amps[0])
        assert ratio == pytest.approx(0.5, abs=1e-12)
        assert ratio == pytest.approx(cross_to_aligned_ratio(3.0, 1.0), abs=1e-12)

    def test_degeneracy_flag(self):
        assert ground_state(np.zeros((2, 2))).degenerate

    def test_rejects_nonhermitian(self):
        for H in ([[0.0, 1.0], [2.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]]):  # NaN fails too
            with pytest.raises(DimensionError, match="Hermitian"):
                ground_state(np.array(H))

    def test_phase_fixing(self):
        gs = ground_state(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        j = np.argmax(np.abs(gs.state.amps))
        assert gs.state.amps[j].imag == pytest.approx(0.0)
        assert gs.state.amps[j].real > 0


class TestEvolveStatic:
    def test_tunneling_amplitudes(self):
        # amplitude on |1> after time t is i sin(wt) e^{-i p} for device phase p
        rng = np.random.default_rng(1)
        for _ in range(10):
            w, p, t = rng.uniform(0.5, 2), rng.uniform(-np.pi, np.pi), rng.uniform(0, 5)
            H = hamiltonian_at(single_dqd(w, p), 0.0)
            out = evolve_static(StateVector.computational(1, 0), H, t)
            assert abs(out.amps[0] - np.cos(w * t)) < 1e-12
            assert abs(out.amps[1] - 1j * np.sin(w * t) * np.exp(-1j * p)) < 1e-12

    def test_full_transfer(self):
        H = hamiltonian_at(single_dqd(), 0.0)
        out = evolve_static(StateVector.computational(1, 0), H, np.pi / 2)
        assert abs(out.amps[1] - 1j) < 1e-12

    def test_zero_hamiltonian(self):
        state = StateVector(np.array([0.6, 0.8j]))
        out = evolve_static(state, np.zeros((2, 2)), 3.0)
        assert np.allclose(out.amps, state.amps)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evolve_static(StateVector.computational(2, 0), np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("H", [[[0.0, 1.0], [0.0, 0.0]], [[0.0, np.nan], [np.nan, 0.0]]])
    def test_rejects_a_non_hermitian_or_nan_hamiltonian(self, H):
        # exp(-i H t) of [[0, 1], [0, 0]] would leave |0> as it is, a made-up "evolution"
        with pytest.raises(DimensionError, match="Hermitian"):
            evolve_static(StateVector.computational(1, 0), np.array(H), 1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (1, 2, 2), (0, 0)])
    @pytest.mark.parametrize("static", [False, True], ids=["ground_state", "evolve_static"])
    def test_rejects_what_is_no_non_empty_square_matrix(self, shape, static):
        H = np.zeros(shape)
        with pytest.raises(DimensionError, match="non-empty square"):
            evolve_static(StateVector.computational(1, 0), H, 1.0) if static else ground_state(H)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_duration_that_is_not_finite(self, bad):
        H = hamiltonian_at(single_dqd(), 0.0)
        with pytest.raises(DimensionError, match="not finite"):
            evolve_static(StateVector.computational(1, 0), H, bad)

    def test_matches_the_eigendecomposition(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        H = 5 * (A + A.conj().T)
        state = StateVector.computational(3, 5)
        lam, V = np.linalg.eigh(H)
        expected = V @ (np.exp(-1.7j * lam) * V[5].conj())
        assert np.max(np.abs(evolve_static(state, H, 1.7).amps - expected)) <= 1e-12


class TestEvolveScheduled:
    def test_static_limit_matches_exact(self):
        g = pair_plateau(4.0)
        state = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        exact = evolve_static(state, hamiltonian_at(g, 0.0), 3.0)
        stepped = evolve_scheduled(state, g, 0.0, 3.0, PropagatorConfig(dt=0.01))
        assert np.linalg.norm(stepped.amps - exact.amps) < 1e-10

    def test_norm_preserved(self):
        g = wobble_graph()
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        out = evolve_scheduled(state, g, 0.0, 2.0, PropagatorConfig(dt=0.02))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_energy_constant_on_static_segment(self):
        g = pair_plateau(4.0)
        H = hamiltonian_at(g, 0.0)
        state = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        e0 = np.vdot(state.amps, H @ state.amps).real
        out = evolve_scheduled(state, g, 0.0, 5.0, PropagatorConfig(dt=0.02))
        e1 = np.vdot(out.amps, H @ out.amps).real
        assert abs(e1 - e0) < 1e-10

    @staticmethod
    def convergence_ratio(sweep):
        """Error at dt = 0.04 over error at dt = 0.02 of sweep(psi, g, dt) on the wobble device."""
        g = wobble_graph()
        psi = np.array([1, 0, 0, 0], dtype=complex)
        ref = sweep(psi, g, 0.04 / 16)
        return (np.linalg.norm(sweep(psi, g, 0.04) - ref)
                / np.linalg.norm(sweep(psi, g, 0.02) - ref))

    def test_second_order_convergence(self):
        def reference_rule(psi, g, dt):  # midpoint: one exponential per step of dt
            H0, terms = hamiltonian_terms(g)
            edges = np.linspace(0.0, 2.0, round(2.0 / dt) + 1)
            return _sweep(psi, H0, terms, *midpoint(terms, edges))
        assert 3.5 <= self.convergence_ratio(reference_rule) <= 4.5

    def test_fourth_order_convergence(self):
        def cf4_sweep(psi, g, dt):
            return sweep_block(psi, g, 0.0, 2.0, PropagatorConfig(dt=dt))
        assert 14 <= self.convergence_ratio(cf4_sweep) <= 18

    def test_richardson_flags_coarse_step(self):
        g = wobble_graph()
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ConvergenceError):
            evolve_scheduled(state, g, 0.0, 2.0,
                             PropagatorConfig(dt=0.5, richardson_check=True, tolerance=1e-12))

    def test_richardson_checks_the_propagator_path_too(self):
        with pytest.raises(ConvergenceError):
            scheduled_propagator(wobble_graph(), 0.0, 2.0,
                                 PropagatorConfig(dt=0.5, richardson_check=True, tolerance=1e-12))

    def test_richardson_accepts_fine_step(self):
        g = wobble_graph()
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        out = evolve_scheduled(state, g, 0.0, 2.0,
                               PropagatorConfig(dt=0.005, richardson_check=True, tolerance=1e-4))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_reversed_window_rejected(self):
        g = pair_plateau(1.0)
        with pytest.raises(DimensionError):
            evolve_scheduled(StateVector.computational(2, 0), g, 1.0, 0.5)

    def test_propagator_matches_state_path(self):
        g = wobble_graph()
        state = StateVector(np.array([0, 1, 0, 0], dtype=complex))
        cfg = PropagatorConfig(dt=0.01)
        U = scheduled_propagator(g, 0.0, 2.0, cfg)
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12
        direct = evolve_scheduled(state, g, 0.0, 2.0, cfg)
        assert np.linalg.norm(U @ state.amps - direct.amps) < 1e-12


class TestAdiabaticRamp:
    def test_entangling_ramp_diagnostics(self):
        g = entangling_ramp(100.0, 200.0)
        start = ground_state(hamiltonian_at(g, 0.0)).state
        _, diag = adiabatic_ramp(majorana_covariance(start.amps), g, 0.0, 200.0,
                                 PropagatorConfig(dt=5e-3))
        # gap shrinks monotonically from 2w at the separable end to ~4w^2/U
        assert diag.gaps[0] == pytest.approx(2.0, abs=1e-9)
        expected_min = (np.hypot(100.0, 4.0) - 100.0) / 2.0
        assert diag.min_gap == pytest.approx(expected_min, rel=1e-6)
        assert diag.initial_ground_overlap_sq == pytest.approx(1.0, abs=1e-12)
        assert diag.final_ground_overlap_sq > 0.99

    def test_a_one_site_ramp_has_no_gap_within_its_sector(self):
        # one DQD: its parity sectors hold one state each
        g = DeviceGraph(dqds=(0,),
                        tunnel_terms=(TunnelTerm(0, Schedule.linear(1.0, 2.0, 0.0, 1.0)),))
        _, diag = adiabatic_ramp(plus_covariance(1), g, 0.0, 1.0, PropagatorConfig(dt=0.1))
        assert diag.min_gap == pytest.approx(2.0) and diag.min_sector_gap == np.inf

    def test_zero_duration_is_identity(self):
        g = entangling_ramp(50.0, 100.0)
        start = ground_state(hamiltonian_at(g, 0.0)).state
        final, _ = adiabatic_ramp(majorana_covariance(start.amps), g, 0.0, 1e-9,
                                  PropagatorConfig(dt=1e-10))
        assert np.linalg.norm(gaussian_state(final) - start.amps) < 1e-8

    def test_warns_off_ground_start(self):
        g = entangling_ramp(50.0, 100.0)
        excited = StateVector(np.array([0.5, -0.5, -0.5, 0.5], dtype=complex))  # |->|->, Gaussian
        with pytest.warns(UserWarning, match="overlap"):
            adiabatic_ramp(majorana_covariance(excited.amps), g, 0.0, 0.5,
                           PropagatorConfig(dt=0.01))


def plus_covariance(n):
    """The Majorana covariance of |+>^n: i<a_k b_k> = <X_k> = 1."""
    return np.kron([[0, 1], [-1, 0]], np.eye(n))


class TestCovarianceSweep:
    """sweep_majorana and adiabatic_ramp take and return Majorana covariances."""

    def test_a_40_site_ramp_holds_no_state_vector(self):
        # a 2^40 state would take 16 TiB; the density matches the Kibble-Zurek prototype's
        n, T = 40, 10.0
        g = support_graph(ProtocolParams(U_max=10.0), n, Schedule.smooth(0.0, 10.0, 0.0, T))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            gamma, _ = adiabatic_ramp(plus_covariance(n), g, 0.0, T)
            elapsed, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K0, terms = majorana_terms(g)
        U, _, Vt = np.linalg.svd(K0 + sum(schedule_value(s, T) * K for s, K in terms))
        W = U @ Vt
        ground = np.block([[np.zeros_like(W), -W], [W.T, np.zeros_like(W)]])
        assert np.linalg.norm(gamma @ gamma.T - np.eye(2 * n)) <= 1e-13
        assert peak < 32 * 2**20
        assert abs((2 * n + np.trace(ground @ gamma)) / (4 * n) - 8.89e-2) <= 1e-3
        assert elapsed < 10.0

    @pytest.mark.parametrize("U, n, T", [(100.0, 2, 200.0), (100.0, 6, 300.0)],
                             ids=["default pair", "n6"])
    def test_the_swept_covariance_is_pure(self, U, n, T):
        # the raw O gamma O^T drifts from Gamma Gamma^T = I by ~1e-12 on both
        params = ProtocolParams(U_max=U)
        g = support_graph(params, n, Schedule.smooth(0.0, U, 0.0, T))
        gamma, _ = adiabatic_ramp(plus_covariance(n), g, 0.0, T, params.integrator)
        assert np.linalg.norm(gamma @ gamma.T - np.eye(2 * n)) <= 1e-14

    def test_richardson_bounds_the_state_deviation(self, monkeypatch):
        # ||dGamma||_F / 4 between the grid and its halving is the phase-aligned state change
        params = ProtocolParams()
        t_couple, gap, *_ = resolve_coupling(params, 2)
        g = coupler_graph(params, 2, t_couple, gap)
        plus = StateVector(np.full(2, np.sqrt(0.5), dtype=complex))
        start = tensor_product(plus, entangled_pair_reference(params.U_max, params.w)).amps
        pairs, graded = [], evolve._graded

        def spy(*args):  # the deviation comes last
            def record(a, b):
                pairs.append((a, b))
                return args[-1](a, b)
            return graded(*args[:-1], record)

        monkeypatch.setattr(evolve, "_graded", spy)
        cfg = PropagatorConfig(dt=0.5, richardson_check=True, tolerance=1.0)
        evolve.sweep_majorana(majorana_covariance(start), g, 0.0, t_couple, cfg)
        (gamma, gamma_half), = pairs
        psi, psi_half = gaussian_state(gamma), gaussian_state(gamma_half)
        state_dev = np.linalg.norm(align_phase(psi_half, psi) - psi)
        assert np.linalg.norm(gamma - gamma_half) / 4 == pytest.approx(state_dev, rel=0.01)


def coupling_tail_graph():
    """The pair's coupler: the tangent ramp's last 0.02/w carries U' from ~3w to 100w."""
    return DeviceGraph(
        dqds=(0, 1, 2),
        tunnel_terms=[TunnelTerm(k, Schedule.constant(1.0)) for k in (1, 2)],
        coulomb_links=dqd_pair_links(1, 2, Schedule.constant(100.0))
        + dqd_pair_links(0, 1, Schedule.tangent(0.0, 100.0, 0.0, 200.0, gap_scale=0.02)),
    )


def grid_checks(g, edges, h):
    """step_grid's tests, recomputed from g's schedules for a grid of coarse step h: per
    interval, whether it passes the local-error proxy (at the window's bound on ||H||) and
    the phase rule (at the interval's own: the weighted larger end value of each monotone
    schedule, summed in step_grid's order); per pair of intervals 2k, 2k + 1, whether the
    grid would merge it (at the auto step or coarser, when the union passes both tests and
    its halves move alike).  A relative 1e-9 absorbs the grid's own rounding of the moves."""
    driven = [(t.amplitude, 1.0) for t in g.tunnel_terms]
    driven += [(link.strength, 0.5) for link in g.coulomb_links]
    scale, h_auto = energy_scale(g), 2 * PropagatorConfig().resolve_dt(g)
    tol = evolve.GRID_TOL * h / h_auto

    def moved(edges):
        return sum(w * np.abs(np.diff(schedule_value(s, edges))) for s, w in driven)

    def local_norm(edges):  # the constant terms' share first, as step_grid sums it
        held = sum(w * abs(s.v_start) for s, w in driven if s.is_constant)
        ends = [(np.abs(schedule_value(s, edges)), w) for s, w in driven if not s.is_constant]
        return sum((w * np.maximum(f[:-1], f[1:]) for f, w in ends), held)

    def passes(edges, slack):
        span = np.diff(edges)
        dh = span * moved(edges)
        return ((dh * np.maximum(1.0, span * scale) <= tol * slack)
                & ((dh <= evolve.STILL * slack) | (span * local_norm(edges) <= evolve.MAX_PHASE)))

    halves, span = moved(edges), np.diff(edges[::2])
    bend = span * np.abs(halves[1::2] - halves[0:-1:2]) * np.maximum(1.0, span * scale)
    merged = passes(edges[::2], 1 - 1e-9) & (bend <= evolve.STILL * (1 - 1e-9)) & (h >= h_auto)
    return passes(edges, 1 + 1e-9), merged


class TestStepGrid:
    def test_static_window_is_one_exponential(self):
        # 100k steps of dt = 0.005 drifted the norm by 1.5e-12 here
        g = pair_plateau(100.0)
        assert step_grid(g, 0.0, 500.0, 0.01) is None
        state = StateVector(np.array([0.6, 0.0, 0.8j, 0.0]))
        out = evolve_scheduled(state, g, 0.0, 500.0, PropagatorConfig(dt=0.005))
        assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-13
        exact = evolve_static(state, hamiltonian_at(g, 0.0), 500.0)
        assert np.linalg.norm(out.amps - exact.amps) <= 1e-10

    def test_still_stretch_is_merged(self):
        # the wobble device stops moving at t = 2
        edges = step_grid(wobble_graph(), 0.0, 4.0, 0.01)
        assert np.all(np.diff(edges[:-1]) <= 0.01 + 1e-15)
        assert 2.0 <= edges[-2] <= 2.01 and edges[-1] == 4.0

    def test_coupling_tail_is_refined(self):
        g = coupling_tail_graph()
        dt = PropagatorConfig().resolve_dt(g)
        edges = step_grid(g, 0.0, 200.0, 2 * dt)
        h = np.diff(edges)
        passed, merged = grid_checks(g, edges, 2 * dt)
        assert passed.all() and not merged.any()
        assert np.max(h) > 2 * dt  # the barely moving bulk is merged past the coarse step
        assert np.min(h[edges[1:] > 199.98]) < np.max(h) / 8  # refined tail

    def test_smooth_ramp_ends_are_not_merged(self):
        # the smooth ramp's rate grows from 0 at its ends: merging the coarse steps there
        # raised the pair's entangle error from 1.2e-7 to 2.1e-7, so halves must move alike
        g = entangling_ramp(100.0, 200.0)
        dt = PropagatorConfig().resolve_dt(g)
        assert np.max(np.diff(step_grid(g, 0.0, 200.0, 2 * dt))) == pytest.approx(2 * dt)

    def test_a_dt_below_the_auto_step_is_not_merged(self):
        # a merged step does not shrink like 2 dt: merged, the pair's entangle ramp at
        # dt = 0.01 erred by 3e-8 against 7e-12 unmerged, so a finer dt keeps steps <= 2 dt
        g = coupling_tail_graph()
        dt = PropagatorConfig().resolve_dt(g) / 2
        assert np.max(np.diff(step_grid(g, 0.0, 200.0, 2 * dt))) == pytest.approx(2 * dt)

    def test_smaller_dt_converges_the_graded_tail(self):
        # the grid's threshold shrinks with dt, so dt / 2 refines the graded
        # tail too (with a fixed threshold the tail's error stayed put)
        g = coupling_tail_graph()
        dt = PropagatorConfig().resolve_dt(g)
        psi = np.eye(8, dtype=complex)[:, :2]

        def sweep(dt):
            return sweep_block(psi, g, 199.0, 200.0, PropagatorConfig(dt=dt))
        ref = sweep(dt / 16)
        assert np.linalg.norm(sweep(dt / 2) - ref) <= np.linalg.norm(sweep(dt) - ref) / 2

    def test_refuses_a_grid_past_the_cap(self, monkeypatch):
        g = DeviceGraph(dqds=(0,),
                        tunnel_terms=(TunnelTerm(0, Schedule.linear(0.0, 1e3, 0.0, 1.0)),))
        assert len(step_grid(g, 0.0, 1.0, 1.0)) - 1 > 8  # one coarse interval, refined
        with pytest.raises(ConfigError, match="step grid"):
            step_grid(g, 0.0, 1.0, 1e-320)  # a coarse count that is not finite
        monkeypatch.setattr(evolve, "MAX_INTERVALS", 8)
        for h in (1.0, 0.1):  # refined past the cap; coarse past it
            with pytest.raises(ConfigError, match="more than 8"):
                step_grid(g, 0.0, 1.0, h)

    def test_richardson_flags_a_coarse_refined_grid(self):
        with pytest.raises(ConvergenceError, match="decrease dt"):
            sweep_block(np.eye(4), wobble_graph(), 0.0, 2.0,
                        PropagatorConfig(dt=0.5, richardson_check=True, tolerance=1e-12))


def ramp(kind, v0, v1, t1, gap):
    if kind == "tangent":
        return Schedule.tangent(v0, v1, 0.0, t1, gap_scale=gap)
    return {"linear": Schedule.linear, "smooth": Schedule.smooth}[kind](v0, v1, 0.0, t1)


ramps = st.tuples(st.sampled_from(["linear", "smooth", "tangent"]), st.floats(0.0, 30.0),
                  st.floats(0.0, 30.0), st.floats(0.1, 4.0), st.floats(0.01, 2.0))
dts = st.floats(0.005, 0.5)


def schedule(kind, v0, v1, t1, gap):
    return Schedule.constant(v0) if kind == "constant" else ramp(kind, v0, v1, t1, gap)


def schedules(lo, hi):
    kinds = st.sampled_from(["constant", "linear", "smooth", "tangent"])
    return st.tuples(kinds, st.floats(lo, hi), st.floats(lo, hi), st.floats(0.1, 4.0),
                     st.floats(0.01, 2.0))


class TestRampOnIsingChains:
    """adiabatic_ramp's Majorana sweep and K(t) diagnostics against the dense register.

    Tunneling stays in [0.5, 2] and links in [0, 3], so the ground gap stays above
    ~0.02 and the dense ground state is resolved far below the 1e-12 compared."""

    @pytest.mark.filterwarnings("ignore:initial ground-state overlap")
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), data=st.data(), dt=dts, seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_sweep_and_spectrum(self, n, data, dt, seed):
        tunnels = [TunnelTerm(k, schedule(*data.draw(schedules(0.5, 2.0)))) for k in range(n)]
        links = [dqd_pair_links(k, k + 1, schedule(*data.draw(schedules(0.0, 3.0))))
                 for k in range(n - 1)]
        g = DeviceGraph(range(n), tunnels, [link for pair in links for link in pair])
        t1 = data.draw(st.floats(0.1, 4.0))
        cfg = PropagatorConfig(dt=dt)
        start = random_gaussian_state(np.random.default_rng(seed), n)
        gamma, diag = adiabatic_ramp(majorana_covariance(start.amps), g, 0.0, t1, cfg)
        final = gaussian_state(gamma)
        expected = scheduled_propagator(g, 0.0, t1, cfg) @ start.amps
        assert np.linalg.norm(align_phase(final, expected) - expected) <= 1e-12
        gaps = [np.diff(np.linalg.eigvalsh(hamiltonian_at(g, t))[:2])[0] for t in diag.gap_times]
        assert np.max(np.abs(diag.gaps - gaps)) <= 1e-12
        # the flip sectors, bases (|x> +- |~x>) / sqrt 2 with ~x = 2^n - 1 - x: the sector gap
        # is E1 - E0 in the one that holds the ground state
        eye = np.eye(2**n)
        sectors = [(eye + sign * eye[:, ::-1])[:, :2 ** (n - 1)] / np.sqrt(2) for sign in (1, -1)]
        levels = [[np.linalg.eigvalsh(P.T @ hamiltonian_at(g, t) @ P)[:2] for P in sectors]
                  for t in diag.gap_times]
        sector_gaps = [np.diff(min(pair, key=lambda e: e[0]))[0] for pair in levels]
        assert np.max(np.abs(diag.sector_gaps - sector_gaps)) <= 1e-12
        assert diag.min_sector_gap == np.min(diag.sector_gaps)
        for t, amps, overlap in ((0.0, start.amps, diag.initial_ground_overlap_sq),
                                 (t1, final, diag.final_ground_overlap_sq)):
            gs = ground_state(hamiltonian_at(g, t)).state.amps
            assert abs(overlap - abs(np.vdot(gs, amps)) ** 2) <= 1e-12


class TestGridProperties:
    """Random devices and steps: the sweep is unitary, and it keeps every invariant
    block and flip sector of the whole register."""

    @staticmethod
    def random_device(n, data):
        tunnel = [TunnelTerm(k, ramp(*data.draw(ramps)) if data.draw(st.booleans())
                             else Schedule.constant(data.draw(st.floats(0.0, 2.0))),
                             phase=data.draw(st.floats(-np.pi, np.pi)))
                  for k in range(n)]
        links = []
        for k in range(n - 1):
            links += dqd_pair_links(k, k + 1, ramp(*data.draw(ramps)))
        return DeviceGraph(dqds=range(n), tunnel_terms=tunnel, coulomb_links=links)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), data=st.data(), dt=dts, t1=st.floats(0.1, 4.0))
    def test_propagator_is_unitary(self, n, data, dt, t1):
        U = scheduled_propagator(self.random_device(n, data), 0.0, t1, PropagatorConfig(dt=dt))
        assert np.max(np.abs(U.conj().T @ U - np.eye(2**n))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), data=st.data(), dt=dts, t1=st.floats(0.1, 4.0))
    def test_one_matrix_chunks_sweep_to_the_default_result(self, n, data, dt, t1):
        g, cfg = self.random_device(n, data), PropagatorConfig(dt=dt)
        U = scheduled_propagator(g, 0.0, t1, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve, "_CHUNK_BYTES", 1)
            assert np.max(np.abs(scheduled_propagator(g, 0.0, t1, cfg) - U)) <= 1e-12

    @staticmethod
    def ramped_coupler(support, couple, w):
        """A frozen encoder (qubit 0) linked to a support pair."""
        return DeviceGraph(
            dqds=(0, 1, 2),
            tunnel_terms=[TunnelTerm(k, Schedule.constant(w)) for k in (1, 2)],
            coulomb_links=dqd_pair_links(1, 2, ramp(*support))
            + dqd_pair_links(0, 1, ramp(*couple)),
        )

    @settings(max_examples=60, deadline=None)
    @given(support=ramps, couple=ramps, w=st.floats(0.2, 2.0), dt=dts)
    @example(support=("linear", 0.0, 0.0, 1.0, 1.0), couple=("linear", 0.0, 5e-324, 1.0, 1.0),
             w=1.0, dt=0.5)  # the coupling moves, by a weighted change 0.5 * 5e-324 that is 0
    def test_grid_covers_the_window_and_every_interval_passes(self, support, couple, w, dt):
        g, t1 = self.ramped_coupler(support, couple, w), max(support[3], couple[3])
        edges = step_grid(g, 0.0, t1, 2 * dt)
        if edges is None:  # only when nothing moves
            assert all(s.is_constant for s in (ramp(*support), ramp(*couple)))
            return
        assert edges[0] == 0.0 and edges[-1] == t1 and np.all(np.diff(edges) > 0)
        passed, merged = grid_checks(g, edges, 2 * dt)
        assert passed.all() and not merged.any()

    @settings(max_examples=60, deadline=None)
    @given(support=ramps, couple=ramps, w=st.floats(0.2, 2.0),
           ratio=st.one_of(st.just(1.0), st.floats(0.3, 3.0)))
    @example(support=("smooth", 0.0, 20.0, 2.0, 1.0), couple=("tangent", 0.0, 30.0, 4.0, 0.05),
             w=1.0, ratio=0.5)
    def test_grid_is_the_multi_pass_reference_bit_for_bit(self, support, couple, w, ratio):
        # dt / auto dt = ratio: merging is on from ratio 1 up and off below it
        g, t1 = self.ramped_coupler(support, couple, w), max(support[3], couple[3])
        h = 2 * ratio * PropagatorConfig().resolve_dt(g)
        edges, ref = step_grid(g, 0.0, t1, h), step_grid_reference(g, 0.0, t1, h)
        assert edges is ref is None or np.array_equal(edges, ref)

    @settings(max_examples=30, deadline=None)
    @given(support=ramps, couple=ramps, w=st.floats(0.2, 2.0), dt=dts, seed=st.integers(0, 99))
    def test_coupler_keeps_the_encoder_bit_and_flip_sectors_match_the_full_sweep(
            self, support, couple, w, dt, seed):
        t1 = max(support[3], couple[3])
        cfg = PropagatorConfig(dt=dt)
        rng = np.random.default_rng(seed)
        coupler = self.ramped_coupler(support, couple, w)
        S = rng.normal(size=4) + 1j * rng.normal(size=4)
        S = S + S[::-1]
        S /= np.linalg.norm(S)
        full = np.zeros(8, dtype=complex)
        full[0::2] = S
        assert np.max(np.abs(sweep_block(full, coupler, 0.0, t1, cfg)[1::2])) <= 1e-12
        # the whole sweep keeps the flip-even |+> x S, and the support pair alone keeps S,
        # flip-even: the global flip X^n is the Majorana parity, which the chains conserve
        pair = DeviceGraph(dqds=(0, 1), tunnel_terms=[TunnelTerm(k, Schedule.constant(w))
                                                      for k in (0, 1)],
                           coulomb_links=dqd_pair_links(0, 1, ramp(*support)))
        plus = StateVector(np.full(2, np.sqrt(0.5), dtype=complex))
        for g, state in ((coupler, tensor_product(plus, StateVector(S))), (pair, StateVector(S))):
            whole = evolve_scheduled(state, g, 0.0, t1, cfg).amps
            assert np.max(np.abs(whole[::-1] - whole)) <= 1e-12


WORKLOAD_GRIDS = ("pair ramp", "pair coupler", "chain4 GHZ ramp", "chain4 coupler")


def workload_grid(name):
    """(device, t1, coarse step 2 dt) of one of the benchmark's graded sweeps over [0, t1]: the
    default pair's entangling ramp (on ``ramp_support``'s tangent of gap scale 2w) and coupler,
    and the 4-DQD chain's GHZ ramp (a smoothstep) and coupler at U = 15w, U' = 100w,
    T_ghz = 45/w and dt = 0.2."""
    chain = name.startswith("chain4")
    params = (ProtocolParams(U_max=15.0, Uprime_max=100.0, integrator=PropagatorConfig(dt=0.2))
              if chain else ProtocolParams())
    n = 4 if chain else 2
    if name.endswith("coupler"):
        t1, gap, *_ = resolve_coupling(params, n)
        g = coupler_graph(params, n, t1, gap)
    elif chain:
        t1 = 45.0
        g = support_graph(params, n, Schedule.smooth(0.0, params.U_max, 0.0, t1))
    else:
        t1 = params.support_ramp()[0]
        g = support_graph(params, n, Schedule.tangent(0.0, params.U_max, 0.0, t1,
                                                      gap_scale=2.0 * params.w))
    return g, t1, 2 * params.integrator.resolve_dt(g)


def pair_grid(stage, U):
    """(device, t1, coarse step 2 dt) of the default pair's support ramp or coupler at
    U_max = U' = U."""
    params = ProtocolParams(U_max=U)
    if stage == "coupler":
        t1, gap, *_ = resolve_coupling(params, 2)
        g = coupler_graph(params, 2, t1, gap)
    else:
        t1 = params.support_ramp()[0]
        g = ramp_graph(params, 2, t1)
    return g, t1, 2 * params.integrator.resolve_dt(g)


def counting(monkeypatch):
    """The number of times each call to ``device.schedule_value`` evaluates, from now on."""
    points = []

    def spy(s, t):
        points.append(np.size(t))
        return schedule_value(s, t)
    monkeypatch.setattr(device, "schedule_value", spy)
    return points


class TestGridCost:
    @pytest.mark.parametrize("name", WORKLOAD_GRIDS)
    def test_workload_grids_are_the_multi_pass_reference_bit_for_bit(self, name):
        g, t1, h = workload_grid(name)
        assert np.array_equal(step_grid(g, 0.0, t1, h), step_grid_reference(g, 0.0, t1, h))

    @pytest.mark.parametrize("case", [pytest.param(lambda n=name: workload_grid(n), id=name)
                                      for name in WORKLOAD_GRIDS] + [
        pytest.param(lambda s=stage, U=U: pair_grid(s, U), id=f"pair {stage} at {U:g}w")
        for stage in ("ramp", "coupler") for U in (10.0, 25.0, 50.0, 200.0, 400.0, 800.0)])
    def test_grids_are_the_pairwise_rule_s(self, case):
        # the blocks laid top-down give the grids that merging every coarse interval pairwise,
        # pass after pass, gave (the workloads' pair is at U = 100w)
        g, t1, h = case()
        assert np.array_equal(step_grid(g, 0.0, t1, h), pairwise_grid_reference(g, 0.0, t1, h))

    def test_the_coupler_s_evaluations_follow_its_kept_intervals(self, monkeypatch):
        # at 400w the coupler's 80 203 coarse intervals merge to 1 338: laying every one of them
        # evaluated its schedule at all 80 204 coarse edges
        g, t1, h = pair_grid("coupler", 400.0)
        points = counting(monkeypatch)
        kept = len(step_grid(g, 0.0, t1, h)) - 1
        assert sum(points) <= 3 * kept

    @pytest.mark.parametrize("top_levels", [0, 1, 30])
    def test_the_batch_of_top_levels_leaves_the_grid(self, top_levels, monkeypatch):
        # 0 tests every level one by one from the root, 30 evaluates every coarse edge at once
        tail = coupling_tail_graph()
        cases = [workload_grid(name) for name in WORKLOAD_GRIDS] + [pair_grid("coupler", 800.0)]
        cases.append((tail, 200.0, 2 * PropagatorConfig().resolve_dt(tail)))
        grids = [step_grid(g, 0.0, t1, h) for g, t1, h in cases]
        monkeypatch.setattr(evolve, "_TOP_LEVELS", top_levels)
        for (g, t1, h), edges in zip(cases, grids):
            assert np.array_equal(step_grid(g, 0.0, t1, h), edges)

    @pytest.mark.parametrize("name", WORKLOAD_GRIDS)
    def test_each_schedule_is_evaluated_once_per_created_edge(self, name, monkeypatch):
        # the multi-pass grid evaluated every driven term on every edge in every pass: the
        # pair coupler's two links on ~5000 edges in each of about a dozen passes
        g, t1, h = workload_grid(name)
        created = len(step_grid_reference(g, 0.0, t1, h, refined_only=True))
        driven = {s for s in [t.amplitude for t in g.tunnel_terms]
                  + [link.strength for link in g.coulomb_links] if not s.is_constant}
        points = counting(monkeypatch)
        step_grid(g, 0.0, t1, h)
        assert sum(points) <= len(driven) * (created + 2)

    def test_the_pair_ramp_takes_each_interval_s_own_phase_bound(self, monkeypatch):
        # the tangent ramp spends most of its 60/w below U = 10w, where ||H(t)|| is a tenth of
        # the window's U_max + 2w: held to a phase of 5 at the window's bound, its entangle
        # sweep took 1599 intervals, 3198 rotations
        g, t1, h = workload_grid("pair ramp")
        edges = step_grid(g, 0.0, t1, h)
        passed, merged = grid_checks(g, edges, h)
        assert passed.all() and not merged.any()
        span = np.diff(edges)
        moved = sum(0.5 * np.abs(np.diff(schedule_value(link.strength, edges)))
                    for link in g.coulomb_links)
        assert np.any((span * moved > evolve.STILL) & (span * energy_scale(g) > evolve.MAX_PHASE))
        batches, original = [], evolve._rotations

        def spy(Ks, h):
            batches.append(len(Ks))
            return original(Ks, h)
        monkeypatch.setattr(evolve, "_rotations", spy)
        make_entangled_pair(ProtocolParams())
        assert sum(batches) == 2 * (len(edges) - 1) <= 1700

    @pytest.mark.parametrize("compile_terms", [hamiltonian_terms, majorana_terms])
    def test_values_evaluates_each_distinct_schedule_once(self, compile_terms, monkeypatch):
        _, terms = compile_terms(workload_grid("chain4 GHZ ramp")[0])  # six links, one ramp
        ts = np.linspace(0.0, 45.0, 7)
        points = counting(monkeypatch)
        F = evolve._values(terms, ts)
        assert len(terms) == 6 and len(points) == 1
        assert np.array_equal(F, np.transpose([schedule_value(s, ts) for s, _ in terms]))


def channel_outputs(channel):
    """Every output of a channel, as text that differs when any bit of a value does: its arrays'
    bytes, its mean fidelity and, for five inputs, each result, branch and step log."""
    rng, out = np.random.default_rng(34), [channel._post.tobytes(), channel._coupled.tobytes()]
    for q in [InputQubit.random(rng) for _ in range(5)]:
        res = channel.teleport(q)
        out.append(repr((res.outcome, res.p0, res.p1, res.fidelity_to_input,
                         {k: dict(v) for k, v in res.step_log.items()})))
        out += [repr((b.outcome, b.probability, b.fidelity)) + b.bob_state_raw.amps.tobytes().hex()
                + b.bob_state_corrected.amps.tobytes().hex() for b in res.branches]
    return out + [repr(channel.mean_fidelity())]


def laying(monkeypatch):
    """The devices of the Majorana plans laid from now on (a memo hit lays none)."""
    laid, lay = [], evolve._lay

    def spy(g, t0, t1, cfg, compile_):
        if compile_ is majorana_terms:
            laid.append(g)
        return lay(g, t0, t1, cfg, compile_)
    monkeypatch.setattr(evolve, "_lay", spy)
    return laid


def ramp_plan(T):
    """The plan of the pair's support ramp over T at U = 100w."""
    params = ProtocolParams()
    return evolve.sweep_plan(ramp_graph(params, 2, T), 0.0, T, params.integrator)


class TestSweepPlans:
    """evolve.sweep_plan memoises what a Majorana sweep steps on and its rotation O, which
    depends on the device and window alone: never anything computed from a swept covariance."""

    def test_each_test_starts_with_no_plan(self):
        assert evolve._PLANS == {}

    @pytest.mark.parametrize("params", [
        ProtocolParams(), ProtocolParams(n_support=4, U_max=15.0, Uprime_max=100.0, T_ent=45.0,
                                         integrator=PropagatorConfig(dt=0.2))],
        ids=["pair", "n_support=4"])
    def test_a_warm_build_is_the_cold_one_bit_for_bit(self, params, monkeypatch):
        laid = laying(monkeypatch)
        cold = channel_outputs(build_channel(params))
        assert len(laid) == 2  # the support's ramp and the coupler
        warm = channel_outputs(build_channel(params))
        assert len(laid) == 2 and warm == cold

    def test_plan_arrays_are_read_only(self):
        plan = ramp_plan(8.0)
        K0, terms = plan.compiled
        assert isinstance(terms, tuple) and len(terms) == 2  # the crossed link pair
        for a in [K0, *(K for _, K in terms), plan.edges, plan.F, plan.hs]:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert ramp_plan(8.0) is plan  # the memo's, served again

    def test_a_static_window_plans_one_step(self):
        g = single_dqd()
        plan = evolve.sweep_plan(g, 0.0, 3.0, PropagatorConfig())
        assert plan.edges is None and len(plan.hs) == 1 and plan.hs[0] == 3.0

    def test_the_memo_keeps_within_its_bounds(self, monkeypatch):
        entries = evolve._PLAN_ENTRIES
        plans = [ramp_plan(8.0 + k / 8) for k in range(entries + 5)]
        assert len(evolve._PLANS) == entries
        assert sum(n for _, n in evolve._PLANS.values()) <= evolve._PLAN_BYTES
        laid = laying(monkeypatch)
        assert ramp_plan(8.0 + (entries + 4) / 8) is plans[-1] and laid == []  # kept
        ramp_plan(8.0)  # the least recently used was dropped first
        assert len(laid) == 1
        # bounded in bytes: the memo drops its oldest plans, and a plan larger than the bound
        # is used but not kept, so it does not empty the memo
        bound = 2 * max(n for _, n in evolve._PLANS.values())
        monkeypatch.setattr(evolve, "_PLAN_BYTES", bound)
        ramp_plan(7.5)  # a hit keeps the memo as it is; the bounds are checked on insert
        assert 1 <= len(evolve._PLANS) <= 2
        assert sum(n for _, n in evolve._PLANS.values()) <= bound
        kept = dict(evolve._PLANS)
        large = ramp_plan(160.0)  # a longer ramp, on more intervals
        assert large.F.nbytes + large.hs.nbytes + large.edges.nbytes > bound
        assert evolve._PLANS == kept and ramp_plan(160.0) is not large

    def test_each_window_and_step_has_its_own_plan(self):
        params = ProtocolParams()
        T = params.resolved_T_ent()
        g = ramp_graph(params, 2, T)
        plans = [evolve.sweep_plan(g, 0.0, t1, PropagatorConfig(dt=dt))
                 for t1, dt in ((T, None), (T, 0.05), (T / 2, None))]
        assert len({id(p) for p in plans}) == 3 and len(evolve._PLANS) == 3
        for plan, t1 in zip(plans, (T, T, T / 2)):
            assert np.array_equal(plan.edges, step_grid(g, 0.0, t1, 2 * plan.dt))
        # an explicit dt equal to the auto one resolves to the same plan
        assert evolve.sweep_plan(g, 0.0, T, PropagatorConfig(dt=plans[0].dt)) is plans[0]

    @pytest.mark.parametrize("name, value", [("GRID_TOL", 0.003), ("STILL", 1e-6),
                                             ("MAX_PHASE", 1.0), ("_TOP_LEVELS", 0),
                                             ("_CHUNK_BYTES", 2**12)])
    def test_a_patched_grid_constant_lays_a_fresh_plan(self, name, value, monkeypatch):
        params = ProtocolParams()
        t_couple, gap, *_ = resolve_coupling(params, 2)
        g = coupler_graph(params, 2, t_couple, gap)
        plan = evolve.sweep_plan(g, 0.0, t_couple, params.integrator)
        monkeypatch.setattr(evolve, name, value)
        fresh = evolve.sweep_plan(g, 0.0, t_couple, params.integrator)
        assert fresh is not plan
        assert np.array_equal(fresh.edges, step_grid(g, 0.0, t_couple, 2 * plan.dt))
        monkeypatch.setattr(evolve, "MAX_INTERVALS", len(plan.edges) - 2)
        with pytest.raises(ConfigError, match="step grid"):  # the cap holds for a memoised plan
            evolve.sweep_plan(g, 0.0, t_couple, params.integrator)


PLUS2 = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))  # |+>^2's covariance: <X_k> = 1


class TestMemoHoldsNoInput:
    """A memoised plan or ramp spectrum serves any input as a fresh one would."""

    def test_one_plan_sweeps_each_covariance_as_an_unmemoised_sweep(self):
        params = ProtocolParams()
        t_couple, gap, *_ = resolve_coupling(params, 2)
        g = coupler_graph(params, 2, t_couple, gap)
        plan = evolve.sweep_plan(g, 0.0, t_couple, params.integrator)
        O = _sweep(np.eye(6), *plan.compiled, plan.F, plan.hs, evolve._rotations)
        assert np.array_equal(plan.O, O)
        rng, out = np.random.default_rng(35), []
        for gamma in (random_covariance(rng, 3), random_covariance(rng, 3)):  # pure, distinct
            G = O @ gamma @ O.T
            out.append(evolve.sweep_majorana(gamma, g, 0.0, t_couple, PropagatorConfig()))
            assert np.array_equal(out[-1], G @ (3 * np.eye(6) - G.T @ G) / 2)
        assert not np.array_equal(*out) and len(evolve._PLANS) == 1

    def test_a_warm_plan_still_steps_the_halved_grid(self, monkeypatch):
        params = ProtocolParams()
        T = params.resolved_T_ent()
        g, plan = ramp_graph(params, 2, T), ramp_plan(T)
        batches, original = [], evolve._rotations

        def spy(Ks, h):
            batches.append(len(Ks))
            return original(Ks, h)
        monkeypatch.setattr(evolve, "_rotations", spy)
        for _ in range(2):  # the halved grid's exponentials, twice the plan's, on every call
            batches.clear()
            evolve.sweep_majorana(PLUS2, g, 0.0, T, PropagatorConfig(richardson_check=True,
                                                                     tolerance=1e-5))
            assert sum(batches) == 2 * len(plan.hs)
        with pytest.raises(ConvergenceError, match="step-doubling deviation"):
            evolve.sweep_majorana(PLUS2, g, 0.0, T, PropagatorConfig(richardson_check=True,
                                                                     tolerance=1e-30))
        assert ramp_plan(T) is plan and len(evolve._PLANS) == 1

    @pytest.mark.filterwarnings("ignore:initial ground-state overlap")  # |+>^2 at T/2
    def test_the_rotation_and_the_spectrum_are_read_only(self):
        params = ProtocolParams(bell_U=40.0)
        _, diag = make_entangled_pair(params)
        (spectrum, _), = evolve._SPECTRA.values()
        assert len(spectrum) == 5  # times, gaps, sector gaps, the ground covariances at t0, t1
        for a in (ramp_plan(params.resolved_T_ent()).O, diag.gap_times, diag.gaps,
                  diag.sector_gaps, *spectrum):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert make_entangled_pair(params)[1].gaps is diag.gaps  # served again
        T = params.resolved_T_ent()  # each window of the device has its own record
        for t0, t1 in ((0.0, T / 2), (T / 2, T)):
            _, part = adiabatic_ramp(PLUS2, ramp_graph(params, 2, T), t0, t1, params.integrator)
            assert (part.gap_times[0], part.gap_times[-1]) == (t0, t1)
        assert len(evolve._SPECTRA) == 3

    def test_a_warm_ramp_far_from_its_ground_state_still_warns(self):
        params = ProtocolParams()
        T = params.resolved_T_ent()
        g = ramp_graph(params, 2, T)
        for _ in range(2):  # |->^2 has no overlap with |+>^2, the ground state at t0
            with pytest.warns(UserWarning, match="initial ground-state overlap"):
                _, diag = adiabatic_ramp(-PLUS2, g, 0.0, T, params.integrator)
            assert diag.initial_ground_overlap_sq < 1e-12
        with warnings.catch_warnings():  # and a warm ramp from the ground state reads its own
            warnings.simplefilter("error")
            _, diag = adiabatic_ramp(PLUS2, g, 0.0, T, params.integrator)
        assert diag.initial_ground_overlap_sq > 1 - 1e-12 and len(evolve._SPECTRA) == 1


def in_threads(*targets, timeout=120.0):
    """Each target's result, run in its own daemon thread; fails if one has not finished."""
    results = [None] * len(targets)
    threads = [threading.Thread(target=lambda k=k, f=f: results.__setitem__(k, f()), daemon=True)
               for k, f in enumerate(targets)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a build never finished"
    return results


class TestMemoLock:
    """evolve.memoised builds outside its lock: a build may reach another memo, and racing
    builds of one key both finish."""

    def test_a_build_may_reach_another_memo(self):
        outer, inner = {}, {}
        value, = in_threads(lambda: evolve.memoised(outer, "outer", lambda: (
            evolve.memoised(inner, "inner", lambda: np.arange(3.0)),)))
        assert value[0] is inner["inner"][0] and list(outer) == ["outer"]

    def test_two_racing_builds_of_one_cold_key_finish_with_one_value(self):
        memo, barrier = {}, threading.Barrier(2, timeout=30)

        def make():  # each build waits for the other: both run at once
            barrier.wait()
            return np.arange(3.0)
        a, b = in_threads(*[lambda: evolve.memoised(memo, "key", make)] * 2)
        assert a is b and list(memo) == ["key"] and not a.flags.writeable

    def test_many_threads_keep_the_memo_bounded_and_each_value_its_own(self, monkeypatch):
        monkeypatch.setattr(evolve, "_PLAN_ENTRIES", 4)
        memo, interval = {}, sys.getswitchinterval()

        def work(seed):  # the keys it was served a wrong value for
            keys = np.random.default_rng(seed).integers(0, 8, 400)
            return [k for k in keys if evolve.memoised(memo, k, lambda: np.full(2, k))[0] != k]
        sys.setswitchinterval(1e-6)
        try:
            wrong = in_threads(*[lambda s=s: work(s) for s in range(8)])
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [[]] * 8 and 1 <= len(memo) <= 4
        assert all(value[0] == k and size == value.nbytes for k, (value, size) in memo.items())

    def test_two_threads_build_one_cold_channel_at_once(self):
        params = ProtocolParams()
        a, b = in_threads(*[lambda: build_channel(params)] * 2)
        assert channel_outputs(a) == channel_outputs(b) and len(protocol._CHANNELS) == 1


PAIR_FULL, CHAIN4 = ProtocolParams(), ProtocolParams(
    n_support=4, U_max=15.0, Uprime_max=100.0, T_ent=45.0, integrator=PropagatorConfig(dt=0.2))


class TestChannelMemo:
    """build_channel memoises a channel's input-independent core on every ProtocolParams field
    but phi and seed; a hit returns a new channel on the caller's params and builds nothing."""

    @pytest.mark.parametrize("params", [
        PAIR_FULL, replace(PAIR_FULL, mode="effective"), CHAIN4, replace(CHAIN4, mode="effective")],
        ids=["pair", "pair-effective", "n_support=4", "n_support=4-effective"])
    def test_a_hit_is_the_cold_build_bit_for_bit(self, params, monkeypatch):
        cold = channel_outputs(build_channel(params))
        laid = laying(monkeypatch)
        hit = build_channel(params)
        assert channel_outputs(hit) == cold and laid == [] and len(protocol._CHANNELS) == 1
        # and both are the unmemoised channel's
        assert channel_outputs(Channel(*make_entangled_pair(params), params)) == cold

    def test_a_warm_teleport_builds_nothing(self, monkeypatch):
        q = InputQubit(0.6, 0.8)
        cold = teleport_end_to_end(q, PAIR_FULL)

        def refused(*args, **kwargs):
            raise AssertionError("a warm build resolved, stepped or looked something up")
        for name in ("resolve_coupling", "make_entangled_pair", "couple_unknown",
                     "rotation_gate", "support_graph", "_channel_core", "gaussian_overlap_sq"):
            monkeypatch.setattr(protocol, name, refused)
        for name in ("sweep_plan", "adiabatic_ramp", "_lay"):
            monkeypatch.setattr(evolve, name, refused)
        warm = teleport_end_to_end(q, PAIR_FULL)
        assert (warm.outcome, warm.p0, warm.fidelity_to_input) == (
            cold.outcome, cold.p0, cold.fidelity_to_input) and warm.step_log == cold.step_log

    def test_phi_and_seed_share_one_core_and_each_channel_reads_its_own(self):
        q, channels = InputQubit(0.6, 0.8), []
        for phi, seed in ((0.0, 7), (0.4, 7), (0.0, 3), (-1.1, 12)):
            params = replace(PAIR_FULL, phi=phi, seed=seed)
            channels.append(build_channel(params))
            assert channels[-1].params is params
            fresh = Channel(*make_entangled_pair(params), params).teleport(q)
            res = channels[-1].teleport(q)
            assert res.step_log["encode"] == fresh.step_log["encode"]
            assert (res.outcome, res.fidelity_to_input) == (fresh.outcome, fresh.fidelity_to_input)
        assert len(protocol._CHANNELS) == 1
        assert all(c._post is channels[0]._post for c in channels)
        achieved = {c.teleport(q).step_log["encode"]["achieved"][1] for c in channels}
        assert len(achieved) == 3  # each phi's own encoding

    def test_mutating_params_after_a_build_leaves_the_memo_as_it_was(self):
        params = ProtocolParams()
        cold = channel_outputs(build_channel(params))
        params.U_max = 50.0
        assert channel_outputs(build_channel(ProtocolParams())) == cold
        moved = build_channel(params)  # a new key, and its own build
        assert len(protocol._CHANNELS) == 2 and channel_outputs(moved) != cold
        assert channel_outputs(moved) == channel_outputs(Channel(*make_entangled_pair(params),
                                                                 params))

    def test_an_attribute_set_on_one_channel_is_not_served_to_the_next(self, monkeypatch):
        a = build_channel(PAIR_FULL)
        expected = channel_outputs(a)
        for name in ("t_wait", "t_couple", "_post", "_coupled", "_shared"):
            monkeypatch.setattr(a, name, None)
        monkeypatch.setattr(a._readout, "t_wait", -1.0)
        b = build_channel(PAIR_FULL)
        assert b._readout is not a._readout and b.t_wait == PAIR_FULL.resolved_wait()
        assert channel_outputs(b) == expected

    def test_an_int_and_a_float_setting_build_one_channel(self):
        as_int = channel_outputs(build_channel(ProtocolParams(U_max=100)))
        protocol._CHANNELS.clear()
        evolve._PLANS.clear()
        evolve._SPECTRA.clear()
        assert channel_outputs(build_channel(ProtocolParams(U_max=100.0))) == as_int
        assert len(protocol._CHANNELS) == 1
        assert channel_outputs(build_channel(ProtocolParams(U_max=100))) == as_int

    def test_the_memo_keeps_within_its_bounds_with_its_core_counted(self, monkeypatch):
        params = ProtocolParams(mode="effective")
        for k in range(evolve._PLAN_ENTRIES + 3):
            build_channel(replace(params, wait_angle=0.5 + k / 64))
        assert len(protocol._CHANNELS) == evolve._PLAN_ENTRIES
        for core, size in protocol._CHANNELS.values():
            arrays = [a for a in core if isinstance(a, np.ndarray)]
            assert len(arrays) == 3 and size == sum(a.nbytes for a in arrays) > 0
            for a in arrays:  # the coupled and rotated images and the readout's forms
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
        chain = replace(params, n_support=4)
        build_channel(chain)
        (_, small), (_, large) = list(protocol._CHANNELS.values())[-2:]
        assert large > small  # the core grows with the register
        monkeypatch.setattr(evolve, "_PLAN_BYTES", large + small)
        build_channel(params)
        assert sum(n for _, n in protocol._CHANNELS.values()) <= large + small
        assert len(protocol._CHANNELS) == 2
        monkeypatch.setattr(evolve, "_PLAN_BYTES", large - 1)  # too large to keep: built, unkept
        kept = dict(protocol._CHANNELS)
        chain = replace(chain, wait_angle=0.3)
        assert channel_outputs(build_channel(chain)) == channel_outputs(
            Channel(*make_entangled_pair(chain), chain))
        assert protocol._CHANNELS == kept

    def test_a_hit_refreshes_recency(self, monkeypatch):
        # the memo drops the least recently used core, not the least recently inserted one
        built = [replace(PAIR_FULL, mode="effective", wait_angle=0.5 + k / 64)
                 for k in range(evolve._PLAN_ENTRIES)]
        for params in built:
            build_channel(params)
        assert len(protocol._CHANNELS) == evolve._PLAN_ENTRIES
        build_channel(built[0])  # a hit on the oldest
        build_channel(replace(built[0], wait_angle=0.25))  # one more: the second-oldest goes
        keys = list(protocol._CHANNELS)
        assert len(keys) == evolve._PLAN_ENTRIES
        assert protocol._BUILT_FROM(built[1]) not in keys
        assert protocol._BUILT_FROM(built[0]) in keys
        monkeypatch.setattr(protocol, "_channel_core", None)  # so a rebuild would fail
        build_channel(built[0])

    def test_a_cold_build_lays_each_device_graph_once(self, monkeypatch):
        calls = []
        for name in ("ramp_graph", "coupler_graph"):
            def spy(*args, _name=name, _original=getattr(protocol, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(protocol, name, spy)
        for params in (PAIR_FULL, CHAIN4):
            calls.clear()
            build_channel(params)
            assert sorted(calls) == ["coupler_graph", "ramp_graph"]

    def test_the_short_coupling_warning_is_given_on_every_build(self):
        params = replace(PAIR_FULL, T_couple=50.0)  # the faithful ramp is 200/w
        for _ in range(3):
            with pytest.warns(UserWarning, match="the transfer will be unfaithful"):
                build_channel(params)
        assert len(protocol._CHANNELS) == 1

    def test_a_refused_build_is_not_memoised(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "rotation_gate", lambda params, t: np.full((4, 4), np.nan))
            with pytest.raises(ConvergenceError, match="not finite"):
                build_channel(PAIR_FULL)
        assert protocol._CHANNELS == {}
        assert build_channel(PAIR_FULL).mean_fidelity() > 0.999

    def test_a_channel_built_from_its_support_is_not_memoised(self):
        params = replace(PAIR_FULL, mode="effective")
        Channel(*make_entangled_pair(params), params)
        assert protocol._CHANNELS == {}


def stage_channel(params, stages):
    """The channel on ``params`` whose stages are exact or ideal as ``stages`` (three bools)."""
    return Channel.__new__(Channel)._hold(params, protocol._channel_core(params, Stages(*stages)))


class TestStageChoice:
    """A channel is built from three stage values, each exact or ideal: the support, the
    coupled images and the rotation gate.  The mode picks all three (ROADMAP item 11)."""

    COMBINATIONS = list(itertools.product((True, False), repeat=3))

    @pytest.mark.parametrize("mode, exact", [("full", True), ("effective", False)])
    def test_the_mode_picks_every_stage(self, mode, exact):
        assert protocol.stage_choice(replace(PAIR_FULL, mode=mode)) == Stages(*[exact] * 3)

    @pytest.mark.parametrize("stages", COMBINATIONS, ids=lambda s: "".join("ei"[not x] for x in s))
    def test_each_combination_builds_a_channel(self, stages):
        channel = stage_channel(PAIR_FULL, stages)
        rng = np.random.default_rng(38)
        for q in [InputQubit.random(rng) for _ in range(5)]:
            res = channel.teleport(q)
            assert abs(res.p0 + res.p1 - 1.0) <= 1e-12
        assert 0.999 < channel.mean_fidelity() <= 1.0 + 1e-12

    def test_all_ideal_is_the_effective_channel(self):
        assert channel_outputs(stage_channel(PAIR_FULL, (False,) * 3)) == channel_outputs(
            build_channel(replace(PAIR_FULL, mode="effective")))

    def test_all_exact_is_the_full_channel_and_the_gate_moves_only_what_follows_it(
            self, monkeypatch):
        exact = stage_channel(PAIR_FULL, (True,) * 3)
        assert channel_outputs(exact) == channel_outputs(build_channel(PAIR_FULL))
        # the dense sweep's gate: the coupled images stay, the rotated ones move by <= 1e-14
        monkeypatch.setattr(protocol, "rotation_gate", dense_rotation_gate)
        dense = stage_channel(PAIR_FULL, (True,) * 3)
        assert np.array_equal(dense._coupled, exact._coupled)
        assert np.max(np.abs(dense._post - exact._post)) <= 1e-14
        rng = np.random.default_rng(38)
        for q in [InputQubit.random(rng) for _ in range(5)]:
            a, b = dense.teleport(q), exact.teleport(q)
            assert a.step_log["entangle"] == b.step_log["entangle"]
            assert a.step_log["couple"] == b.step_log["couple"]
            moves = [abs(x.fidelity - y.fidelity) for x, y in zip(a.branches, b.branches)]
            assert max(moves) <= 1e-14
        assert abs(dense.mean_fidelity() - exact.mean_fidelity()) <= 1e-14

    def test_the_ideal_coupling_carries_the_input_whatever_the_support(self):
        # the ideal coupling maps u onto u_0 |0...0> + u_1 |1...1>, which the ideal gate reads out
        # exactly: no support loss reaches the output
        for support in (True, False):
            channel = stage_channel(PAIR_FULL, (support, False, False))
            assert channel.mean_fidelity() == pytest.approx(1.0, abs=1e-14)


class TestPropagatorConfig:
    @pytest.mark.parametrize("kwargs", [dict(dt=np.nan), dict(dt=np.inf), dict(dt=-1.0),
                                        dict(tolerance=np.nan), dict(tolerance=np.inf)])
    def test_rejects_non_finite_and_non_positive(self, kwargs):
        with pytest.raises(DimensionError):
            PropagatorConfig(**kwargs)


def sequential_sweep(psi, g, t1, dt):
    """The CF4 exponentials of [0, t1] on the sweep's grid, each applied to psi in turn."""
    H0, terms = hamiltonian_terms(g)
    F, hs = cf4(terms, step_grid(g, 0.0, t1, 2 * dt))
    Hs = H0 + sum(F[:, j, None, None] * B for j, (_, B) in enumerate(terms))
    for U in _step_propagators(Hs, hs):
        psi = U @ psi
    return psi


CHUNK_D4 = evolve._CHUNK_BYTES // (16 * 4 * 4)  # exponentials per chunk at d = 4


class TestChunkProduct:
    """Each chunk of exponentials is applied as one product; it equals step-by-step.

    Five steps take six exponentials, whose pairwise product carries an odd
    factor; n - 1, n + 1 and 2n + 1 steps fill one chunk of n, one and a part,
    and two and a part, and 4095, 4097 and 8193 steps span four chunks and a
    part.  Past t = 2 the wobble device is static; the grid merges that
    stretch into one step, so no chunk repeats one step unitary thousands of
    times (where the product's rounding added up coherently to ~1e-13).
    """

    @pytest.mark.parametrize("nsteps", [1, 2, 3, 5, CHUNK_D4 - 1, CHUNK_D4 + 1, 2 * CHUNK_D4 + 1,
                                        4095, 4097, 8193])
    @pytest.mark.parametrize("columns", [None, 2, "identity"])
    def test_matches_sequential_steps(self, nsteps, columns):
        g = wobble_graph()
        # nsteps * dt is exact: ceil(nsteps / 2) CF4 steps of two exponentials each
        dt = 2.0**-11
        cfg = PropagatorConfig(dt=dt)
        rng = np.random.default_rng(nsteps)
        if columns == "identity":
            psi = np.eye(4, dtype=complex)
            out = scheduled_propagator(g, 0.0, nsteps * dt, cfg)
        else:
            shape = (4,) if columns is None else (4, columns)
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            psi /= np.linalg.norm(psi, axis=0)  # unit columns, like the states swept
            out = sweep_block(psi, g, 0.0, nsteps * dt, cfg)
        assert out.shape == psi.shape
        assert np.max(np.abs(out - sequential_sweep(psi, g, nsteps * dt, dt))) <= 1e-13


class TestChunkBudget:
    """Every batch of step Hamiltonians a sweep diagonalizes fits ``_CHUNK_BYTES``
    as a complex stack, down to one matrix per chunk."""

    @staticmethod
    def batch_shapes(monkeypatch):
        shapes = []
        original = evolve._step_propagators

        def spy(Hs, h):
            shapes.append(Hs.shape)
            return original(Hs, h)

        monkeypatch.setattr(evolve, "_step_propagators", spy)
        return shapes

    @pytest.mark.parametrize("d", [4, 16])
    def test_batches_fit_the_budget(self, d, monkeypatch):
        if d == 4:  # the wobble pair (no flip symmetry) over two chunks and a part
            g, t1, dt = wobble_graph(), (2 * CHUNK_D4 + 1) * 2.0**-11, 2.0**-11
        else:  # a 4-qubit coupler, swept whole from |+>^4
            params = ProtocolParams(U_max=15.0, Uprime_max=40.0)
            g, t1, dt = coupler_graph(params, 3, 20.0, support_crossing_gap(params, 3)), 20.0, 0.02
        plus = StateVector(np.full(2**g.n_qubits, 2 ** (-g.n_qubits / 2), dtype=complex))
        shapes = self.batch_shapes(monkeypatch)
        evolve_scheduled(plus, g, 0.0, t1, PropagatorConfig(dt=dt))
        assert {s[1:] for s in shapes} == {(d, d)}
        assert all(16 * np.prod(s) <= evolve._CHUNK_BYTES for s in shapes)
        assert len(shapes) > 2 and max(s[0] for s in shapes) == evolve._CHUNK_BYTES // (16 * d * d)

    def test_majorana_chunks_fit_the_budget(self, monkeypatch):
        # a 5-site coupler's rotations are 10 x 10, budgeted as complex 10 x 10 stacks
        params = ProtocolParams(U_max=15.0, Uprime_max=40.0, T_couple=20.0,
                                integrator=PropagatorConfig(dt=0.02))
        shapes, original = [], evolve._rotations

        def spy(Ks, h):
            shapes.append(Ks.shape)
            Os = original(Ks, h)
            assert Os.nbytes <= evolve._CHUNK_BYTES
            return Os

        monkeypatch.setattr(evolve, "_rotations", spy)
        couple_unknown(StateVector(np.full(2, np.sqrt(0.5), dtype=complex)), ghz_covariance(4),
                       params)
        assert {s[1:] for s in shapes} == {(5, 5)}
        assert len(shapes) > 2 and max(s[0] for s in shapes) == evolve._CHUNK_BYTES // (16 * 10 * 10)

    def test_one_matrix_per_chunk_on_a_7_qubit_register(self, monkeypatch):
        g = support_graph(ProtocolParams(), 7, Schedule.linear(0.0, 1.0, 0.0, 10.0))
        shapes = self.batch_shapes(monkeypatch)
        sweep_block(np.eye(128, dtype=complex)[0], g, 0.0, 0.4, PropagatorConfig(dt=0.1))
        assert shapes == [(1, 128, 128)] * 8  # four CF4 steps


def mp_expm_step(H, h):
    """exp(-i H h) to 30 significant digits."""
    with mpmath.workdps(30):
        M = mpmath.matrix(H.tolist()) * mpmath.mpc(0, -h)
        U = mpmath.expm(M)
        return np.array([[complex(U[i, j]) for j in range(H.shape[1])]
                         for i in range(H.shape[0])])


class TestStepPrecision:
    @pytest.mark.parametrize("phase", [0.0, 0.4])  # real and complex Hamiltonians
    def test_step_matches_30_digit_exponential_at_large_norm_step(self, phase):
        # a 3-DQD register with strong repulsion: ||H|| h ~ 60 per step
        g = DeviceGraph(
            dqds=(0, 1, 2),
            tunnel_terms=[TunnelTerm(k, Schedule.constant(1.0), phase=phase * k)
                          for k in range(3)],
            coulomb_links=dqd_pair_links(0, 1, Schedule.constant(37.0))
            + dqd_pair_links(1, 2, Schedule.constant(41.0)),
        )
        H = hamiltonian_at(g, 0.0)
        h = 60.0 / np.linalg.norm(H, 2)
        U = _step_propagators(H[None], h)[0]
        assert np.max(np.abs(U - mp_expm_step(H, h))) <= 1e-15

    @pytest.mark.parametrize("M", [1, 2, 3, 6])
    @pytest.mark.parametrize("angle", [0.0, 0.1, 4.0, 16.5, 1000.0])
    @pytest.mark.parametrize("kind", ["zero", "rank-1", "repeated"])
    def test_rotation_matches_30_digit_exponential(self, M, angle, kind):
        # the Majorana rotation exp(h [[0, 2K], [-2K^T, 0]]) at ||2hK||_2 = angle
        u, v = np.random.default_rng(M).normal(size=(2, M))
        K = {"zero": np.zeros((M, M)), "rank-1": np.outer(u, v), "repeated": 1.7 * np.eye(M)}[kind]
        norm = np.linalg.norm(2 * K, 2)
        h = angle / norm if norm else 1.0
        Z = np.zeros((M, M))
        expected = mp_expm_step(1j * np.block([[Z, 2 * K], [-2 * K.T, Z]]), h).real
        O = evolve._rotations(K[None], np.array([h]))[0]
        bound = 2e-15 * max(1.0, angle)
        assert np.max(np.abs(O - expected)) <= bound
        assert np.max(np.abs(O.T @ O - np.eye(2 * M))) <= bound

    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("angle", [30.0, 100.0])
    @pytest.mark.parametrize("n_support, U", [(2, 100.0), (4, 15.0), (8, 6.0)])
    def test_rotation_at_merged_step_angles(self, n_support, U, angle):
        # a merged step of the coupling turns the Majoranas by up to ~70 rad, so _rotations
        # squares 5-7 times; K is the coupler's mid-ramp K(t).  scipy.linalg.expm is no
        # reference here: on the pair's K at 30 rad it errs by 1.9e-13 against 30 digits
        params = ProtocolParams(U_max=U)
        t_couple, gap, *_ = resolve_coupling(params, n_support)
        K0, terms = majorana_terms(coupler_graph(params, n_support, t_couple, gap))
        K = K0 + sum(schedule_value(s, t_couple / 2) * B for s, B in terms)
        h = angle / np.linalg.norm(2 * K, 2)
        Z = np.zeros_like(K)
        expected = mp_expm_step(1j * np.block([[Z, 2 * K], [-2 * K.T, Z]]), h).real
        O = evolve._rotations(K[None], np.array([h]))[0]
        assert np.max(np.abs(O - expected)) <= 1e-13
        assert np.max(np.abs(O.T @ O - np.eye(len(O)))) <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_rotations_square_as_the_chunk_s_most_turning_step_needs(self, seed, monkeypatch):
        # the per-step rule: the least s_k with sqrt(||B_k||_1 ||B_k||_inf) / 2^s_k <= 2,
        # B_k = 2 h_k K_k; a chunk squares max_k s_k times, scaling by 2^-s
        rng = np.random.default_rng(seed)
        powers, ldexp = [], np.ldexp

        def spy(x, s):
            powers.append(s)
            return ldexp(x, s)
        monkeypatch.setattr(np, "ldexp", spy)
        for _ in range(100):
            M, N = rng.integers(1, 8), rng.integers(1, 65)
            Ks = rng.normal(size=(N, M, M)) * 10.0 ** rng.uniform(-3, 2, size=(N, 1, 1))
            h = rng.uniform(0.0, 0.5, N)
            steps = [np.ceil(np.log2(max(2 * hk * np.sqrt(np.linalg.norm(K, 1)
                                                           * np.linalg.norm(K, np.inf)), 2.0) / 2))
                     for K, hk in zip(Ks, h)]
            evolve._rotations(Ks, h)
            assert powers[-1] == -max(steps)

    def test_rotations_take_no_linalg_call(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("svd", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, refused)
        Ks = np.random.default_rng(0).normal(size=(50, 3, 3))
        O = evolve._rotations(Ks, np.linspace(0.0, 5.0, 50))
        assert np.max(np.abs(np.swapaxes(O, 1, 2) @ O - np.eye(6))) <= 1e-13


class TestNonFiniteWindows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("graph", [single_dqd, wobble_graph], ids=["static", "moving"])
    def test_every_graded_entry_point_refuses(self, graph, bad):
        # an infinite static window would be one midpoint step of h = inf, a NaN "state"
        g = graph()
        psi = StateVector.computational(g.n_qubits, 0)
        for run in (lambda: sweep_block(psi.amps, g, 0.0, bad, PropagatorConfig()),
                    lambda: evolve_scheduled(psi, g, 0.0, bad),
                    lambda: scheduled_propagator(g, 0.0, bad)):
            with pytest.raises(DimensionError, match="finite"):
                run()

    def test_a_finite_window_out_of_reach_keeps_config_error(self):
        with pytest.raises(ConfigError, match="step grid"):
            sweep_block(np.eye(4), wobble_graph(), 0.0, 1e300, PropagatorConfig())


class TestBatchHermiticity:
    def test_non_hermitian_ramp_is_refused(self):
        g = DeviceGraph(
            dqds=(0, 1),
            tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0), phase=0.3j),
                          TunnelTerm(1, Schedule.constant(1.0))),
            coulomb_links=dqd_pair_links(0, 1, Schedule.smooth(0.0, 10.0, 0.0, 5.0)),
        )
        with pytest.raises(DeviceError, match="Hermitian"):
            adiabatic_ramp(plus_covariance(2), g, 0.0, 5.0, PropagatorConfig(dt=0.1))
