import mpmath
import numpy as np
import pytest

from dqdsim.device import (
    DeviceGraph,
    Schedule,
    TunnelTerm,
    check_hermitian,
    dqd_pair_links,
    hamiltonian_at,
    hamiltonian_terms,
    schedule_value,
)
from dqdsim.errors import ConvergenceError, DeviceError, DimensionError
from dqdsim.evolve import (
    PropagatorConfig,
    _step_propagators,
    adiabatic_ramp,
    evolve_scheduled,
    evolve_static,
    ground_state,
    scheduled_propagator,
    sweep_block,
)
from dqdsim.hilbert import StateVector
from dqdsim.protocol import cross_to_aligned_ratio


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
        with pytest.raises(DimensionError):
            ground_state(np.array([[0.0, 1.0], [2.0, 0.0]]))

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

    def test_second_order_convergence(self):
        g = wobble_graph()
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        ref = evolve_scheduled(state, g, 0.0, 2.0, PropagatorConfig(dt=0.04 / 16))
        e1 = np.linalg.norm(
            evolve_scheduled(state, g, 0.0, 2.0, PropagatorConfig(dt=0.04)).amps - ref.amps)
        e2 = np.linalg.norm(
            evolve_scheduled(state, g, 0.0, 2.0, PropagatorConfig(dt=0.02)).amps - ref.amps)
        assert 3.5 <= e1 / e2 <= 4.5

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

    def test_interior_sudden_step_rejected(self):
        g = DeviceGraph(
            dqds=(0,),
            tunnel_terms=(TunnelTerm(0, Schedule.step(1.0, 0.0, t_switch=1.0)),),
        )
        state = StateVector.computational(1, 0)
        with pytest.raises(DimensionError):
            evolve_scheduled(state, g, 0.0, 2.0, PropagatorConfig(dt=0.01))
        # splitting at the switch is fine
        a = evolve_scheduled(state, g, 0.0, 1.0, PropagatorConfig(dt=0.01))
        b = evolve_scheduled(a, g, 1.0, 2.0, PropagatorConfig(dt=0.01))
        assert abs(np.linalg.norm(b.amps) - 1.0) < 1e-12

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
        final, diag = adiabatic_ramp(start, g, 0.0, 200.0, PropagatorConfig(dt=5e-3))
        # gap shrinks monotonically from 2w at the separable end to ~4w^2/U
        assert diag.gaps[0] == pytest.approx(2.0, abs=1e-9)
        expected_min = (np.hypot(100.0, 4.0) - 100.0) / 2.0
        assert diag.min_gap == pytest.approx(expected_min, rel=1e-6)
        assert diag.initial_ground_overlap_sq == pytest.approx(1.0, abs=1e-12)
        assert diag.final_ground_overlap_sq > 0.99

    def test_zero_duration_is_identity(self):
        g = entangling_ramp(50.0, 100.0)
        start = ground_state(hamiltonian_at(g, 0.0)).state
        final, _ = adiabatic_ramp(start, g, 0.0, 1e-9, PropagatorConfig(dt=1e-10))
        assert np.linalg.norm(final.amps - start.amps) < 1e-8

    def test_warns_off_ground_start(self):
        g = entangling_ramp(50.0, 100.0)
        excited = StateVector.computational(2, 3)
        with pytest.warns(UserWarning, match="overlap"):
            adiabatic_ramp(excited, g, 0.0, 0.5, PropagatorConfig(dt=0.01))


class TestPropagatorConfig:
    @pytest.mark.parametrize("kwargs", [dict(dt=np.nan), dict(dt=np.inf), dict(dt=-1.0),
                                        dict(tolerance=np.nan), dict(tolerance=np.inf)])
    def test_rejects_non_finite_and_non_positive(self, kwargs):
        with pytest.raises(DimensionError):
            PropagatorConfig(**kwargs)


def sequential_sweep(psi, g, t1, dt):
    """The midpoint steps of [0, t1], each applied to psi in turn."""
    nsteps = max(1, int(np.ceil(t1 / dt)))
    h = t1 / nsteps
    mids = (np.arange(nsteps) + 0.5) * h
    H0, terms = hamiltonian_terms(g)
    Hs = H0 + sum(schedule_value(sched, mids)[:, None, None] * B for sched, B in terms)
    for U in _step_propagators(Hs, h):
        psi = U @ psi
    return psi


class TestChunkProduct:
    """Each chunk of steps is applied as one product; it equals step-by-step.

    Past t = 2 the wobble device is static, so the second chunk repeats one
    step unitary: the worst case for the product's rounding, which then adds
    up coherently.
    """

    @pytest.mark.parametrize("nsteps", [1, 2, 3, 4095, 4097, 8193])
    @pytest.mark.parametrize("columns", [None, 2, "identity"])
    def test_matches_sequential_steps(self, nsteps, columns):
        g = wobble_graph()
        dt = 2.0**-11  # nsteps * dt is exact, so the sweep takes nsteps steps
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


class TestBatchHermiticity:
    def test_stack_with_one_non_hermitian_matrix_is_refused(self):
        ok = hamiltonian_at(wobble_graph(), 0.3)
        bad = ok.copy()
        bad[0, 1] += 1e-9
        assert check_hermitian(np.stack([ok, ok])).shape == (2, 4, 4)
        with pytest.raises(DeviceError, match="Hermitian"):
            check_hermitian(np.stack([ok, bad]))
        with pytest.raises(DeviceError, match="Hermitian"):
            check_hermitian(np.stack([ok, np.full_like(ok, np.nan)]))

    def test_non_hermitian_ramp_is_refused(self):
        g = DeviceGraph(
            dqds=(0, 1),
            tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0), phase=0.3j),
                          TunnelTerm(1, Schedule.constant(1.0))),
            coulomb_links=dqd_pair_links(0, 1, Schedule.smooth(0.0, 10.0, 0.0, 5.0)),
        )
        with pytest.raises(DeviceError, match="Hermitian"):
            adiabatic_ramp(StateVector(np.full(4, 0.5, dtype=complex)), g, 0.0, 5.0,
                           PropagatorConfig(dt=0.1))
