"""Acceptance suite: every analytic claim is reproduced numerically.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion, including the measured wall time against its budget.
"""

import time

import numpy as np

from dqdsim.chain import ChainChannel, ChainSpec, make_ghz_chain
from dqdsim.device import (
    DeviceGraph,
    Schedule,
    TunnelTerm,
    dqd_pair_links,
    hamiltonian_at,
    hamiltonian_terms,
)
from dqdsim.evolve import (
    PropagatorConfig,
    _sweep,
    adiabatic_ramp,
    evolve_scheduled,
    evolve_static,
    ground_state,
    midpoint,
    sweep_block,
)
from dqdsim.hilbert import StateVector, fidelity, gaussian_state, measure_qubit
from dqdsim.protocol import (
    InputQubit,
    ProtocolParams,
    bell_evolution,
    bell_target,
    build_channel,
    cross_to_aligned_ratio,
    effective_rabi,
    ghz_encoded,
    teleport_end_to_end,
)
from references import (bell_decomposition_check, encode_graph, fit_oscillation,
                        majorana_covariance, plateau_ground_state)


def report(name, ok, budget_s, elapsed_s, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed_s:.2f}s / {budget_s:.0f}s budget): {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed_s < budget_s, f"{name} exceeded its {budget_s}s runtime budget"


def single_dqd(w, phase=0.0):
    return DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(w), phase=phase),))


def pair_plateau(U):
    return DeviceGraph(
        dqds=(0, 1),
        tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0)), TunnelTerm(1, Schedule.constant(1.0))),
        coulomb_links=dqd_pair_links(0, 1, Schedule.constant(U)),
    )


def test_criterion_01_encoded_evolution():
    """Free tunneling evolution matches cos(wt)|0> + i sin(wt) e^{2i phi}|1>."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        w, phi, t = rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 8.0)
        out = evolve_scheduled(StateVector.computational(1, 0), encode_graph(w, phi), 0.0, t)
        expected = np.array([np.cos(w * t), 1j * np.sin(w * t) * np.exp(2j * phi)])
        worst = max(worst, float(np.max(np.abs(out.amps - expected))))
    report("criterion 1: encoded free evolution", worst < 1e-8,
           1.0, time.perf_counter() - t0, f"max amplitude deviation {worst:.2e}")


def test_criterion_02_single_dqd_eigensystem():
    """Eigenvalues are +/- w and the ground state is (e^{i phi}|0> + |1>)/sqrt2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_eig, worst_fid = 0.0, 1.0
    for _ in range(50):
        w, phi = rng.uniform(0.2, 3.0), rng.uniform(-np.pi, np.pi)
        H = hamiltonian_at(single_dqd(w, phi), 0.0)
        evals = np.linalg.eigvalsh(H)
        worst_eig = max(worst_eig, float(np.max(np.abs(evals - np.array([-w, w])))))
        ref = StateVector(np.array([np.exp(1j * phi), 1.0]) / np.sqrt(2))
        worst_fid = min(worst_fid, fidelity(ground_state(H).state, ref))
    ok = worst_eig <= 1e-12 and worst_fid >= 1.0 - 1e-12
    report("criterion 2: single-DQD eigensystem", ok, 5.0, time.perf_counter() - t0,
           f"max |E -+ w| = {worst_eig:.2e}, min ground fidelity = {1 - worst_fid:.2e} below 1")


def test_criterion_03_plateau_ground_ratio():
    """Cross/aligned ground amplitudes follow (sqrt(U^2+16w^2)-U)/(4w)."""
    t0 = time.perf_counter()
    worst = 0.0
    for U in (0.0, 1.0, 3.0, 10.0, 100.0):
        gs = ground_state(hamiltonian_at(pair_plateau(U), 0.0))
        ratio = abs(gs.state.amps[1]) / abs(gs.state.amps[0])
        worst = max(worst, abs(ratio - cross_to_aligned_ratio(U, 1.0)))
        if U == 3.0:
            assert abs(ratio - 0.5) <= 1e-10
        # the diagonalized ground state carries a positive cross sign
        assert (gs.state.amps[1] / gs.state.amps[0]).real > 0
    report("criterion 3: plateau ground-state ratio", worst <= 1e-10,
           5.0, time.perf_counter() - t0, f"max |ratio - formula| = {worst:.2e} (sign: positive)")


def test_criterion_04_adiabatic_entanglement():
    """Smooth ramp to U=100w entangles; loss strictly decreases with duration."""
    t0 = time.perf_counter()
    cfg = PropagatorConfig(dt=2e-3)
    infids = {}
    bell_sq = ground_sq = None
    for T in (50.0, 100.0, 200.0):
        g = DeviceGraph(
            dqds=(0, 1),
            tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0)),
                          TunnelTerm(1, Schedule.constant(1.0))),
            coulomb_links=dqd_pair_links(0, 1, Schedule.smooth(0.0, 100.0, 0.0, T)),
        )
        start = ground_state(hamiltonian_at(g, 0.0)).state
        final, diag = adiabatic_ramp(majorana_covariance(start.amps), g, 0.0, T, cfg)
        infids[T] = 1.0 - diag.final_ground_overlap_sq
        if T == 200.0:
            bell_sq = fidelity(StateVector(gaussian_state(final)), bell_target(2))
            ground_sq = diag.final_ground_overlap_sq
    ok = (bell_sq >= 0.99 and ground_sq >= 0.99
          and infids[50.0] > infids[100.0] > infids[200.0] and infids[200.0] < 0.01)
    report("criterion 4: adiabatic entanglement", ok, 10.0, time.perf_counter() - t0,
           f"bell^2 = {bell_sq:.6f}, ground^2 = {ground_sq:.9f}, "
           f"infidelities {infids[50.0]:.2e} > {infids[100.0]:.2e} > {infids[200.0]:.2e}")


def test_criterion_05_effective_rotation_rate():
    """Fitted full-dynamics oscillation frequency approaches 2 w^2 / U."""
    t0 = time.perf_counter()
    devs = {}
    for U, tol in ((20.0, 0.05), (50.0, 0.01)):
        params = ProtocolParams(Uprime_max=U, mode="full")
        st = ghz_encoded(1.0, 0.0, 3)
        om = effective_rabi(1.0, U)
        ts = np.linspace(0.0, 1.25 * np.pi / om, 400)
        pops = []
        for t in ts:
            out = bell_evolution(st, params, t)
            arr = np.abs(out.amps) ** 2
            pops.append(arr[0b011] + arr[0b111])
        fit = fit_oscillation(ts, pops)
        devs[U] = abs(fit.frequency - om) / om
        assert devs[U] <= tol, f"U={U}: relative deviation {devs[U]:.3%} > {tol:.0%}"
    report("criterion 5: effective rotation rate", True, 30.0, time.perf_counter() - t0,
           f"relative deviation {devs[20.0]:.3%} at U=20w (<=5%), {devs[50.0]:.3%} at U=50w (<=1%)")


def test_criterion_06_measurement_symmetry():
    """Quarter-cycle branch probabilities are exactly balanced."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    eff = ProtocolParams(mode="effective")
    om = effective_rabi(1.0, 100.0)
    worst = 0.0
    for _ in range(100):
        q = InputQubit.random(rng)
        post = bell_evolution(ghz_encoded(q.alpha, q.beta, 3), eff, (np.pi / 4) / om)
        m = measure_qubit(post, 0)
        worst = max(worst, abs(m.p0 - 0.5), abs(m.p1 - 0.5))
    balanced = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
    shots = np.random.default_rng(7)
    hits = sum(measure_qubit(balanced, 0, rng=shots).outcome == 0 for _ in range(10_000))
    sampled_dev = abs(hits / 10_000 - 0.5)
    ok = worst <= 1e-10 and sampled_dev <= 3 * 0.5 / 100
    report("criterion 6: measurement symmetry", ok, 30.0, time.perf_counter() - t0,
           f"max |p - 1/2| = {worst:.2e} (deterministic), "
           f"{sampled_dev:.4f} over 1e4 shots, seed 7 (3 sigma = 0.015)")


def test_criterion_07_end_to_end_teleportation():
    """Closed-form pipeline is exact; full dynamics stays above 0.98."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    eff = ProtocolParams(mode="effective")
    channel = build_channel(eff)  # built once for the 1000 inputs
    targets = [InputQubit.random(rng) for _ in range(1000)]
    results = [channel.teleport(t) for t in targets]
    worst = min(b.fidelity for res in results for b in res.branches)
    # the per-call pipeline builds the same channel
    same = [teleport_end_to_end(targets[0], eff).fidelity_to_input == results[0].fidelity_to_input]
    full = ProtocolParams(mode="full")  # U = U' = 100 w, durations ~ 200/w
    channel = build_channel(full)  # built once for the 20 inputs
    targets = [InputQubit.random(rng) for _ in range(20)]
    fids = [channel.teleport(t).fidelity_to_input for t in targets]
    same.append(teleport_end_to_end(targets[0], full).fidelity_to_input == fids[0])
    mean_full = float(np.mean(fids))
    ok = worst >= 1.0 - 1e-10 and mean_full >= 0.98 and all(same)
    report("criterion 7: end-to-end teleportation", ok, 120.0, time.perf_counter() - t0,
           f"effective worst fidelity 1 - {1 - worst:.2e} over 1000 inputs; "
           f"full-mode mean {mean_full:.4f} over 20 inputs (>= 0.98); "
           f"per-call pipeline {'equals' if all(same) else 'differs from'} the channel "
           "(effective, full)")


def test_criterion_08_chain_channel():
    """Chain channel: exact effective transfer, faithful short-chain dynamics."""
    t0 = time.perf_counter()
    eff = ProtocolParams(mode="effective")
    for ns in range(2, 7):  # the plateau ground state carries the input exactly
        st = StateVector(gaussian_state(make_ghz_chain(ChainSpec(ns, eff))[0]))
        assert 1 - fidelity(st, StateVector(plateau_ground_state(eff, ns))) < 1e-12, ns
        res = ChainChannel(ChainSpec(ns, eff)).teleport(InputQubit(0.6, 0.8j))
        assert abs(res.fidelity_to_input - 1) < 1e-12, f"n_support={ns}"

    ghz3 = ProtocolParams(U_max=100.0, mode="full")
    st3 = StateVector(gaussian_state(make_ghz_chain(ChainSpec(3, ghz3, T_ghz=300.0))[0]))
    ghz3_sq = fidelity(st3, bell_target(3))

    # four-DQD chain: the crossing gap scales like w(w/U)^3, so the chain
    # plateau sits at U = 15w where the adapted ramp stays tractable
    chain_params = ProtocolParams(U_max=15.0, Uprime_max=100.0, mode="full",
                                  integrator=PropagatorConfig(dt=0.01))
    channel = ChainChannel(ChainSpec(4, chain_params, T_ghz=45.0))
    rng = np.random.default_rng(108)
    fids = [channel.teleport(InputQubit.random(rng)).fidelity_to_input for _ in range(10)]
    mean_chain = float(np.mean(fids))
    ok = ghz3_sq >= 0.98 and mean_chain >= 0.95
    report("criterion 8: chain channel", ok, 180.0, time.perf_counter() - t0,
           f"GHZ(3) overlap^2 = {ghz3_sq:.5f} at U=100w; chain(4) mean fidelity "
           f"{mean_chain:.4f} over 10 inputs at U=15w (>= 0.95)")


def test_criterion_09_numerical_contracts():
    """Unitarity, second- and fourth-order stepping, and exactness on static windows."""
    t0 = time.perf_counter()
    g = DeviceGraph(
        dqds=(0, 1),
        tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0)),
                      TunnelTerm(1, Schedule.smooth(0.7, 1.5, 0.0, 2.0), phase=0.4)),
        coulomb_links=dqd_pair_links(0, 1, Schedule.linear(0.0, 5.0, 0.0, 2.0)),
    )
    state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
    out = evolve_scheduled(state, g, 0.0, 2.0, PropagatorConfig(dt=0.01))
    norm_dev = abs(np.linalg.norm(out.amps) - 1.0)

    def ratio(sweep):  # error at dt = 0.04 over error at dt = 0.02
        ref = sweep(0.04 / 16)
        return np.linalg.norm(sweep(0.04) - ref) / np.linalg.norm(sweep(0.02) - ref)

    def reference_rule(dt):  # midpoint: one exponential per step of dt
        H0, terms = hamiltonian_terms(g)
        edges = np.linspace(0.0, 2.0, round(2.0 / dt) + 1)
        return _sweep(state.amps, H0, terms, *midpoint(terms, edges))
    ratio_mid = ratio(reference_rule)
    ratio_cf4 = ratio(lambda dt: sweep_block(state.amps, g, 0.0, 2.0, PropagatorConfig(dt=dt)))

    static = pair_plateau(4.0)
    plus = StateVector(np.full(4, 0.5, dtype=complex))
    stepped = evolve_scheduled(plus, static, 0.0, 3.0, PropagatorConfig(dt=0.01))
    exact = evolve_static(plus, hamiltonian_at(static, 0.0), 3.0)
    static_dev = float(np.linalg.norm(stepped.amps - exact.amps))

    ok = (norm_dev < 1e-12 and 3.5 <= ratio_mid <= 4.5 and 14 <= ratio_cf4 <= 18
          and static_dev < 1e-10)
    report("criterion 9: numerical contracts", ok, 30.0, time.perf_counter() - t0,
           f"norm drift {norm_dev:.1e}, convergence ratio {ratio_mid:.2f} in [3.5, 4.5] "
           f"(midpoint) and {ratio_cf4:.2f} in [14, 18] (CF4), "
           f"static-window deviation {static_dev:.1e}")


def test_criterion_10_four_branch_identity():
    """Every Bell branch of the textbook decomposition has a Pauli correction."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    expected = {"phi+": ("X",), "phi-": ("Y",), "psi+": ("I",), "psi-": ("Z",)}
    for _ in range(100):
        rep = bell_decomposition_check(InputQubit.random(rng))
        assert rep.ok
        found = {k: v.corrections for k, v in rep.branches.items()}
        assert found == expected, found
    report("criterion 10: four-branch identity", True, 30.0, time.perf_counter() - t0,
           "100 random inputs; corrections phi+ -> X, phi- -> Y, psi+ -> I, "
           "psi- -> Z (the psi- branch carries the Z bookkeeping)")
