import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dqdsim
from dqdsim import evolve
from dqdsim.chain import ChainChannel, ChainSpec, make_ghz_chain
from dqdsim.device import Schedule, hamiltonian_at
from dqdsim.errors import ConfigError, DimensionError
from dqdsim.evolve import PropagatorConfig
from dqdsim.hilbert import StateVector, fidelity, gaussian_state, partial_trace
from dqdsim.protocol import (
    MAX_QUBITS,
    InputQubit,
    ProtocolParams,
    bell_target,
    build_channel,
    couple_unknown,
    cross_to_aligned_ratio,
    entangled_pair_reference,
    ramp_support,
    support_crossing_gap,
    support_graph,
    teleport_end_to_end,
)
from references import PAULI_X, plateau_ground_state

EFFECTIVE = ProtocolParams(mode="effective")


def ghz_state(spec):
    """make_ghz_chain's support as a state, with its diagnostics."""
    gamma, diag = make_ghz_chain(spec)
    return StateVector(gaussian_state(gamma)), diag


class TestSpec:
    def test_minimum_size(self):
        for n_support in (1, True, 3.5, 3.0, "3", None):  # and anything but an integer
            with pytest.raises(DimensionError, match="n_support"):
                ChainSpec(n_support, EFFECTIVE)
        assert ChainSpec(np.int64(3), EFFECTIVE).n_support == 3

    def test_budget(self):
        with pytest.raises(DimensionError):
            ChainSpec(12, EFFECTIVE)

    def test_ghz_duration_default(self):
        assert ChainSpec(3, ProtocolParams(U_max=100.0)).resolved_T_ghz() == pytest.approx(300.0)


class TestGhzChain:
    def test_effective_pair(self):
        # a two-site chain is the pair: effective mode's support is the plateau ground state
        st, diag = ghz_state(ChainSpec(2, EFFECTIVE))
        assert diag is None
        assert fidelity(st, entangled_pair_reference(100.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_effective_five(self):
        # the five-site plateau ground state: even under X^5, which maps index i to 31 - i,
        # and as close to GHZ as the dense plateau's ground state in that sector
        st, _ = ghz_state(ChainSpec(5, EFFECTIVE))
        assert np.max(np.abs(st.amps - st.amps[::-1])) <= 1e-14
        reference = StateVector(plateau_ground_state(EFFECTIVE, 5))
        assert abs(fidelity(st, bell_target(5)) - fidelity(reference, bell_target(5))) <= 1e-12

    def test_effective_marginals_maximally_mixed(self):
        # up to <X_q> X / 2, with <X_q> = i<a_q b_q> read off the covariance and at most 2w/U
        gamma, _ = make_ghz_chain(ChainSpec(5, EFFECTIVE))
        st = StateVector(gaussian_state(gamma))
        for q in range(5):
            x = gamma[q, 5 + q]
            assert 0 < x <= 2.0 / EFFECTIVE.U_max
            rho = partial_trace(st, [q])
            assert np.max(np.abs(rho - (np.eye(2) + x * PAULI_X) / 2)) <= 1e-14

    def test_full_mode_small(self):
        params = ProtocolParams(U_max=40.0, mode="full")
        st, diag = ghz_state(ChainSpec(3, params))
        assert fidelity(st, bell_target(3)) >= 0.98
        assert diag.final_ground_overlap_sq >= 0.999

    def test_full_mode_loss_grows_with_length(self):
        # diabatic loss (vs the instantaneous ground state) is non-decreasing
        # in chain length for one fixed schedule
        infids = []
        cfg = PropagatorConfig(dt=2e-3)
        for ns in (2, 3, 4):
            params = ProtocolParams(U_max=100.0, mode="full", integrator=cfg)
            _, diag = ramp_support(params, ns, 300.0)
            infids.append(1.0 - diag.final_ground_overlap_sq)
        assert infids[0] <= infids[1] <= infids[2]


class TestChainTeleport:
    def test_effective_all_lengths(self):
        rng = np.random.default_rng(6)
        for ns in range(2, 7):
            spec = ChainSpec(ns, EFFECTIVE)
            res = ChainChannel(spec).teleport(InputQubit.random(rng))
            assert res.fidelity_to_input == pytest.approx(1.0, abs=1e-10)
            assert abs(res.p0 - 0.5) < 1e-10

    def test_basis_input(self):
        res = ChainChannel(ChainSpec(3, EFFECTIVE)).teleport(InputQubit(1.0, 0.0))
        assert fidelity(res.bob_state_corrected,
                        StateVector.computational(1, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_channel_reuse_matches_one_shot(self):
        q = InputQubit(0.6, 0.8j)
        spec = ChainSpec(3, EFFECTIVE)
        channel = ChainChannel(spec)
        a = channel.teleport(q)
        b = ChainChannel(spec).teleport(q)
        assert a.fidelity_to_input == pytest.approx(b.fidelity_to_input, abs=1e-14)
        assert a.outcome == b.outcome

    def test_full_mode_short_chain(self):
        params = ProtocolParams(U_max=15.0, Uprime_max=40.0, mode="full")
        channel = ChainChannel(ChainSpec(3, params))
        rng = np.random.default_rng(2)
        fids = [channel.teleport(InputQubit.random(rng)).fidelity_to_input for _ in range(3)]
        assert np.mean(fids) >= 0.95
        log = channel.teleport(InputQubit(0.6, 0.8)).step_log
        assert log["channel"]["ghz_overlap_sq"] >= 0.9
        assert log["couple"]["target_overlap_sq"] >= 0.95

    def test_reduces_to_three_dqd_protocol(self):
        # effective mode's two-DQD chain teleports through the exact GHZ support
        res = ChainChannel(ChainSpec(2, EFFECTIVE)).teleport(InputQubit(0.6, 0.8))
        assert res.fidelity_to_input == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("U", [100.0, 25.0])
    def test_two_site_chain_at_T_ent_is_the_pair_channel(self, U):
        params = ProtocolParams(U_max=U)
        chain = ChainChannel(ChainSpec(2, params, T_ghz=params.resolved_T_ent()))
        pair = build_channel(params)
        rng = np.random.default_rng(5)
        for q in [InputQubit.random(rng) for _ in range(20)]:
            a, b = chain.teleport(q), pair.teleport(q)
            assert (a.fidelity_to_input, a.p0, a.step_log) == (b.fidelity_to_input, b.p0, b.step_log)
            assert np.array_equal(a.bob_state_corrected.amps, b.bob_state_corrected.amps)

    def test_two_site_chain_defaults_are_the_pair(self):
        # one rule for every length: the default support ramp is 2 U/w^2 for two sites and
        # 3 U/w^2 from three on, and effective mode's support is the plateau ground state,
        # whose GHZ overlap is 1/(1 + r^2) for the pair
        params = ProtocolParams(U_max=100.0)
        assert [ChainSpec(n, params).resolved_T_ghz() for n in (2, 3)] == [200.0, 300.0]
        q = InputQubit(0.6, 0.8)
        chain = ChainChannel(ChainSpec(2, EFFECTIVE)).teleport(q).step_log["channel"]
        pair = build_channel(EFFECTIVE).teleport(q).step_log["channel"]
        r = cross_to_aligned_ratio(100.0, 1.0)
        assert chain == pair
        assert pair["ghz_overlap_sq"] == pytest.approx(1 / (1 + r * r), abs=1e-14)

    @pytest.mark.parametrize("T_ghz", [-1.0, 0.0, np.nan])
    def test_spec_refuses_a_ghz_ramp_that_is_not_positive_and_finite(self, T_ghz):
        # T_ghz takes T_ent's place, and ProtocolParams refuses it under that name
        with pytest.raises(DimensionError, match="T_ent must be (positive|finite)"):
            ChainSpec(3, ProtocolParams(U_max=15.0), T_ghz=T_ghz)

    def test_infeasible_auto_ramp_is_refused(self):
        # a four-DQD chain at U = 100w hides an exponentially small crossing
        # gap; the auto-derived ramp would be ~5e5/w and is rejected
        params = ProtocolParams(U_max=100.0, mode="full")
        with pytest.raises(ConfigError, match="ramp"):
            ChainChannel(ChainSpec(4, params))

    def test_infeasible_coupling_is_refused_before_any_ramp(self, tmp_path, monkeypatch):
        from dqdsim import protocol
        from dqdsim.cli import main

        def no_ramp(*args):
            raise AssertionError("the support ramp ran before the refusal")

        monkeypatch.setattr(protocol, "ramp_support", no_ramp)
        with pytest.raises(ConfigError, match="ramp"):
            ChainChannel(ChainSpec(4, ProtocolParams(U_max=100.0, mode="full")))
        assert main(["teleport", "--n-support", "4", "--u-max", "100",
                     "--output", str(tmp_path / "x")]) == 2
        # the pair's faithful ramp 2U/w^2 exceeds the 5e4/w limit above U = 2.5e4 w
        with pytest.raises(ConfigError, match="ramp"):
            teleport_end_to_end(InputQubit(0.6, 0.8), ProtocolParams(U_max=3.0e4))

    def test_effective_chain_does_not_leak(self):
        channel = ChainChannel(ChainSpec(4, EFFECTIVE))
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert channel.teleport(InputQubit.random(rng)).step_log["measure"]["leakage"] <= 1e-15

    def test_short_ramp_leaks_out_of_the_code_pair(self):
        # the configuration of test_explicit_short_ramp_warns_and_runs
        params = ProtocolParams(U_max=100.0, T_couple=50.0, mode="full",
                                integrator=PropagatorConfig(dt=0.01))
        with pytest.warns(UserWarning, match="unfaithful"):
            channel = ChainChannel(ChainSpec(4, params, T_ghz=50.0))
        assert channel.teleport(InputQubit(0.6, 0.8)).step_log["measure"]["leakage"] > 0

    def test_explicit_short_ramp_warns_and_runs(self):
        params = ProtocolParams(U_max=100.0, T_couple=50.0, mode="full",
                                integrator=PropagatorConfig(dt=0.01))
        with pytest.warns(UserWarning, match="unfaithful"):
            channel = ChainChannel(ChainSpec(4, params, T_ghz=50.0))
        res = channel.teleport(InputQubit(0.6, 0.8))
        assert 0.0 <= res.fidelity_to_input <= 1.0


# ru_maxrss growth (KiB on Linux) over building the benchmark's chain4 channel
RSS_GROWTH = """
import resource
import dqdsim
spec = dqdsim.ChainSpec(4, dqdsim.ProtocolParams(
    U_max=15.0, Uprime_max=100.0, integrator=dqdsim.PropagatorConfig(dt=0.2)), T_ghz=45.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
dqdsim.ChainChannel(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestMemoryPreflight:
    """A full-mode channel holds no 2^n x 2^n array: the support is handed on as its
    covariance, and the coupled register is built from its covariance by
    ``hilbert.gaussian_state`` in O(M^2 2^M), so ``MAX_QUBITS`` is the one size limit."""

    def test_no_eigh_past_the_majorana_covariance(self, monkeypatch):
        dims, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            dims.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        params = ProtocolParams(U_max=10.0, integrator=PropagatorConfig(dt=0.2))
        ChainChannel(ChainSpec(6, params, T_ghz=45.0))
        assert dims and max(dims) == 14  # 2M of the 7-qubit coupled register, not 2^7

    @pytest.mark.filterwarnings("ignore:w/U_max")
    def test_n_support_10_builds_within_3_s(self):
        start = time.perf_counter()
        ChainChannel(ChainSpec(10, ProtocolParams(U_max=4.0)))
        assert time.perf_counter() - start < 3.0

    @pytest.mark.filterwarnings("ignore:w/U_max")
    def test_n_support_8_coupling_takes_few_rotations(self, monkeypatch):
        # U' barely moves over most of the coupler's ramp, so the step grid merges its steps
        # there: ~2.8k rotations, where a grid of steps no longer than 2 dt took ~138k
        spec = ChainSpec(8, ProtocolParams(U_max=6.0))
        support, _ = make_ghz_chain(spec)
        counts, rotations = [], evolve._rotations

        def spy(Ks, h):
            counts.append(len(Ks))
            return rotations(Ks, h)

        monkeypatch.setattr(evolve, "_rotations", spy)
        couple_unknown(StateVector(np.full(2, np.sqrt(0.5), dtype=complex)), support, spec.params)
        assert 0 < sum(counts) <= 5000

    @pytest.mark.filterwarnings("ignore:w/U_max")
    def test_the_longest_chain_builds(self):
        channel = ChainChannel(ChainSpec(MAX_QUBITS - 1, ProtocolParams(U_max=4.0)))
        assert channel.teleport(InputQubit(0.6, 0.8)).fidelity_to_input > 0.5

    def test_chain4_build_stays_within_32_MiB(self):
        """A step-count-sized temporary in a sweep shows as RSS growth past
        the post-import level of a fresh process (one BLAS thread)."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(Path(dqdsim.__file__).parents[1]),
                                                            os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", RSS_GROWTH], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert int(out.stdout) / 1024 <= 32.0


def dense_crossing_gap(params, n_support):
    """The reference gap: the lowest splitting of the 2^n plateau register."""
    plateau = support_graph(params, n_support, Schedule.constant(params.U_max))
    evals = np.linalg.eigvalsh(hamiltonian_at(plateau, 0.0))
    return evals[1] - evals[0]


class TestCrossingGap:
    @pytest.mark.filterwarnings("ignore:w/U_max")
    @pytest.mark.parametrize("U", [4.0, 15.0, 100.0])
    @pytest.mark.parametrize("n_support", range(2, 7))
    def test_closed_form_matches_dense_spectrum(self, n_support, U):
        params = ProtocolParams(U_max=U)
        assert support_crossing_gap(params, n_support) == pytest.approx(
            dense_crossing_gap(params, n_support), rel=1e-9)

    def test_long_chain_is_refused_without_building_a_device(self, monkeypatch):
        from dqdsim import device

        def no_device(*args):
            raise AssertionError("a 2^n plateau device was built")

        monkeypatch.setattr(device, "hamiltonian_at", no_device)
        with pytest.raises(ConfigError, match="ramp"):
            ChainChannel(ChainSpec(11, ProtocolParams(U_max=100.0)))

    def test_underflowed_gap_is_refused(self):
        # at U = 1e200 w the four-site gap (~ w (2w/U)^3) underflows to 0
        params = ProtocolParams(U_max=1e200)
        assert support_crossing_gap(params, 4) == 0.0
        with pytest.raises(ConfigError, match="ramp"):
            ChainChannel(ChainSpec(4, params))


class TestNoDenseRegisterSweep:
    """A full-mode channel build ramps and couples on the Majorana route and rotates with
    a two-qubit gate: nothing larger than 4 x 4 reaches the dense engine."""

    PARAMS = ProtocolParams(U_max=15.0, Uprime_max=40.0, integrator=PropagatorConfig(dt=0.2))

    @staticmethod
    def dense_dims(monkeypatch):
        dims = []
        block, step = evolve.sweep_block, evolve._step_propagators

        def block_spy(psi, *args):
            dims.append(psi.shape[0])
            return block(psi, *args)

        def step_spy(Hs, h):
            dims.append(Hs.shape[-1])
            return step(Hs, h)

        monkeypatch.setattr(evolve, "sweep_block", block_spy)
        monkeypatch.setattr(evolve, "_step_propagators", step_spy)
        return dims

    @pytest.mark.parametrize("n_support", [2, 3, 4])
    def test_channel_build(self, n_support, monkeypatch):
        dims = self.dense_dims(monkeypatch)
        build_channel(replace(self.PARAMS, n_support=n_support, T_ent=45.0)).teleport(
            InputQubit(0.6, 0.8))
        assert dims and max(dims) == 4

    @pytest.mark.parametrize("experiment", ["teleport", "couple"])
    def test_cli(self, experiment, tmp_path, monkeypatch):
        from dqdsim.cli import main

        dims = self.dense_dims(monkeypatch)
        assert main([experiment, "--n-support", "4", "--u-max", "15", "--uprime-max", "40",
                     "--t-ent", "45", "--dt", "0.2", "--output", str(tmp_path / "x")]) == 0
        assert dims and max(dims) == 4
