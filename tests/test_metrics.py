import csv
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import dqdsim
from dqdsim.cli import main
from dqdsim.device import DeviceGraph, Schedule, TunnelTerm, dqd_pair_links
from dqdsim.errors import DimensionError
from dqdsim.hilbert import StateVector, partial_trace
from dqdsim.metrics import concurrence, entanglement_entropy
from dqdsim.protocol import bell_target, entangled_pair_reference
from references import apply_local, fit_oscillation, instantaneous_gap


def random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mp_concurrence(amps) -> float:
    """2|psi_00 psi_11 - psi_01 psi_10| of the given amplitudes, evaluated at 50 digits."""
    with mpmath.workdps(50):
        a00, a10, a01, a11 = (mpmath.mpc(complex(a)) for a in amps)  # index q0 + 2 q1
        return float(2 * abs(a00 * a11 - a01 * a10))


def near_product_states(eps, count=200, seed=0):
    """Seeded product states plus an entangling admixture eps, normalized."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u, v, chi = np.split(rng.normal(size=(8, 2)) @ [1, 1j], [2, 4])
        psi = np.kron(v, u) + eps * chi
        yield StateVector(psi / np.linalg.norm(psi))


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(bell_target(2)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert concurrence(StateVector.computational(2, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled_plateau_state(self):
        # ground state at U = 3w: amplitudes (1, .5, .5, 1)/norm; for a pure
        # 2-qubit state concurrence is 2|ad - bc| = 2(1 - 0.25)/2.5 = 0.6
        state = entangled_pair_reference(3.0, 1.0)
        a, b, c, d = state.amps
        oracle = 2 * abs(a * d - b * c)
        assert oracle == pytest.approx(0.6, abs=1e-12)
        assert concurrence(state) == pytest.approx(oracle, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        state = entangled_pair_reference(5.0, 1.0)
        base = concurrence(state)
        for _ in range(10):
            rotated = apply_local(state, random_unitary(rng), [int(rng.integers(0, 2))])
            assert concurrence(rotated) == pytest.approx(base, abs=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            concurrence(StateVector.computational(3, 0))

    def test_a_density_matrix_is_refused(self):
        with pytest.raises(DimensionError, match="pure state"):
            concurrence(np.eye(4) / 4)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
    def test_weakly_entangled_states_to_50_digits(self, eps, monkeypatch):
        # the spin-flipped spectrum erred by up to 6.1 relative at eps = 1e-6; the pure-state
        # form takes no eigenvalues
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        worst = max(abs(concurrence(s) / mp_concurrence(s.amps) - 1)
                    for s in near_product_states(eps))
        assert worst <= 1e-9

    def test_cli_entangle_row_at_a_weak_plateau(self, tmp_path):
        # at U = 1e-3 w the plateau state is barely entangled (C = 2.5e-4); the row's printed
        # digits all hold
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the w/U advisory
            code = main(["entangle", "--mode", "effective", "--u-max", "1e-3",
                         "--output", str(tmp_path / "ent")])
        assert code == 0
        with open(tmp_path / "ent.csv") as fh:
            row = next(csv.DictReader(fh))
        expected = mp_concurrence(entangled_pair_reference(1e-3, 1.0).amps)
        assert abs(float(row["concurrence"]) / expected - 1) <= 1e-9


class TestEntropy:
    def test_bell(self):
        assert entanglement_entropy(bell_target(2), [0]) == pytest.approx(1.0, abs=1e-10)

    def test_product(self):
        assert entanglement_entropy(StateVector.computational(3, 5), [1]) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_single_cut(self):
        assert entanglement_entropy(bell_target(5), [2]) == pytest.approx(1.0, abs=1e-10)

    def test_complementary_partitions_agree(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(v / np.linalg.norm(v))
        s_a = entanglement_entropy(state, [0, 2])
        s_b = entanglement_entropy(state, [1, 3])
        assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_empty_partition(self):
        with pytest.raises(DimensionError):
            entanglement_entropy(bell_target(2), [])

    def test_matches_the_reduced_density_matrix_spectrum(self):
        # -sum l log2 l over eigvalsh(partial_trace) on random states and partitions
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = StateVector(v / np.linalg.norm(v))
            for _ in range(4):
                keep = list(rng.permutation(n)[:int(rng.integers(1, n + 1))])
                rest = [q for q in range(n) if q not in keep]
                for part in [keep] + ([rest] if rest else []):
                    lam = np.linalg.eigvalsh(partial_trace(state, part))
                    lam = lam[lam > 1e-15]
                    expected = -np.sum(lam * np.log2(lam))
                    assert abs(entanglement_entropy(state, part) - expected) <= 1e-12


class TestInstantaneousGap:
    def pair(self, U_sched):
        return DeviceGraph(
            dqds=(0, 1),
            tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0)),
                          TunnelTerm(1, Schedule.constant(1.0))),
            coulomb_links=dqd_pair_links(0, 1, U_sched),
        )

    def test_uncoupled_pair(self):
        assert instantaneous_gap(self.pair(Schedule.constant(0.0)), 0.0) == pytest.approx(2.0)

    def test_large_coupling_shrinks_gap(self):
        U = 200.0
        expected = (np.hypot(U, 4.0) - U) / 2.0  # ~ 4 w^2 / U
        g = instantaneous_gap(self.pair(Schedule.constant(U)), 0.0)
        assert g == pytest.approx(expected, rel=1e-9)
        assert g == pytest.approx(4.0 / U, rel=1e-2)

    def test_single_dqd(self):
        g = DeviceGraph(dqds=(0,), tunnel_terms=(TunnelTerm(0, Schedule.constant(1.0)),))
        assert instantaneous_gap(g, 0.0) == pytest.approx(2.0)

    def test_continuity_along_smooth_ramp(self):
        g = self.pair(Schedule.smooth(0.0, 60.0, 0.0, 10.0))
        ts = np.linspace(0.0, 10.0, 400)
        gaps = np.array([instantaneous_gap(g, t) for t in ts])
        # |dU/dt| <= 1.5 * 60 / 10 = 9; the gap is 1-Lipschitz in U
        assert np.max(np.abs(np.diff(gaps))) <= 9.0 * (ts[1] - ts[0]) * 1.05


class TestFitOscillation:
    def test_recovers_own_model(self):
        t = np.linspace(0.0, 40.0, 200)
        fit = fit_oscillation(t, np.sin(0.1 * t) ** 2)
        assert fit.frequency == pytest.approx(0.1, abs=1e-6)
        assert fit.doubled_frequency == pytest.approx(0.2, abs=2e-6)
        assert fit.oscillatory
        assert fit.rms_residual < 1e-9

    def test_offset_and_amplitude(self):
        t = np.linspace(0.0, 60.0, 300)
        fit = fit_oscillation(t, 0.2 + 0.5 * np.sin(0.17 * t) ** 2)
        assert fit.frequency == pytest.approx(0.17, abs=1e-6)
        assert fit.offset == pytest.approx(0.2, abs=1e-9)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-9)

    def test_constant_series_flagged(self):
        t = np.linspace(0.0, 10.0, 50)
        fit = fit_oscillation(t, np.full_like(t, 0.3))
        assert not fit.oscillatory
        assert fit.frequency == 0.0

    def test_too_few_samples(self):
        with pytest.raises(DimensionError):
            fit_oscillation(np.arange(5.0), np.arange(5.0))


def test_import_leaves_scipy_unloaded():
    # scipy.optimize takes ~0.4 s to import; only the tests' fit_oscillation needs it
    src = os.path.dirname(os.path.dirname(dqdsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, dqdsim, dqdsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
