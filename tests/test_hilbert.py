import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim.errors import ConvergenceError, DegenerateBranchError, DimensionError
from dqdsim.hilbert import (
    StateVector,
    fidelity,
    gaussian_state,
    measure_qubit,
    partial_trace,
    tensor_product,
)
from dqdsim.metrics import entanglement_entropy
from dqdsim.protocol import ProtocolParams, bell_target, ramp_support
from references import (ID2, P0, P1, PAULI_X, align_phase, apply_local, basis_index, kron_le,
                        majorana_covariance, majorana_matrices, parent_gaussian_state)


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(v / np.linalg.norm(v))


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasisIndex:
    def test_single_qubit_ground(self):
        assert basis_index([0]) == 0

    def test_little_endian(self):
        assert basis_index([1, 0]) == 1
        assert basis_index([0, 1]) == 2

    def test_all_ones(self):
        assert basis_index([1, 1, 1]) == 7

    def test_bad_bit(self):
        with pytest.raises(DimensionError):
            basis_index([0, 2])

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10))
    def test_roundtrip(self, bits):
        idx = basis_index(bits)
        assert [(idx >> k) & 1 for k in range(len(bits))] == bits


class TestApplyLocal:
    def test_x_flips(self):
        out = apply_local(StateVector.computational(1, 0), PAULI_X, [0])
        assert np.allclose(out.amps, [0, 1])

    def test_x_on_q0_of_two(self):
        out = apply_local(StateVector.computational(2, 0), kron_le(PAULI_X, ID2), [0, 1])
        assert np.allclose(out.amps, StateVector.computational(2, 1).amps)

    def test_disagreement_projector_branch(self):
        # project (|01> + |00>)/sqrt(2) onto the disagreeing pair: only |01> survives
        proj = kron_le(P1, P0) + kron_le(P0, P1)
        amps = np.zeros(4, dtype=complex)
        amps[basis_index([0, 1])] = 1 / np.sqrt(2)
        amps[basis_index([0, 0])] = 1 / np.sqrt(2)
        state = StateVector(amps)
        expected = proj @ amps  # direct 4x4 matrix-vector oracle
        out = apply_local(state, proj, [0, 1])
        assert np.allclose(out.amps, expected)
        assert abs(out.amps[basis_index([0, 1])] - 1 / np.sqrt(2)) < 1e-14
        assert abs(np.linalg.norm(out.amps) - 1 / np.sqrt(2)) < 1e-14

    def test_matches_dense_embedding(self):
        rng = np.random.default_rng(42)
        for n in range(2, 6):
            state = random_state(rng, n)
            targets = list(rng.choice(n, size=2, replace=False))
            op = random_unitary(rng, 4)
            # dense oracle: permute each basis vector through the op
            dense = np.zeros((2**n, 2**n), dtype=complex)
            for col in range(2**n):
                bits = [(col >> k) & 1 for k in range(n)]
                sub = bits[targets[0]] | (bits[targets[1]] << 1)
                for sub_out in range(4):
                    bits_out = list(bits)
                    bits_out[targets[0]] = sub_out & 1
                    bits_out[targets[1]] = (sub_out >> 1) & 1
                    dense[basis_index(bits_out), col] += op[sub_out, sub]
            assert np.allclose(apply_local(state, op, targets).amps, dense @ state.amps)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            state = random_state(rng, n)
            k = 1 if n == 1 else int(rng.integers(1, 3))
            targets = list(rng.choice(n, size=k, replace=False))
            out = apply_local(state, random_unitary(rng, 2**k), targets)
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_repeated_target(self):
        with pytest.raises(DimensionError):
            apply_local(StateVector.computational(2, 0), np.eye(4), [0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_local(StateVector.computational(2, 0), np.eye(4), [0])


class TestPartialTrace:
    def test_product_keep_one(self):
        rho = partial_trace(StateVector.computational(2, 0), [1])
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_bell_marginal_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(bell, [0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_weighted_pair(self):
        a, b = 0.6, 0.8
        state = StateVector(np.array([a, 0, 0, b], dtype=complex))
        rho = partial_trace(state, [1])
        assert np.allclose(rho, np.diag([a**2, b**2]))

    def test_trace_one_and_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            keep = list(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            rho = partial_trace(random_state(rng, n), keep)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_empty_keep(self):
        with pytest.raises(DimensionError):
            partial_trace(StateVector.computational(2, 0), [])


class TestMeasurement:
    def test_probabilities(self):
        state = StateVector(np.array([0.6, 0.8j]))
        m = measure_qubit(state, 0)
        assert abs(m.p0 - 0.36) < 1e-14
        assert abs(m.p0 + m.p1 - 1.0) < 1e-12

    def test_bell_collapse(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        m = measure_qubit(bell, 0)
        assert np.allclose(m.branch(0).amps, [1, 0, 0, 0])
        assert np.allclose(m.branch(1).amps, [0, 0, 0, 1])

    def test_branches_orthogonal_and_recombine(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            q = int(rng.integers(0, n))
            m = measure_qubit(state, q)
            if m.p0 < 1e-14 or m.p1 < 1e-14:
                continue
            b0, b1 = m.branch(0).amps, m.branch(1).amps
            assert abs(np.vdot(b0, b1)) < 1e-12
            recombined = np.sqrt(m.p0) * b0 + np.sqrt(m.p1) * b1
            assert np.linalg.norm(recombined - state.amps) < 1e-12

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.uint8])
    def test_a_numpy_integer_qubit_is_read(self, kind):
        state = StateVector(np.array([0.6, 0, 0.8j, 0]))
        m, ref = measure_qubit(state, kind(1)), measure_qubit(state, 1)
        assert (m.p0, m.p1) == (ref.p0, ref.p1)
        assert np.array_equal(m.branch(1).amps, ref.branch(1).amps)

    def test_degenerate_branch(self):
        m = measure_qubit(StateVector.computational(1, 0), 0)
        with pytest.raises(DegenerateBranchError):
            m.branch(1)

    def test_sampled_statistics_documented_seed(self):
        # 1e4 shots of a balanced state with seed 7: within 3 sigma = 0.015 of 1/2
        state = StateVector(np.array([1, 1]) / np.sqrt(2))
        rng = np.random.default_rng(7)
        hits = sum(measure_qubit(state, 0, rng=rng).outcome == 0 for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 3 * 0.5 / 100

    def test_sampled_never_picks_empty_branch(self):
        for seed in range(20):
            m = measure_qubit(StateVector.computational(1, 1), 0, rng=seed)
            assert m.outcome == 1


# the three register reads that take the register apart through hilbert._bipartition
REGISTER_READS = {
    "partial_trace": lambda state, q: partial_trace(state, [q]),
    "entanglement_entropy": lambda state, q: entanglement_entropy(state, [q]),
    "measure_qubit": measure_qubit,
}


each_read = pytest.mark.parametrize("read", REGISTER_READS.values(), ids=list(REGISTER_READS))


class TestRegisterRefusals:
    @each_read
    def test_a_bare_array_is_refused(self, read):
        with pytest.raises(DimensionError, match="StateVector"):
            read(np.array([1.0, 0.0, 0.0, 0.0]), 0)

    @each_read
    @pytest.mark.parametrize("qubit", [0.5, 1.0, np.float64(1.0)], ids=repr)
    def test_a_qubit_that_is_not_an_integer_is_refused(self, read, qubit):
        with pytest.raises(DimensionError):
            read(StateVector.computational(2, 0), qubit)

    # the two reads that take a keep list, given a bare qubit or nothing in its place
    @pytest.mark.parametrize("split", [partial_trace, entanglement_entropy],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("keep", [1, np.int64(1), None], ids=repr)
    def test_a_keep_that_is_not_a_list_is_refused(self, split, keep):
        with pytest.raises(DimensionError, match="keep set"):
            split(StateVector.computational(2, 0), keep)


class TestFidelity:
    def test_identical(self):
        s = StateVector.computational(1, 0)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(StateVector.computational(1, 0),
                        StateVector.computational(1, 1)) == pytest.approx(0.0)

    @settings(deadline=None)
    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_global_phase_invariance(self, theta):
        s = StateVector(np.array([0.6, 0.8j]))
        rotated = StateVector(np.exp(1j * theta) * s.amps)
        assert abs(fidelity(s, rotated) - 1.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_state(rng, 3), random_state(rng, 3)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    @pytest.mark.parametrize("other", [np.array([1.0, 0.0]), np.eye(2) / 2, None])
    def test_anything_but_two_states_is_refused(self, other):
        state = StateVector.computational(1, 0)
        for args in ((other, state), (state, other)):
            with pytest.raises(DimensionError, match="two StateVectors"):
                fidelity(*args)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity(StateVector.computational(1, 0), StateVector.computational(2, 0))


class TestTypes:
    def test_state_rejects_bad_norm(self):
        with pytest.raises(DimensionError):
            StateVector(np.array([1.0, 1.0]))

    def test_state_rejects_bad_length(self):
        with pytest.raises(DimensionError):
            StateVector(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("amps", [
        [np.nan, 0.0], [np.inf, 0.0], [], [[1.0, 0.0], [0.0, 0.0]], 1.0,
    ], ids=["nan", "inf", "empty", "matrix", "scalar"])
    def test_state_fails_closed(self, amps):
        with pytest.raises(DimensionError):
            StateVector(np.array(amps, dtype=complex))

    def test_n_qubits_is_derived_and_not_a_setting(self):
        assert StateVector.computational(3, 5).n_qubits == 3
        assert tensor_product(StateVector.computational(1, 0), bell_target(2)).n_qubits == 3
        with pytest.raises(TypeError):
            StateVector(np.array([1.0, 0.0]), n_qubits=5)

    @pytest.mark.parametrize("make", [lambda: StateVector.computational(1, 0)], ids=["state"])
    def test_equality_and_hash_are_by_identity(self, make):
        # equal arrays compare by identity: an array == would raise on its truth value
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_tensor_product_order(self):
        # first factor owns the low qubit: |1>_q0 x |0>_q1 -> index 1
        one, zero = StateVector.computational(1, 1), StateVector.computational(1, 0)
        assert np.allclose(tensor_product(one, zero).amps,
                           StateVector.computational(2, 1).amps)


class TestMajoranaCovariance:
    """Gamma_pq = i <c_p c_q> by index arithmetic, and the state rebuilt from it."""

    @staticmethod
    def states():
        for n in (1, 2, 3, 4):
            yield f"|+>^{n}", np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
        for n in (2, 3, 4):
            yield f"bell_target({n})", bell_target(n).amps
        yield "ramped support", gaussian_state(ramp_support(ProtocolParams(U_max=10.0), 3, 30.0)[0])

    def test_matches_the_dense_majoranas_and_round_trips(self):
        for name, amps in self.states():
            n = int(np.log2(amps.size))
            c = majorana_matrices(n)
            dense = np.array([[0.0 if p == q else (1j * np.vdot(amps, cp @ cq @ amps)).real
                               for q, cq in enumerate(c)] for p, cp in enumerate(c)])
            gamma = majorana_covariance(amps)
            assert np.max(np.abs(gamma - dense)) <= 1e-14, name
            assert np.max(np.abs(gamma @ gamma + np.eye(2 * n))) <= 1e-12, name  # pure
            rebuilt = gaussian_state(gamma)
            assert np.linalg.norm(align_phase(rebuilt, amps) - amps) <= 1e-12, name

    def test_a_non_gaussian_state_does_not_round_trip(self):
        amps = random_state(np.random.default_rng(4), 3).amps
        rebuilt = gaussian_state(majorana_covariance(amps))
        assert np.linalg.norm(align_phase(rebuilt, amps) - amps) > 0.1

    @settings(max_examples=10, deadline=None)  # the reference takes ~1 s at M = 10
    @given(M=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
    def test_matches_the_parent_hamiltonian_ground_state(self, M, seed, sparse):
        # a random pure covariance O J O^T; a sparse O (a few Givens rotations) keeps ties
        # among the largest amplitudes, where fix_phase alone may pick another global phase
        rng = np.random.default_rng(seed)
        if sparse:
            O = np.eye(2 * M)
            for p, q in rng.integers(0, 2 * M, size=(M, 2)):
                if p != q:
                    c, s = np.cos(th := rng.uniform(0, 2 * np.pi)), np.sin(th)
                    O[[p, q]] = [c * O[p] - s * O[q], s * O[p] + c * O[q]]
        else:
            O = np.linalg.qr(rng.normal(size=(2 * M, 2 * M)))[0]
        J = np.block([[np.zeros((M, M)), np.eye(M)], [-np.eye(M), np.zeros((M, M))]])
        gamma = O @ J @ O.T
        amps, expected = gaussian_state(gamma), parent_gaussian_state(gamma)
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-14
        assert np.linalg.norm(align_phase(amps, expected) - expected) <= 1e-13

    def test_a_start_vector_without_overlap_is_refused(self, monkeypatch):
        class Zeros:
            def standard_normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
        with pytest.raises(ConvergenceError, match="norm"):
            gaussian_state(majorana_covariance(bell_target(3).amps))

    def test_align_phase(self):
        amps = random_state(np.random.default_rng(5), 2).amps
        assert np.max(np.abs(align_phase(np.exp(2.1j) * amps, amps) - amps)) <= 1e-15
        assert np.array_equal(align_phase(amps, np.zeros(4)), amps)  # no overlap, no phase
