import math
import tracemalloc

import numpy as np
import pytest

from qtransport.circuit import Circuit, h, mct, ry, x
from qtransport.errors import CapacityError, InvariantError
from qtransport.transport import _BLOCK, MAX_QUBITS_ENV, sample

from reference import apply_inplace, mask_probability, zero_state
from conftest import basis_state, low_marginal, marginal, register_value
from test_circuit import random_circuit

THETA_REGION1 = 2 * math.acos(math.sqrt(0.25))


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Independent reference: build the full matrix column by column from
    basis-state semantics, no bit-mask machinery shared with the engine."""
    n = circuit.qubit_count
    dim = 1 << n
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        u = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            if any(((b >> q) & 1) != int(pol) for q, pol in gate.controls):
                u[b, b] = 1.0
                continue
            t = gate.targets[0]
            bit = (b >> t) & 1
            if gate.kind.value == "PauliX":
                u[b ^ (1 << t), b] = 1.0
            elif gate.kind.value == "PhaseShift":
                u[b, b] = np.exp(1j * gate.angle) if bit else 1.0
            elif gate.kind.value == "Hadamard":
                s = 1 / math.sqrt(2)
                u[b & ~(1 << t), b] = s
                u[b | (1 << t), b] = -s if bit else s
            else:  # RotY
                c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
                if bit:
                    u[b & ~(1 << t), b] = -s
                    u[b, b] = c
                else:
                    u[b, b] = c
                    u[b | (1 << t), b] = s
        total = u @ total
    return total


class TestZeroState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(zero_state(1), [1, 0])

    def test_norm(self):
        assert abs(np.linalg.norm(zero_state(4)) - 1.0) < 1e-15

    def test_flagship_size(self):
        assert len(zero_state(15)) == 32768

    def test_too_small(self):
        with pytest.raises(InvariantError):
            zero_state(0)

    def test_ceiling(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "10")
        with pytest.raises(CapacityError):
            zero_state(11)
        zero_state(10)

    def test_refused_allocation_is_capacity_error(self, monkeypatch):
        # 2^50 amplitudes are 16 PiB, more than a 64-bit process can map, so
        # the allocation is refused at once and nothing is allocated
        monkeypatch.setenv(MAX_QUBITS_ENV, "60")
        with pytest.raises(CapacityError, match=f"{16 << 50} bytes"):
            zero_state(50)


class TestApply:
    def test_roty_amplitudes(self):
        state = zero_state(1)
        apply_inplace(state, Circuit(1, (ry(THETA_REGION1, 0),)))
        np.testing.assert_allclose(
            state,
            [math.cos(THETA_REGION1 / 2), math.sin(THETA_REGION1 / 2)],
            atol=1e-15,
        )

    def test_toffoli_truth_table(self):
        toffoli = Circuit(3, (mct((0, 2), 1),))
        for b in range(8):
            out = basis_state(3, b)
            apply_inplace(out, toffoli)
            want = b ^ 2 if (b & 1) and (b & 4) else b
            assert out[want] == 1.0

    def test_qubit_count_mismatch(self):
        # six amplitudes are no state of any qubit count
        amplitudes = np.zeros(6, dtype=np.complex128)
        amplitudes[0] = 1.0
        with pytest.raises(InvariantError):
            apply_inplace(amplitudes, Circuit(2, (x(0),)))

    @pytest.mark.parametrize("state_qubits", [2, 4])
    def test_state_size_must_match_circuit(self, state_qubits):
        circuit = Circuit(3, (h(0), x(1, [(0, True)])))
        state = zero_state(state_qubits)
        with pytest.raises(InvariantError, match="circuit has 3 qubits"):
            apply_inplace(state, circuit)
        np.testing.assert_array_equal(state, zero_state(state_qubits))

    def test_norm_preserved_long_random_circuit(self):
        rng = np.random.default_rng(5)
        c = random_circuit(rng, 6, gates=1000)
        state = zero_state(6)
        apply_inplace(state, c)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_norm_drift_per_gate(self):
        rng = np.random.default_rng(61)
        state = zero_state(5)
        for _ in range(200):
            before = np.linalg.norm(state)
            apply_inplace(state, Circuit(5, (random_circuit(rng, 5, gates=1).gates)))
            assert abs(np.linalg.norm(state) - before) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(17)
        dim = 1 << n
        for _ in range(5):
            c = random_circuit(rng, n, gates=15)
            u = dense_unitary(c)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
            state = amps.copy()
            apply_inplace(state, c)
            np.testing.assert_allclose(state, u @ amps, atol=1e-12)

    def test_unnormalised_state_rejected(self):
        # the norm is checked even when there are no gates to run
        state = 2.0 * zero_state(2)
        with pytest.raises(InvariantError):
            apply_inplace(state, Circuit(2))

    def test_unnormalised_array_rejected_in_place(self):
        amplitudes = np.array([1.0, 1.0, 0.0, 0.0], dtype=np.complex128)
        with pytest.raises(InvariantError):
            apply_inplace(amplitudes, Circuit(2, (x(1),)))

    def test_controlled_circuit_acts_only_on_matching_subspace(self):
        from qtransport.circuit import add_controls

        rng = np.random.default_rng(29)
        inner = Circuit(6, random_circuit(rng, 4, gates=10).gates)
        wrapped = add_controls(inner, [(4, True), (5, False)])
        for b in range(64):
            out = basis_state(6, b)
            apply_inplace(out, wrapped)
            if ((b >> 4) & 1) == 1 and ((b >> 5) & 1) == 0:
                want = basis_state(6, b)
                apply_inplace(want, inner)
                np.testing.assert_allclose(out, want, atol=1e-12)
            else:
                assert out[b] == 1.0

    def test_loader_style_roty_circuits_have_real_nonnegative_amplitudes(self):
        # prefix-tree RotY circuits rotate each target only inside branches
        # where its |1> side is still empty, so amplitudes stay in [0, 1];
        # arbitrary RotY sequences do not have this property
        from qtransport.circuit import add_controls
        from qtransport.transport import build_distribution_loader

        from conftest import random_pmf

        rng = np.random.default_rng(41)
        for _ in range(20):
            width = int(rng.integers(1, 5))
            pmf = random_pmf(rng, int(rng.integers(1, (1 << width) + 1)))
            loader = Circuit(width + 1, build_distribution_loader(pmf, tuple(range(width))).gates)
            wrapped = add_controls(loader, [(width, False)])
            state = zero_state(width + 1)
            apply_inplace(state, wrapped)
            assert np.abs(state.imag).max() < 1e-12
            assert state.real.min() > -1e-12


class TestMarginal:
    @pytest.mark.parametrize("qubits", [(5,), (0, 0), (-1,), (0, 3)])
    def test_bad_register_rejected(self, qubits):
        with pytest.raises(InvariantError):
            marginal(zero_state(3), qubits)

    def test_zero_state(self):
        np.testing.assert_array_equal(marginal(zero_state(4), (0, 1, 2, 3)), [1] + [0] * 15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        state = zero_state(5)
        apply_inplace(state, random_circuit(rng, 5, gates=40))
        for qubits in ((0, 2), (1, 3, 4)):
            assert abs(marginal(state, qubits).sum() - 1.0) < 1e-9

    def test_register_order_is_lsb_first(self):
        state = zero_state(3)
        apply_inplace(state, Circuit(3, (x(1),)))
        assert marginal(state, (0, 1, 2))[2] == 1.0

    def test_out_of_order_register_matches_per_index_sum(self):
        rng = np.random.default_rng(23)
        qubits = (3, 0, 2)
        state = zero_state(5)
        apply_inplace(state, random_circuit(rng, 5, gates=40))
        want = np.zeros(1 << len(qubits))
        for b, amp in enumerate(state):
            want[register_value(b, qubits)] += abs(amp) ** 2
        np.testing.assert_allclose(marginal(state, qubits), want, atol=1e-14)

    def test_state_left_untouched(self):
        rng = np.random.default_rng(31)
        state = zero_state(4)
        apply_inplace(state, random_circuit(rng, 4, gates=30))
        before = state.copy()
        marginal(state, (1, 3))
        np.testing.assert_array_equal(state, before)


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


class TestLowMarginal:
    # 18 qubits is four blocks of 2^16 amplitudes; a 17-qubit register has
    # rows longer than a block
    @pytest.mark.parametrize("width", [1, 3, 16, 17, 18])
    def test_matches_marginal(self, width):
        state = random_state(18, width)
        want = marginal(state, tuple(range(width)))
        np.testing.assert_allclose(low_marginal(state, width), want, rtol=1e-12, atol=0)

    def test_single_block_is_bitwise_marginal(self):
        state = random_state(12, 5)
        assert low_marginal(state, 4).tobytes() == marginal(state, (0, 1, 2, 3)).tobytes()

    def test_state_left_untouched(self):
        state = random_state(18, 7)
        before = state.copy()
        low_marginal(state, 5)
        np.testing.assert_array_equal(state, before)


def flag_mask(qubit: int) -> np.ndarray:
    """Mask over the qubits up to `qubit` selecting the values with it set."""
    return np.arange(2 << qubit) >= 1 << qubit


class TestFlagProbability:
    # a qubit's |1> probability read through mask_probability
    def test_zero_state(self):
        assert mask_probability(zero_state(3), flag_mask(1)) == 0.0

    def test_after_x(self):
        state = zero_state(3)
        apply_inplace(state, Circuit(3, (x(1),)))
        assert mask_probability(state, flag_mask(1)) == 1.0

    def test_reaction_angle(self):
        state = zero_state(1)
        apply_inplace(state, Circuit(1, (ry(THETA_REGION1, 0),)))
        assert abs(mask_probability(state, flag_mask(0)) - 0.75) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(InvariantError):
            mask_probability(zero_state(2), flag_mask(2))

    # qubits below, at and above the 2^16-amplitude block of an 18-qubit state
    @pytest.mark.parametrize("qubit", [0, 5, 15, 16, 17])
    def test_blocked_sum_matches_direct_sum(self, qubit):
        state = random_state(18, qubit)
        bits = (np.arange(len(state)) >> qubit) & 1
        want = np.sum(np.abs(state[bits == 1]) ** 2)
        assert abs(mask_probability(state, flag_mask(qubit)) - want) <= 1e-12


class TestMaskProbability:
    @pytest.mark.parametrize("length", [0, 3, 6, 16])
    def test_bad_mask_length(self, length):
        # not a power of two, or longer than the 8-amplitude state
        with pytest.raises(InvariantError):
            mask_probability(zero_state(3), np.ones(length, dtype=bool))

    # masks shorter than, as long as and longer than a 2^16-amplitude block
    @pytest.mark.parametrize("width", [1, 5, 16, 17, 18])
    def test_matches_direct_sum(self, width):
        state = random_state(18, width)
        mask = np.random.default_rng(width).random(1 << width) < 0.4
        want = np.sum(np.abs(state[np.tile(mask, len(state) >> width)]) ** 2)
        assert abs(mask_probability(state, mask) - want) <= 1e-12

    def test_accepts_a_list(self):
        state = random_state(3, 1)
        want = np.sum(np.abs(state[1::2]) ** 2)
        assert mask_probability(state, [False, True]) == pytest.approx(want, abs=1e-15)

    def test_top_qubit_read_is_the_half_sum(self):
        # with the flag on the top qubit, the masked read adds zeros where the
        # half sum has nothing, so the two agree bit for bit
        for n in (4, 10, 17, 18):
            state = random_state(n, n)
            half = state[len(state) // 2 :]
            blocks = [half[k : k + _BLOCK] for k in range(0, len(half), _BLOCK)]
            want = 0.0
            for block in blocks:
                want += np.square(np.abs(block)).sum()
            assert mask_probability(state, flag_mask(n - 1)) == float(want), n

    def test_scratch_is_one_block(self):
        state = random_state(18, 3)
        mask = np.arange(1 << 17) % 3 == 0
        tracemalloc.start()
        try:
            mask_probability(state, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 block, the inverted mask and small change
        assert peak < 8 * _BLOCK + 2 * len(mask) + (16 << 10)


class TestSample:
    def test_deterministic_state(self):
        state = zero_state(3)
        apply_inplace(state, Circuit(3, (x(0), x(2))))
        counts = sample(marginal(state, (0, 1, 2)), 1000, seed=0)
        assert counts[5] == 1000
        assert counts.sum() == 1000

    def test_same_seed_identical(self):
        rng = np.random.default_rng(9)
        state = zero_state(4)
        apply_inplace(state, random_circuit(rng, 4, gates=20))
        probs = marginal(state, (0, 1, 2, 3))
        a = sample(probs, 5000, seed=42)
        b = sample(probs, 5000, seed=42)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != sample(probs, 5000, seed=43))

    def test_single_qubit_form(self):
        state = zero_state(2)
        apply_inplace(state, Circuit(2, (h(0),)))
        counts = sample(marginal(state, (0,)), 10000, seed=1)
        assert counts.shape == (2,)
        assert abs(counts[1] / 10000 - 0.5) < 0.02

    def test_zero_shots_rejected(self):
        with pytest.raises(InvariantError):
            sample(marginal(zero_state(2), (0,)), 0, seed=0)

    @pytest.mark.parametrize("shots", [1, 5, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocks_draw_the_single_stream(self, shots):
        # the counts a single draw of every shot gives, across block edges
        probs = np.random.default_rng(4).random(37)
        probs /= probs.sum()
        u = np.random.default_rng(8).random(shots)
        outcomes = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), 36)
        want = np.bincount(outcomes, minlength=37)
        np.testing.assert_array_equal(sample(probs, shots, seed=8), want)

    def test_scratch_is_one_block(self):
        # a block's uniforms and outcome indices, and the last block's
        # indices until they are replaced: 8 bytes each per shot of a block,
        # not per shot of the run (48 blocks of 8 bytes here)
        probs = np.full(8, 1 / 8)
        tracemalloc.start()
        try:
            counts = sample(probs, 16 * _BLOCK + 3, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 16 * _BLOCK + 3
        assert peak <= 4 * 8 * _BLOCK

    def test_empirical_matches_exact_ks(self):
        # KS distance between empirical and exact CDFs at one million shots
        rng = np.random.default_rng(13)
        state = zero_state(4)
        apply_inplace(state, random_circuit(rng, 4, gates=30))
        probs = marginal(state, (0, 1, 2, 3))
        shots = 1_000_000
        counts = sample(probs, shots, seed=6)
        exact_cdf = np.cumsum(probs)
        empirical_cdf = np.cumsum(counts / shots)
        d = np.abs(empirical_cdf - exact_cdf).max()
        assert d < 2.0 / math.sqrt(shots)
