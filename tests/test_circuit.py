import numpy as np
import pytest

from qtransport.circuit import (
    Circuit,
    Gate,
    GateKind,
    add_controls,
    compose,
    dump_circuit,
    h,
    inverse,
    mct,
    phase_shift,
    ry,
    x,
)
from qtransport.errors import InvariantError
from qtransport.transport import build_controlled_adder, build_region_flag

import reference
from conftest import basis_state, encode_register, register_value


def random_gate(rng, n):
    qubits = list(rng.permutation(n))
    kind = rng.integers(4)
    n_ctrl = int(rng.integers(0, min(3, n - 1) + 1))
    ctrls = [(int(q), bool(rng.integers(2))) for q in qubits[1 : 1 + n_ctrl]]
    t = int(qubits[0])
    angle = float(rng.uniform(-np.pi, np.pi))
    return [x(t, ctrls), h(t, ctrls), ry(angle, t, ctrls), phase_shift(angle, t, ctrls)][kind]


def random_circuit(rng, n, gates=20):
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(gates)))


class TestGateValidation:
    def test_single_target_kinds(self):
        with pytest.raises(InvariantError):
            Gate(GateKind.PAULI_X, (0, 1))

    def test_angle_required(self):
        with pytest.raises(InvariantError):
            Gate(GateKind.ROT_Y, (0,))
        with pytest.raises(InvariantError):
            Gate(GateKind.ROT_Y, (0,), angle=float("nan"))

    def test_angle_forbidden(self):
        with pytest.raises(InvariantError):
            Gate(GateKind.PAULI_X, (0,), angle=0.5)

    def test_distinct_qubits(self):
        with pytest.raises(InvariantError):
            x(0, [(0, True)])

    def test_negative_index(self):
        with pytest.raises(InvariantError):
            x(-1)


class TestCircuitValidation:
    def test_gate_out_of_range(self):
        with pytest.raises(InvariantError):
            Circuit(2, (x(2),))

    def test_register_overlap(self):
        with pytest.raises(InvariantError):
            Circuit(3, (), {"A": (0, 1), "B": (1, 2)})

    def test_register_out_of_range(self):
        with pytest.raises(InvariantError):
            Circuit(2, (), {"A": (0, 2)})


class TestCompose:
    def test_identity_case(self):
        c = Circuit(3, (x(0), h(1)), {"A": (0,)})
        empty = Circuit(3)
        assert compose(empty, c) == c

    def test_gate_counts_add(self):
        a = Circuit(2, (x(0),))
        b = Circuit(2, (h(1), x(1)))
        assert compose(a, b).gate_count == a.gate_count + b.gate_count

    def test_qubit_mismatch(self):
        with pytest.raises(InvariantError):
            compose(Circuit(2), Circuit(3))

    def test_register_collision(self):
        a = Circuit(3, (), {"A": (0,)})
        b = Circuit(3, (), {"A": (1,)})
        with pytest.raises(InvariantError):
            compose(a, b)

    def test_register_agreement_ok(self):
        a = Circuit(3, (), {"A": (0, 1)})
        assert compose(a, a).registers == {"A": (0, 1)}

    def test_unitarity_on_basis_states(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = random_circuit(rng, 5)
            roundtrip = compose(c, inverse(c))
            index = int(rng.integers(32))
            out = basis_state(5, index)
            reference.apply_inplace(out, roundtrip)
            want = np.zeros(32)
            want[index] = 1.0
            np.testing.assert_allclose(out, want, atol=1e-12)


class TestInverse:
    def test_involution(self):
        rng = np.random.default_rng(3)
        c = random_circuit(rng, 4)
        assert inverse(inverse(c)) == c

    def test_comparator_self_inverse_up_to_order(self):
        # the x>=4 comparator is two controlled X gates: each self-inverse
        comparator = build_region_flag((0, 1, 2, 3), 4, 4)
        assert inverse(comparator).gates == tuple(reversed(comparator.gates))

    def test_angles_negate(self):
        c = Circuit(2, (ry(0.7, 0), phase_shift(-0.2, 1)))
        assert inverse(c).gates == (phase_shift(0.2, 1), ry(-0.7, 0))


class TestAddControls:
    def adder(self):
        return build_controlled_adder((0, 1, 2), (3, 4))

    def test_gated_off_is_identity(self):
        wrapped = add_controls(self.adder(), [(5, True)])
        for xv in range(8):
            idx = encode_register((0, 1, 2), xv, encode_register((3, 4), 3))
            out = basis_state(6, idx)
            reference.apply_inplace(out, wrapped)
            assert abs(out[idx] - 1.0) < 1e-12

    def test_gated_on_matches_uncontrolled(self):
        plain = Circuit(6, self.adder().gates)
        wrapped = add_controls(plain, [(5, True)])
        for xv in range(8):
            for dv in range(4):
                idx = encode_register((0, 1, 2), xv, encode_register((3, 4), dv))
                base = basis_state(6, idx)
                reference.apply_inplace(base, plain)
                out = basis_state(6, idx | (1 << 5))
                reference.apply_inplace(out, wrapped)
                # same transform, shifted into the control=1 half-space
                np.testing.assert_allclose(out[1 << 5 :], base[: 1 << 5], atol=1e-12)

    def test_double_wrap_equals_single_wrap(self):
        rng = np.random.default_rng(7)
        inner = random_circuit(rng, 3, gates=8)
        c = Circuit(5, inner.gates)
        once = add_controls(c, [(3, True), (4, False)])
        twice = add_controls(add_controls(c, [(3, True)]), [(4, False)])
        for index in range(32):
            a = basis_state(5, index)
            reference.apply_inplace(a, once)
            b = basis_state(5, index)
            reference.apply_inplace(b, twice)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(InvariantError):
            add_controls(Circuit(3, (x(0),)), [(0, True)])


class TestRegisterEncoding:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_round_trip(self, width):
        qubits = tuple(range(1, 1 + width))
        for value in range(1 << width):
            assert register_value(encode_register(qubits, value), qubits) == value

    def test_value_out_of_range(self):
        with pytest.raises(InvariantError):
            encode_register((0, 1), 4)


class TestDumpFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        c = Circuit(
            6,
            tuple(random_gate(rng, 6) for _ in range(30)),
            {"X": (0, 1, 2), "flag": (5,)},
        )
        assert reference.parse_circuit(dump_circuit(c)) == c

    def test_format_shape(self):
        c = Circuit(3, (mct((0, 1), 2), ry(0.5, 1, [(2, False)])), {"X": (0, 1)})
        text = dump_circuit(c)
        lines = text.splitlines()
        assert lines[0] == "qubits=3"
        assert lines[1] == "register X=[0,1]"
        assert lines[2] == "PauliX targets=[2] controls=[+0,+1]"
        assert lines[3] == "RotY(0.5) targets=[1] controls=[-2]"

    def test_bad_header(self):
        with pytest.raises(InvariantError):
            reference.parse_circuit("register X=[0]\n")

    @pytest.mark.parametrize(
        "text",
        [
            # a control needs its +/- polarity sign
            pytest.param("qubits=3\nPauliX targets=[0] controls=[12]\n", id="unsigned-control"),
            pytest.param("qubits=three\n", id="header"),
            pytest.param("qubits=3\nRotY(half) targets=[1] controls=[]\n", id="angle"),
            pytest.param("qubits=3\nPauliX targets=[a] controls=[]\n", id="target"),
            pytest.param("qubits=3\nregister X=[0,b]\n", id="register-index"),
            # the two-target Swap kind is not part of the gate set
            pytest.param("qubits=3\nSwap targets=[0,1] controls=[]\n", id="swap"),
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(InvariantError):
            reference.parse_circuit(text)
