import dataclasses
import itertools
import math

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem, sim
from qtransport.circuit import Circuit, GateKind, encode_register
from qtransport.classical_mc import exact_distribution
from qtransport.errors import InvariantError
from qtransport.qae import Predicate, build_a_operator
from qtransport.transport import (
    build_controlled_adder,
    build_distribution_loader,
    build_reaction_rotation,
    build_region_flag,
    build_transport_circuit,
    transport_distribution,
)

from conftest import TABLE_A1_REGIONS, basis_state, random_pmf, random_problem


class TestProblemValidation:
    def kwargs(self, **overrides):
        base = dict(x_qubits=4, max_flights=3, boundary=4, regions=TABLE_A1_REGIONS)
        base.update(overrides)
        return base

    def test_reference_problem_is_valid(self):
        TransportProblem(**self.kwargs())

    @pytest.mark.parametrize("boundary", [0, 3, 5, 16, -4])
    def test_bad_boundary(self, boundary):
        with pytest.raises(InvariantError):
            TransportProblem(**self.kwargs(boundary=boundary))

    def test_overflow_risk_rejected(self):
        # 6 flights x d_max 3 can reach 18 > 15
        with pytest.raises(InvariantError):
            TransportProblem(**self.kwargs(max_flights=6))

    def test_unequal_pmf_lengths(self):
        regions = (RegionSpec((0.5, 0.5), 0.2), RegionSpec((1.0,), 0.2))
        with pytest.raises(InvariantError):
            TransportProblem(**self.kwargs(regions=regions))

    def test_flight_cap_required(self):
        with pytest.raises(InvariantError):
            TransportProblem(**self.kwargs(max_flights=0))

    def test_bad_timing(self):
        with pytest.raises(InvariantError):
            TransportProblem(**self.kwargs(reaction_timing="mid_flight"))

    def test_pmf_must_normalize(self):
        with pytest.raises(InvariantError):
            RegionSpec((0.5, 0.6), 0.2)
        with pytest.raises(InvariantError):
            RegionSpec((1.2, -0.2), 0.2)

    def test_p_absorb_range(self):
        with pytest.raises(InvariantError):
            RegionSpec((1.0,), 1.5)


class TestDistributionLoader:
    def loaded_marginal(self, pmf, width):
        c = build_distribution_loader(pmf, width)
        state = sim.zero_state(max(width, 1))
        sim.apply_inplace(state, c)
        return sim.marginal(state, c.registers["D"])

    def test_reference_angle_tree(self):
        c = build_distribution_loader((0.3, 0.4, 0.2, 0.1), 2)
        kinds = {g.kind for g in c.gates}
        assert kinds == {GateKind.ROT_Y}
        root, high_branch, low_branch = c.gates
        assert root.targets == (1,) and root.controls == ()
        assert abs(root.angle - 2 * math.acos(math.sqrt(0.7))) < 1e-15
        assert high_branch.targets == (0,) and high_branch.controls == ((1, True),)
        assert abs(high_branch.angle - 2 * math.acos(math.sqrt(0.2 / 0.3))) < 1e-15
        assert low_branch.targets == (0,) and low_branch.controls == ((1, False),)
        assert abs(low_branch.angle - 2 * math.acos(math.sqrt(0.3 / 0.7))) < 1e-15

    def test_point_mass_keeps_zero_state(self):
        c = build_distribution_loader((1.0, 0.0, 0.0, 0.0), 2)
        assert all(g.angle == 0.0 for g in c.gates)
        assert len(c.gates) == 2  # the empty {2,3} branch is skipped
        state = sim.zero_state(2)
        sim.apply_inplace(state, c)
        assert state[0] == 1.0

    def test_zero_tail_branch_angle(self):
        # region-2 style pmf: the {2,3} branch carries all its mass at 2
        c = build_distribution_loader((0.4, 0.4, 0.2, 0.0), 2)
        high_branch = c.gates[1]
        assert high_branch.controls == ((1, True),)
        assert high_branch.angle == 0.0

    @pytest.mark.parametrize("pmf", [TABLE_A1_REGIONS[0].distance_pmf, TABLE_A1_REGIONS[1].distance_pmf])
    def test_reference_pmfs_exact(self, pmf):
        np.testing.assert_allclose(self.loaded_marginal(pmf, 2), pmf, atol=1e-12)

    def test_random_pmfs_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            width = int(rng.integers(1, 5))
            pmf = random_pmf(rng, int(rng.integers(1, (1 << width) + 1)))
            got = self.loaded_marginal(pmf, width)
            np.testing.assert_allclose(got[: len(pmf)], pmf, atol=1e-12)
            assert got[len(pmf):].max(initial=0.0) < 1e-12

    def test_width_too_small(self):
        with pytest.raises(InvariantError):
            build_distribution_loader((0.25,) * 4, 1)

    def test_invalid_pmf(self):
        with pytest.raises(InvariantError):
            build_distribution_loader((0.5, 0.4), 2)


class TestRegionFlag:
    def test_structure_matches_two_high_bit_gadget(self):
        # one X per high bit, fired when that bit is the highest 1
        c = build_region_flag((0, 1, 2, 3), 4, 4)
        assert [g.controls for g in c.gates] == [((3, True),), ((3, False), (2, True))]
        assert all(g.kind is GateKind.PAULI_X and g.targets == (4,) for g in c.gates)

    # each boundary on every x width from 1 to 6 that holds it
    @pytest.mark.parametrize("boundary", [1, 2, 4, 8, 16, 32])
    def test_exhaustive(self, boundary):
        k = boundary.bit_length() - 1
        for width in range(k + 1, 7):
            x_register = tuple(range(width))
            c = build_region_flag(x_register, boundary, width)
            assert c.gate_count == width - k, f"width {width}"
            assert all(g.controls for g in c.gates), f"width {width}"
            for xv in range(1 << width):
                out = basis_state(width + 1, encode_register(x_register, xv))
                sim.apply_inplace(out, c)
                flag = encode_register((width,), int(xv >= boundary))
                assert out[encode_register(x_register, xv, flag)] == 1.0, f"width {width}, x {xv}"

    def test_bad_boundaries(self):
        with pytest.raises(InvariantError):
            build_region_flag((0, 1, 2, 3), 3, 4)
        with pytest.raises(InvariantError):
            build_region_flag((0, 1, 2, 3), 16, 4)


class TestReactionRotation:
    def probability(self, anc_value):
        c = build_reaction_rotation(TABLE_A1_REGIONS, 0, 1)
        state = basis_state(2, anc_value)
        sim.apply_inplace(state, c)
        return sim.flag_probability(state, 1)

    def test_region1_scatter_probability(self):
        assert abs(self.probability(0) - 0.75) < 1e-12

    def test_region2_scatter_probability(self):
        assert abs(self.probability(1) - 0.60) < 1e-12

    def test_certain_absorption_is_identity(self):
        regions = (RegionSpec((1.0,), 1.0), RegionSpec((1.0,), 1.0))
        c = build_reaction_rotation(regions, 0, 1)
        assert all(g.angle == 0.0 for g in c.gates)
        state = basis_state(2, 0)
        sim.apply_inplace(state, c)
        assert state[0] == 1.0


class TestControlledAdder:
    def test_simple_addition(self):
        c = build_controlled_adder((0, 1, 2, 3), (4, 5), 6)
        idx = encode_register((0, 1, 2, 3), 5, encode_register((4, 5), 3, 1 << 6))
        out = basis_state(7, idx)
        sim.apply_inplace(out, c)
        want = encode_register((0, 1, 2, 3), 8, encode_register((4, 5), 3, 1 << 6))
        assert abs(out[want] - 1.0) < 1e-10

    def test_gated_off(self):
        c = build_controlled_adder((0, 1, 2, 3), (4, 5), 6)
        idx = encode_register((0, 1, 2, 3), 5, encode_register((4, 5), 3))
        out = basis_state(7, idx)
        sim.apply_inplace(out, c)
        assert abs(out[idx] - 1.0) < 1e-10

    def test_exhaustive_modular_addition(self):
        # x widths 1-5, ungated and gated; odd widths have a middle x qubit
        # that the Fourier transform leaves in place
        for width in range(1, 6):
            x_register = tuple(range(width))
            d_register = tuple(range(width, width + min(width, 2)))
            control = width + len(d_register)
            for gated in (False, True):
                c = build_controlled_adder(x_register, d_register, control if gated else None)
                n = control + 1
                for ctrl, xv, dv in itertools.product(
                    (0, 1), range(1 << width), range(1 << len(d_register))
                ):
                    idx = encode_register(x_register, xv)
                    idx = encode_register(d_register, dv, idx)
                    idx = encode_register((control,), ctrl, idx)
                    out = basis_state(n, idx)
                    sim.apply_inplace(out, Circuit(n, c.gates))
                    moved = ctrl or not gated
                    target_x = (xv + dv) % (1 << width) if moved else xv
                    want = encode_register(x_register, target_x, idx)
                    assert abs(out[want] - 1.0) < 1e-10, f"width {width}, gated {gated}"

    def test_uncontrolled_form(self):
        c = build_controlled_adder((0, 1, 2), (3,))
        idx = encode_register((0, 1, 2), 6, encode_register((3,), 1))
        out = basis_state(4, idx)
        sim.apply_inplace(out, c)
        want = encode_register((0, 1, 2), 7, encode_register((3,), 1))
        assert abs(out[want] - 1.0) < 1e-10

    def test_register_overlap_rejected(self):
        with pytest.raises(InvariantError):
            build_controlled_adder((0, 1), (1, 2), 3)
        with pytest.raises(InvariantError):
            build_controlled_adder((0, 1), (2, 3), 3)

    def test_d_wider_than_x_rejected(self):
        with pytest.raises(InvariantError):
            build_controlled_adder((0, 1), (2, 3, 4))


def table_a1_problem():
    return TransportProblem(x_qubits=4, max_flights=3, boundary=4, regions=TABLE_A1_REGIONS)


class TestTransportCircuit:
    def test_reference_register_budget(self, table_a1):
        tc = build_transport_circuit(table_a1)
        widths = {name: len(qs) for name, qs in tc.registers.items()}
        assert widths == {
            "X": 4, "AncR": 1, "D1": 2, "D2": 2, "D3": 2, "R2": 1, "R3": 1, "AncP": 1,
        }
        assert tc.circuit.qubit_count == 14

    def test_flag_untouched(self, table_a1):
        # A adds the flag one past the transport qubits; only the oracle's
        # gates, which follow the transport gates, touch it
        tc = build_transport_circuit(table_a1)
        a = build_a_operator(tc, Predicate.region2())
        assert a.registers["flag"] == (tc.circuit.qubit_count,)
        transport, oracle = a.gates[: tc.circuit.gate_count], a.gates[tc.circuit.gate_count :]
        assert transport == tc.circuit.gates
        assert all(tc.circuit.qubit_count not in g.qubits for g in transport)
        assert oracle and all(tc.circuit.qubit_count in g.qubits for g in oracle)

    def test_progress_flag_gating_structure(self, table_a1):
        # one compute/uncompute MCT pair per gated flight, none for flight 1
        tc = build_transport_circuit(table_a1)
        mcts = [
            g for g in tc.circuit.gates
            if g.kind is GateKind.PAULI_X and g.targets == (tc.anc_p_qubit,) and g.controls
        ]
        assert len(mcts) == 4
        assert [len(g.controls) for g in mcts] == [1, 1, 2, 2]
        r2, r3 = tc.r_qubit(2), tc.r_qubit(3)
        assert {q for q, _ in mcts[0].controls} == {r2}
        assert {q for q, _ in mcts[2].controls} == {r2, r3}

    def test_no_motion_problem(self):
        spec = RegionSpec((1.0,), 0.4)
        problem = TransportProblem(x_qubits=2, max_flights=2, boundary=2, regions=(spec, spec))
        dist = transport_distribution(problem)
        np.testing.assert_allclose(dist, [1, 0, 0, 0], atol=1e-12)

    def test_certain_absorption_gives_first_flight_pmf(self, table_a1):
        regions = tuple(RegionSpec(r.distance_pmf, 1.0) for r in table_a1.regions)
        problem = dataclasses.replace(table_a1, regions=regions)
        dist = transport_distribution(problem)
        np.testing.assert_allclose(dist[:4], table_a1.regions[0].distance_pmf, atol=1e-12)

    def test_gated_first_flight(self, table_a1):
        problem = dataclasses.replace(table_a1, first_flight_always=False)
        tc = build_transport_circuit(problem)
        assert "R1" in tc.registers
        assert tc.circuit.qubit_count == 15
        np.testing.assert_allclose(
            transport_distribution(problem), exact_distribution(problem), atol=1e-9
        )

    def test_ancillae_restored(self, table_a1):
        tc = build_transport_circuit(table_a1)
        state = sim.zero_state(tc.circuit.qubit_count)
        sim.apply_inplace(state, tc.circuit)
        assert sim.flag_probability(state, tc.anc_p_qubit) < 1e-12
        assert sim.flag_probability(state, tc.anc_r_qubit) < 1e-12


class TestOracleEquivalence:
    def test_reference_instance(self, table_a1):
        delta = np.abs(transport_distribution(table_a1) - exact_distribution(table_a1)).max()
        assert delta < 1e-9

    def test_randomized_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            problem = random_problem(rng)
            delta = np.abs(transport_distribution(problem) - exact_distribution(problem)).max()
            assert delta < 1e-9, problem
