import dataclasses
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem
from qtransport.circuit import Circuit, GateKind, add_controls
from qtransport.classical_mc import exact_distribution
from qtransport.errors import InvariantError
from qtransport.qae import Predicate, build_a_operator
from qtransport.transport import (
    _BLOCK,
    DEFAULT_MAX_QUBITS,
    MOVE,
    REACT,
    _flights,
    _loaded_amplitudes,
    build_controlled_adder,
    build_distribution_loader,
    build_reaction_rotation,
    build_region_flag,
    build_transport_circuit,
    transport_branches,
    transport_distribution,
    transport_registers,
    transport_widths,
)

import reference
from conftest import (
    SRC,
    TABLE_A1_REGIONS,
    basis_state,
    branch_support,
    embed_support,
    encode_register,
    low_marginal,
    marginal,
    problem_to_dict,
    random_pmf,
    random_problem,
    scatter_branches,
)


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


class TestSteps:
    @pytest.mark.parametrize(
        "timing, first_always, want",
        [
            ("pre_flight", True, (MOVE, REACT, MOVE, REACT, MOVE)),
            ("pre_flight", False, (REACT, MOVE, REACT, MOVE, REACT, MOVE)),
            ("post_flight", True, (MOVE, REACT, MOVE, REACT, MOVE, REACT)),
            ("post_flight", False, (REACT, MOVE, REACT, MOVE, REACT, MOVE, REACT)),
        ],
    )
    def test_three_flights(self, table_a1, timing, first_always, want):
        problem = dataclasses.replace(
            table_a1, reaction_timing=timing, first_flight_always=first_always
        )
        assert problem.steps() == want


class TestDistributionLoader:
    def loaded_marginal(self, pmf, width):
        c = build_distribution_loader(pmf, tuple(range(width)))
        state = reference.zero_state(max(width, 1))
        reference.apply_inplace(state, c)
        return marginal(state, c.registers["D"])

    def test_reference_angle_tree(self):
        c = build_distribution_loader((0.3, 0.4, 0.2, 0.1), (0, 1))
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
        c = build_distribution_loader((1.0, 0.0, 0.0, 0.0), (0, 1))
        assert all(g.angle == 0.0 for g in c.gates)
        assert len(c.gates) == 2  # the empty {2,3} branch is skipped
        state = reference.zero_state(2)
        reference.apply_inplace(state, c)
        assert state[0] == 1.0

    def test_zero_tail_branch_angle(self):
        # region-2 style pmf: the {2,3} branch carries all its mass at 2
        c = build_distribution_loader((0.4, 0.4, 0.2, 0.0), (0, 1))
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

    def test_loaded_amplitudes_are_the_kernel_bits(self):
        # the register-level pass reads the loader's amplitudes from its
        # gate angles; they must be the gate kernel's bits
        rng = np.random.default_rng(23)
        pmfs = [(1.0, 0.0, 0.0, 0.0), (0.4, 0.4, 0.2, 0.0), TABLE_A1_REGIONS[0].distance_pmf]
        pmfs += [random_pmf(rng, int(rng.integers(1, 17))) for _ in range(200)]
        for pmf in pmfs:
            width = (len(pmf) - 1).bit_length() + int(rng.integers(0, 2))
            state = reference.zero_state(width) if width else np.ones(1, dtype=np.complex128)
            reference.apply_inplace(state, build_distribution_loader(pmf, range(width)))
            got = _loaded_amplitudes(pmf, width)
            np.testing.assert_array_equal(got.view(np.uint64), state.view(np.uint64))

    def test_empty_register_has_no_gates(self):
        c = build_distribution_loader((1.0,), ())
        assert c.gates == () and c.qubit_count == 0 and c.registers == {"D": ()}

    def test_width_too_small(self):
        with pytest.raises(InvariantError):
            build_distribution_loader((0.25,) * 4, (0,))

    def test_invalid_pmf(self):
        with pytest.raises(InvariantError):
            build_distribution_loader((0.5, 0.4), (0, 1))


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
                reference.apply_inplace(out, c)
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
        reference.apply_inplace(state, c)
        return marginal(state, (1,))[1]

    def test_region1_scatter_probability(self):
        assert abs(self.probability(0) - 0.75) < 1e-12

    def test_region2_scatter_probability(self):
        assert abs(self.probability(1) - 0.60) < 1e-12

    def test_certain_absorption_is_identity(self):
        regions = (RegionSpec((1.0,), 1.0), RegionSpec((1.0,), 1.0))
        c = build_reaction_rotation(regions, 0, 1)
        assert all(g.angle == 0.0 for g in c.gates)
        state = basis_state(2, 0)
        reference.apply_inplace(state, c)
        assert state[0] == 1.0


class TestControlledAdder:
    def test_simple_addition(self):
        c = build_controlled_adder((0, 1, 2, 3), (4, 5), 6)
        idx = encode_register((0, 1, 2, 3), 5, encode_register((4, 5), 3, 1 << 6))
        out = basis_state(7, idx)
        reference.apply_inplace(out, c)
        want = encode_register((0, 1, 2, 3), 8, encode_register((4, 5), 3, 1 << 6))
        assert abs(out[want] - 1.0) < 1e-10

    def test_gated_off(self):
        c = build_controlled_adder((0, 1, 2, 3), (4, 5), 6)
        idx = encode_register((0, 1, 2, 3), 5, encode_register((4, 5), 3))
        out = basis_state(7, idx)
        reference.apply_inplace(out, c)
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
                    reference.apply_inplace(out, Circuit(n, c.gates))
                    moved = ctrl or not gated
                    target_x = (xv + dv) % (1 << width) if moved else xv
                    want = encode_register(x_register, target_x, idx)
                    assert abs(out[want] - 1.0) < 1e-10, f"width {width}, gated {gated}"

    def test_uncontrolled_form(self):
        c = build_controlled_adder((0, 1, 2), (3,))
        idx = encode_register((0, 1, 2), 6, encode_register((3,), 1))
        out = basis_state(4, idx)
        reference.apply_inplace(out, c)
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
        assert tc.qubit_count == 14

    @pytest.mark.parametrize("timing", ["pre_flight", "post_flight"])
    @pytest.mark.parametrize("first_always", [True, False])
    def test_layout_is_the_built_registers(self, table_a1, first_always, timing):
        # same names, qubits and order, so `resources --problem` prints the
        # same JSON from the layout as from the built circuit
        problems = [table_a1] + [random_problem(np.random.default_rng(s)) for s in range(300)]
        for problem in problems:
            problem = dataclasses.replace(
                problem, first_flight_always=first_always, reaction_timing=timing
            )
            built = build_transport_circuit(problem).registers
            assert list(transport_registers(problem).items()) == list(built.items()), problem

    @pytest.mark.parametrize("first_always", [True, False])
    @pytest.mark.parametrize("no_motion", [False, True])
    def test_widths_count_the_layout(self, table_a1, first_always, no_motion):
        # the closed form against the register layout it stands for; d_max 0
        # leaves every D_m empty
        still = RegionSpec((1.0,), 0.3)
        problems = [table_a1] + [random_problem(np.random.default_rng(s)) for s in range(300)]
        for problem in problems:
            problem = dataclasses.replace(problem, first_flight_always=first_always)
            if no_motion:
                problem = dataclasses.replace(problem, regions=(still, still))
            registers = transport_registers(problem)
            n = sum(map(len, registers.values()))
            assert transport_widths(problem) == (n, n - 2), problem
            assert len(registers["AncR"] + registers["AncP"]) == 2

    def test_flag_untouched(self, table_a1):
        # A adds the flag one past the transport qubits; only the oracle's
        # gates, which follow the transport gates, touch it
        tc = build_transport_circuit(table_a1)
        a = build_a_operator(table_a1, Predicate.region2())
        assert a.registers["flag"] == (tc.qubit_count,)
        transport, oracle = a.gates[: tc.gate_count], a.gates[tc.gate_count :]
        assert transport == tc.gates
        assert all(tc.qubit_count not in g.qubits for g in transport)
        assert oracle and all(tc.qubit_count in g.qubits for g in oracle)

    def test_progress_flag_gating_structure(self, table_a1):
        # one compute/uncompute MCT pair per gated flight, none for flight 1
        tc = build_transport_circuit(table_a1)
        mcts = [
            g for g in tc.gates
            if g.kind is GateKind.PAULI_X and g.targets == tc.registers["AncP"] and g.controls
        ]
        assert len(mcts) == 4
        assert [len(g.controls) for g in mcts] == [1, 1, 2, 2]
        (r2,), (r3,) = tc.registers["R2"], tc.registers["R3"]
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
        assert tc.qubit_count == 15
        np.testing.assert_allclose(
            transport_distribution(problem), exact_distribution(problem), atol=1e-9
        )

    def test_assembled_from_gadget_builders(self, table_a1):
        # every gate of each builder's output appears in the assembled circuit
        rng = np.random.default_rng(9)
        for problem in [table_a1] + [random_problem(rng) for _ in range(20)]:
            tc = build_transport_circuit(problem)
            assembled = set(tc.gates)
            registers = tc.registers
            (anc_r,), (anc_p,) = registers["AncR"], registers["AncP"]
            for m in range(1, problem.max_flights + 1):
                gated = any(problem.has_reaction(j) for j in range(1, m + 1))
                gadgets = [
                    add_controls(build_distribution_loader(spec.distance_pmf, registers[f"D{m}"]),
                                 [(anc_r, polarity)])
                    for polarity, spec in ((False, problem.regions[0]), (True, problem.regions[1]))
                ]
                gadgets.append(build_controlled_adder(
                    registers["X"], registers[f"D{m}"], anc_p if gated else None
                ))
                if problem.has_reaction(m):
                    gadgets.append(build_reaction_rotation(problem.regions, anc_r, registers[f"R{m}"][0]))
                for gadget in gadgets:
                    assert gadget.gates and set(gadget.gates) <= assembled, (problem, m)

    def test_ancillae_restored(self, table_a1):
        tc = build_transport_circuit(table_a1)
        state = reference.zero_state(tc.qubit_count)
        reference.apply_inplace(state, tc)
        assert marginal(state, tc.registers["AncP"])[1] < 1e-12
        assert marginal(state, tc.registers["AncR"])[1] < 1e-12


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



def gate_and_register_states(problem, x_state=None):
    """Final state of the transport circuit from the gate kernel and from the
    transport branches, both started from |0> or from x_state on X; the
    branches are scattered into the support and it is embedded in a full
    state that is zero off it. From x_state the branches start one per
    position, each with its amplitude."""
    tc = build_transport_circuit(problem)
    gate_level = reference.zero_state(tc.qubit_count)
    if x_state is None:
        support = branch_support(problem)
    else:
        gate_level[: len(x_state)] = x_state
        start = np.arange(len(x_state))
        support = scatter_branches(*_flights(problem, x_state, start), problem)
    reference.apply_inplace(gate_level, tc)
    return gate_level, embed_support(support, tc)


# every d_max entry positive, as in the benchmark's exact_wide problems
WIDE_REGIONS = (RegionSpec((0.25, 0.35, 0.3, 0.1), 0.2), RegionSpec((0.1, 0.5, 0.3, 0.1), 0.45))


class TestRegisterLevel:
    @pytest.mark.parametrize("timing", ["pre_flight", "post_flight"])
    @pytest.mark.parametrize("first_always", [True, False])
    @pytest.mark.parametrize(
        "shape",
        [(4, 3, 4, TABLE_A1_REGIONS), (5, 4, 4, WIDE_REGIONS), (2, 3, 2, (RegionSpec((1.0,), 0.4),) * 2)],
        ids=["table_a1", "exact_wide", "d_max_0"],
    )
    def test_full_state_matches_gate_level(self, shape, first_always, timing):
        x_qubits, flights, boundary, regions = shape
        problem = TransportProblem(x_qubits, flights, boundary, regions, first_always, timing)
        want, got = gate_and_register_states(problem)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_full_state_matches_gate_level_on_random_problems(self):
        worst = 0.0
        for seed in range(300):
            want, got = gate_and_register_states(random_problem(np.random.default_rng(seed)))
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-12

    def test_any_x_state(self, table_a1):
        # the pass needs |0> only on the registers other than X
        rng = np.random.default_rng(4)
        x_state = rng.normal(size=16) + 1j * rng.normal(size=16)
        want, got = gate_and_register_states(table_a1, x_state / np.linalg.norm(x_state))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("first_always", [True, False])
    def test_any_x_state_wraps_inside_region_1(self, first_always):
        # 4 positions, boundary 2, d up to 3: for d = 3, size - d = 1 falls
        # inside region 1, so that region's shift wraps part of its range
        regions = (RegionSpec((0.1, 0.2, 0.3, 0.4), 0.3), RegionSpec((0.4, 0.1, 0.2, 0.3), 0.6))
        problem = TransportProblem(2, 1, 2, regions, first_always)
        rng = np.random.default_rng(5)
        x_state = rng.normal(size=4) + 1j * rng.normal(size=4)
        want, got = gate_and_register_states(problem, x_state / np.linalg.norm(x_state))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_distribution_peak_is_the_support(self):
        # x_qubits 6, 5 flights: a 22-qubit circuit whose 20-qubit support
        # is 16 MiB; the blocked marginal adds one block, not a float64 copy
        problem = TransportProblem(6, 5, 4, TABLE_A1_REGIONS)
        assert sum(map(len, transport_registers(problem).values())) == 22
        tracemalloc.start()
        try:
            transport_distribution(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (16 << 20)

    def test_pass_scratch_is_one_block(self):
        # x_qubits 20, one ungated flight with d_max 1: the support is 32 MiB,
        # but the branches are two amplitudes and two positions
        spec = RegionSpec((0.5, 0.5), 0.5)
        problem = TransportProblem(20, 1, 2, (spec, spec))
        tracemalloc.start()
        try:
            amplitudes, positions = transport_branches(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * _BLOCK
        # (D, X) = (0, 0) and (1, 1), each with amplitude sqrt(1/2)
        np.testing.assert_array_equal(positions, [0, 1])
        np.testing.assert_allclose(amplitudes, np.sqrt(0.5), rtol=0, atol=1e-15)
        # the marginal adds its 8 MiB output and a few small objects, even
        # though one X row is longer than a block
        tracemalloc.start()
        try:
            dist = transport_distribution(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dist.nbytes + 16 * _BLOCK + (64 << 10)
        np.testing.assert_allclose(dist[:2], [0.5, 0.5], rtol=0, atol=1e-15)

    def test_norm_check_raises_under_optimize(self):
        # `python -O` strips asserts, so the check must be a raise; the
        # flights keep the norm of their start, here 2
        script = textwrap.dedent("""
            import numpy as np
            from qtransport import RegionSpec, TransportProblem
            from qtransport.transport import _flights
            spec = RegionSpec((0.5, 0.5), 0.5)
            problem = TransportProblem(2, 1, 2, (spec, spec))
            _flights(problem, np.full(1, 2.0 + 0j), np.zeros(1, dtype=np.intp))
        """)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 1
        assert "InvariantError: statevector norm drifted to 2.0" in result.stderr


# the 26-qubit (7, 6) table-A1 circuit, the widest `exact` runs at the
# default ceiling; its dense support would be 24 qubits, 256 MiB
CEILING_PROBLEM = TransportProblem(7, 6, 4, TABLE_A1_REGIONS)


class TestBranches:
    def test_one_branch_per_register_value(self, table_a1):
        amplitudes, positions = transport_branches(table_a1)
        support = transport_widths(table_a1)[1]
        assert len(amplitudes) == len(positions) == 1 << (support - table_a1.x_qubits)
        assert amplitudes.dtype == np.complex128
        assert ((0 <= positions) & (positions < table_a1.position_count)).all()

    # every block layout of the dense reader: one block holding every row
    # (x_qubits 4 and 5), several rows per block (9 and 15), one row per
    # block (16), and rows longer than a block (17); from 9 on the supports
    # are past 2^16 amplitudes
    @pytest.mark.parametrize(
        "x_qubits, flights, boundary",
        [(4, 3, 4), (5, 4, 4), (9, 3, 1), (15, 1, 8), (16, 1, 4), (17, 1, 1)],
    )
    def test_distribution_is_the_dense_marginal_bitwise(self, x_qubits, flights, boundary):
        problem = TransportProblem(x_qubits, flights, boundary, TABLE_A1_REGIONS)
        want = low_marginal(branch_support(problem), x_qubits)
        assert transport_distribution(problem).tobytes() == want.tobytes()

    def test_distribution_is_the_dense_marginal_bitwise_on_random_problems(self):
        for seed in range(300):
            problem = random_problem(np.random.default_rng(seed), 18)
            want = low_marginal(branch_support(problem), problem.x_qubits)
            assert transport_distribution(problem).tobytes() == want.tobytes(), seed

    def test_ceiling_distribution_peak(self):
        # 2^17 branches: 2 MiB of amplitudes and 1 MiB of positions
        assert transport_widths(CEILING_PROBLEM)[0] == DEFAULT_MAX_QUBITS
        tracemalloc.start()
        try:
            dist = transport_distribution(CEILING_PROBLEM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20
        assert abs(dist.sum() - 1.0) < 1e-9

    def test_ceiling_runs_in_200_mb_of_address_space(self, tmp_path):
        # the dense support alone would be 256 MiB; the limit is set in the
        # child only, before it imports anything
        path = tmp_path / "ceiling.json"
        path.write_text(json.dumps(problem_to_dict(CEILING_PROBLEM)))
        limit = 200_000 * 1024
        env = {k: v for k, v in os.environ.items() if k != "QTRANSPORT_MAX_QUBITS"}
        result = subprocess.run(
            [sys.executable, "-m", "qtransport", "exact", "-p", str(path)],
            capture_output=True, text=True, env={**env, "PYTHONPATH": SRC},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 0, result.stderr
        rows = result.stdout.splitlines()
        assert rows[0] == "position,probability" and len(rows) == 1 + (1 << 7)
