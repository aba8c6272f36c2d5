import pytest

from qtransport import RegionSpec, TransportProblem
from qtransport.errors import InvariantError
from qtransport.resources import (
    ADDER_ANCILLA,
    FLOAT_ADDER_QUBITS,
    VARIABLE_BITS,
    VARIABLES,
    circuit_budget,
    practical_estimate,
)
from qtransport.transport import build_transport_circuit

from conftest import random_problem


class TestPaperEstimate:
    def test_practical_instance(self):
        est = practical_estimate(100)
        assert est.total == 75_925
        assert est.total == 757 * 100 + 225

    def test_single_flight(self):
        assert practical_estimate(1).total == 982

    def test_component_sum(self):
        est = practical_estimate(42)
        assert est.total == (
            est.register_qubits + est.adder_ancilla_qubits + est.reaction_qubits + est.progress_ancilla
        )

    def test_increment_per_flight(self):
        totals = [practical_estimate(n).total for n in range(1, 20)]
        assert all(b - a == 757 for a, b in zip(totals, totals[1:]))

    def test_register_count(self):
        assert practical_estimate(3).register_qubits // VARIABLE_BITS == VARIABLES * (3 + 1) == 28

    def test_float_adder_constant(self):
        assert FLOAT_ADDER_QUBITS == 2 * VARIABLE_BITS + ADDER_ANCILLA == 140

    def test_rejects_zero_flights(self):
        with pytest.raises(InvariantError):
            practical_estimate(0)

    def test_json_fields(self):
        doc = practical_estimate(5).to_dict()
        assert set(doc) == {
            "flights", "register_qubits", "adder_ancilla_qubits",
            "reaction_qubits", "progress_ancilla", "total",
        }


class TestCircuitBudget:
    def test_reference_instance(self, table_a1):
        budget = circuit_budget(table_a1)
        assert budget["total_without_flag"] == 14
        assert budget["total_with_flag"] == 15
        assert budget["X"] == 4 and budget["D1"] == 2 and budget["R2"] == 1

    def test_small_instance_formula(self):
        spec = RegionSpec((0.5, 0.5), 0.3)
        problem = TransportProblem(x_qubits=2, max_flights=2, boundary=2, regions=(spec, spec))
        assert circuit_budget(problem)["total_with_flag"] == 2 + 1 + 2 * 1 + 1 + 1 + 1

    def test_d_width_definition(self, table_a1):
        assert table_a1.d_width == table_a1.d_max.bit_length() == 2

    def test_matches_built_circuit(self):
        import numpy as np

        rng = np.random.default_rng(55)
        for _ in range(10):
            problem = random_problem(rng)
            budget = circuit_budget(problem)
            tc = build_transport_circuit(problem)
            assert budget["total_with_flag"] == tc.qubit_count + 1
            assert sum(len(qs) for qs in tc.registers.values()) == tc.qubit_count
