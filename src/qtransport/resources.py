"""Logical-qubit budgets.

`practical_estimate` reproduces the closed-form budget for a practical
transport circuit tracking 7 state variables (3D position, 3D direction,
energy) as 32-bit floats, updated in place by adders that each need 76
ancilla qubits: 32*7*(n+1) + 76*7*n + n + 1 = 757n + 225 logical qubits for
n flights. `circuit_budget` reports the exact per-register widths of the
buildable two-region circuit instead.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .transport import TransportProblem, transport_registers

VARIABLES = 7
VARIABLE_BITS = 32
ADDER_ANCILLA = 76
FLOAT_ADDER_QUBITS = 2 * VARIABLE_BITS + ADDER_ANCILLA  # 140-qubit in-place float adder


@dataclass(frozen=True)
class ResourceEstimate:
    """Logical-qubit budget for an n-flight practical circuit."""

    flights: int
    register_qubits: int
    adder_ancilla_qubits: int
    reaction_qubits: int
    progress_ancilla: int

    @property
    def total(self) -> int:
        return (
            self.register_qubits
            + self.adder_ancilla_qubits
            + self.reaction_qubits
            + self.progress_ancilla
        )

    def to_dict(self) -> dict:
        return {
            "flights": self.flights,
            "register_qubits": self.register_qubits,
            "adder_ancilla_qubits": self.adder_ancilla_qubits,
            "reaction_qubits": self.reaction_qubits,
            "progress_ancilla": self.progress_ancilla,
            "total": self.total,
        }


def practical_estimate(n: int) -> ResourceEstimate:
    """Closed-form budget for n flights."""
    if n < 1:
        raise InvariantError("flight count must be >= 1")
    return ResourceEstimate(
        flights=n,
        register_qubits=VARIABLE_BITS * VARIABLES * (n + 1),
        adder_ancilla_qubits=ADDER_ANCILLA * VARIABLES * n,
        reaction_qubits=n,
        progress_ancilla=1,
    )


def circuit_budget(problem: TransportProblem) -> dict[str, int]:
    """Exact per-register qubit widths of the transport circuit, then A's flag."""
    registers = transport_registers(problem)
    budget = {name: len(qubits) for name, qubits in registers.items()} | {"flag": 1}
    total = sum(budget.values())
    return budget | {"total_without_flag": total - budget["flag"], "total_with_flag": total}
