"""Gate-level circuit IR: a minimal gate set with polarity-tagged controls.

Four single-target primitive kinds (PauliX, Hadamard, RotY, PhaseShift)
cover every construction in this package: multi-controlled Toffolis are a
single PauliX gate with k controls, rotation trees are controlled RotY
gates, and the Fourier-basis adder uses Hadamard/PhaseShift. Negative
controls are first class, so no X-sandwich conjugation is needed to
condition on |0>.

Conventions:
    - qubit i of a register is the 2^i place (LSB-first); all register I/O
      is in integers, never bit strings;
    - a control is a (qubit, polarity) pair, polarity True meaning the
      control fires on |1> and False on |0>;
    - circuits are immutable after construction and safe to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import InvariantError

Control = tuple[int, bool]


class GateKind(Enum):
    PAULI_X = "PauliX"
    HADAMARD = "Hadamard"
    ROT_Y = "RotY"
    PHASE_SHIFT = "PhaseShift"


_PARAMETRIC = frozenset({GateKind.ROT_Y, GateKind.PHASE_SHIFT})


@dataclass(frozen=True)
class Gate:
    """One primitive operation: a kind, a 1-tuple target, and optional controls."""

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[Control, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple((int(q), bool(p)) for q, p in self.controls))
        if len(self.targets) != 1:
            raise InvariantError(f"{self.kind.value} takes one target, got {self.targets}")
        if self.kind in _PARAMETRIC:
            if self.angle is None or not math.isfinite(self.angle):
                raise InvariantError(f"{self.kind.value} requires a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise InvariantError(f"{self.kind.value} takes no angle")
        qubits = list(self.targets) + [q for q, _ in self.controls]
        if any(q < 0 for q in qubits):
            raise InvariantError(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise InvariantError(f"targets and controls must be pairwise distinct, got {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        """All qubits the gate touches, targets first."""
        return self.targets + tuple(q for q, _ in self.controls)


def x(target: int, controls: Iterable[Control] = ()) -> Gate:
    return Gate(GateKind.PAULI_X, (target,), tuple(controls))


def h(target: int, controls: Iterable[Control] = ()) -> Gate:
    return Gate(GateKind.HADAMARD, (target,), tuple(controls))


def ry(angle: float, target: int, controls: Iterable[Control] = ()) -> Gate:
    return Gate(GateKind.ROT_Y, (target,), tuple(controls), angle=angle)


def phase_shift(angle: float, target: int, controls: Iterable[Control] = ()) -> Gate:
    return Gate(GateKind.PHASE_SHIFT, (target,), tuple(controls), angle=angle)


def mct(control_qubits: Iterable[int], target: int) -> Gate:
    """Multi-controlled Toffoli: X on target iff all controls read |1>."""
    return x(target, [(q, True) for q in control_qubits])


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit count, with named registers."""

    qubit_count: int
    gates: tuple[Gate, ...] = ()
    registers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(
            self, "registers", {name: tuple(qs) for name, qs in self.registers.items()}
        )
        if self.qubit_count < 0:
            raise InvariantError("qubit_count must be nonnegative")
        for gate in self.gates:
            for q in gate.qubits:
                if q >= self.qubit_count:
                    raise InvariantError(
                        f"gate touches qubit {q} but circuit has {self.qubit_count} qubits"
                    )
        seen: set[int] = set()
        for name, qs in self.registers.items():
            for q in qs:
                if not 0 <= q < self.qubit_count:
                    raise InvariantError(f"register {name} references qubit {q} out of range")
                if q in seen:
                    raise InvariantError(f"register {name} overlaps another register at qubit {q}")
                seen.add(q)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def compose(a: Circuit, b: Circuit, *rest: Circuit) -> Circuit:
    """Concatenate circuits; register maps are merged, name clashes must agree."""
    circuits = (a, b) + rest
    n = a.qubit_count
    for c in circuits[1:]:
        if c.qubit_count != n:
            raise InvariantError(f"qubit-count mismatch: {n} vs {c.qubit_count}")
    registers: dict[str, tuple[int, ...]] = {}
    for c in circuits:
        for name, qs in c.registers.items():
            if name in registers and registers[name] != tuple(qs):
                raise InvariantError(f"register {name} bound to different qubits in composition")
            registers[name] = tuple(qs)
    gates: list[Gate] = []
    for c in circuits:
        gates.extend(c.gates)
    return Circuit(n, tuple(gates), registers)


def inverse(c: Circuit) -> Circuit:
    """Exact inverse: gates reversed, rotation/phase angles negated."""
    inv: list[Gate] = []
    for gate in reversed(c.gates):
        if gate.kind in _PARAMETRIC:
            inv.append(Gate(gate.kind, gate.targets, gate.controls, angle=-gate.angle))
        else:
            inv.append(gate)
    return Circuit(c.qubit_count, tuple(inv), c.registers)


def add_controls(c: Circuit, controls: Sequence[Control]) -> Circuit:
    """Wrap every gate with extra controls: c fires iff all of them are satisfied.

    The qubit count grows if a control lies beyond the wrapped circuit.
    """
    controls = tuple((int(q), bool(p)) for q, p in controls)
    new_qubits = {q for q, _ in controls}
    for gate in c.gates:
        overlap = new_qubits.intersection(gate.qubits)
        if overlap:
            raise InvariantError(f"new controls overlap gate qubits {sorted(overlap)}")
    gates = tuple(
        Gate(g.kind, g.targets, g.controls + controls, angle=g.angle) for g in c.gates
    )
    qubit_count = max([c.qubit_count] + [q + 1 for q in new_qubits])
    return Circuit(qubit_count, gates, c.registers)


# --- gate-dump text format -------------------------------------------------
#
# qubits=N
# register NAME=[i,..]
# KIND(angle?) targets=[i] controls=[+i|-i,..]


def dump_circuit(c: Circuit) -> str:
    """Render a circuit in the one-gate-per-line dump format."""
    lines = [f"qubits={c.qubit_count}"]
    for name, qs in c.registers.items():
        lines.append(f"register {name}=[{','.join(str(q) for q in qs)}]")
    for gate in c.gates:
        kind = gate.kind.value
        if gate.angle is not None:
            kind += f"({gate.angle!r})"
        targets = ",".join(str(q) for q in gate.targets)
        controls = ",".join(("+" if pol else "-") + str(q) for q, pol in gate.controls)
        lines.append(f"{kind} targets=[{targets}] controls=[{controls}]")
    return "\n".join(lines) + "\n"
