"""The gate-level reference engine the tests hold the package to.

No command runs a circuit gate by gate: `transport.transport_branches`
computes the transport circuit's state at register level, and
`qae.predicate_probability` reads A's flag from those branches. This module
runs the gate-level `Circuit` IR itself, so every faster path can be
checked against the only definition of the paper's circuit.

A state is a plain complex128 array of 2^n amplitudes indexed LSB-first
(bit i of the basis index is qubit i); `zero_state` makes one. Registers are
passed as tuples of qubits, as in `Circuit.registers`. `apply_inplace` is
the one gate kernel: it views the array with a length-2 axis per qubit a
gate touches and one merged axis per run of untouched qubits, then fixes
the control axes, so each gate reads and writes basic-slicing views of its
controlled subspace and no index arrays are built. It ends with
`transport.check_norm`, as the register-level pass does.
`mask_probability` squares and sums a block of amplitudes at a time, so its
scratch is one block, not a float64 copy of the state. `exact_amplitude`
runs the whole gate-level A and reads its flag. `parse_circuit` reads
`circuit.dump_circuit`'s text back into a `Circuit`.
"""
from __future__ import annotations

import re

import numpy as np

from qtransport.circuit import Circuit, Gate, GateKind
from qtransport.errors import CapacityError, InvariantError
from qtransport.qae import _flag
from qtransport.transport import _BLOCK, check_norm, check_width

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def zero_state(n: int) -> np.ndarray:
    """|0...0> as 2^n complex128 amplitudes; rejects n as `check_width`
    does, and raises CapacityError naming the bytes if the allocation is
    refused or is past what numpy can index (numpy would raise ValueError
    for that, not MemoryError)."""
    check_width(n)
    nbytes = 16 << n
    refused = f"cannot allocate {nbytes} bytes for a {n}-qubit state"
    if nbytes > np.iinfo(np.intp).max:
        raise CapacityError(refused)
    try:
        amplitudes = np.zeros(1 << n, dtype=np.complex128)
    except MemoryError:
        raise CapacityError(refused) from None
    amplitudes[0] = 1.0
    return amplitudes


def _split(amplitudes: np.ndarray, qubits) -> tuple[np.ndarray, dict[int, int]]:
    """View of a 2^n array with one length-2 axis per listed qubit.

    Each run of unlisted qubits between them is merged into one axis
    (empty runs get none). Qubit n-1 varies slowest, matching LSB-first
    indexing in C order. Returns the view and each listed qubit's axis.
    """
    top = len(amplitudes).bit_length() - 1
    shape: list[int] = []
    axis: dict[int, int] = {}
    for q in sorted(qubits, reverse=True):
        if top - q > 1:
            shape.append(1 << (top - q - 1))
        axis[q] = len(shape)
        shape.append(2)
        top = q
    if top:
        shape.append(1 << top)
    return amplitudes.reshape(shape), axis


def _fixed(view: np.ndarray, axis: dict[int, int], bits) -> np.ndarray:
    """Basic-slicing view of `view` with each (qubit, bit) pair held fixed.

    The trailing Ellipsis keeps a fully fixed selection a 0-d view.
    """
    index: list = [slice(None)] * view.ndim
    for q, bit in bits:
        index[axis[q]] = bit
    return view[(*index, ...)]


def _apply_gate(amplitudes: np.ndarray, gate: Gate) -> None:
    """One gate on the views where its controls hold. Its scratch arrays are
    locals, so they are freed on return and never outlive the gate."""
    view, axis = _split(amplitudes, gate.qubits)
    controls = [(q, int(positive)) for q, positive in gate.controls]
    a0 = _fixed(view, axis, controls + [(gate.targets[0], 0)])
    a1 = _fixed(view, axis, controls + [(gate.targets[0], 1)])
    kind = gate.kind
    if kind is GateKind.PHASE_SHIFT:
        np.multiply(a1, np.exp(1j * gate.angle), out=a1)
    elif kind is GateKind.PAULI_X:
        held = a0.copy()
        np.copyto(a0, a1)
        np.copyto(a1, held)
    elif kind is GateKind.HADAMARD:
        held = np.subtract(a0, a1)
        np.add(a0, a1, out=a0)
        np.multiply(a0, _INV_SQRT2, out=a0)
        np.multiply(held, _INV_SQRT2, out=a1)
    else:
        c, s = np.cos(gate.angle / 2.0), np.sin(gate.angle / 2.0)
        held = np.multiply(a0, s)
        np.multiply(a0, c, out=a0)
        np.subtract(a0, np.multiply(a1, s), out=a0)
        np.multiply(a1, c, out=a1)
        np.add(a1, held, out=a1)


def apply_inplace(amplitudes: np.ndarray, circuit: Circuit) -> None:
    """Run every gate of a circuit on a 2^n amplitude array, in place.

    Each gate reads and writes views of the amplitudes where its controls
    are satisfied; its scratch memory is at most the size of that
    controlled subspace. Raises InvariantError if the array does not hold
    2^n amplitudes for the circuit's n qubits, or if the result's norm is
    not 1.
    """
    if len(amplitudes) != 1 << circuit.qubit_count:
        raise InvariantError(
            f"circuit has {circuit.qubit_count} qubits, state has {len(amplitudes)} amplitudes"
        )
    for gate in circuit.gates:
        _apply_gate(amplitudes, gate)
    check_norm(amplitudes)


def mask_probability(amplitudes: np.ndarray, mask) -> float:
    """Probability that the register on the lowest log2(len(mask)) qubits
    takes a value where the boolean `mask` holds.

    The squares are summed a block of 2^16 amplitudes at a time, in memory
    order, in one reused buffer with the entries outside the mask zeroed;
    the mask is tiled to at most a block, never past the state. Raises
    InvariantError unless len(mask) is a power of two no longer than the state.
    """
    mask = np.asarray(mask, dtype=bool)
    if len(mask) & (len(mask) - 1) or not 0 < len(mask) <= len(amplitudes):
        raise InvariantError(
            f"mask length {len(mask)} is not a power of two up to {len(amplitudes)} amplitudes"
        )
    step = min(_BLOCK, len(amplitudes))
    outside = np.tile(~mask, max(1, step // len(mask)))
    squares = np.empty(step)
    total = 0.0
    for start in range(0, len(amplitudes), step):
        np.abs(amplitudes[start : start + step], out=squares)
        np.square(squares, out=squares)
        offset = start % len(outside)
        np.copyto(squares, 0.0, where=outside[offset : offset + step])
        total += squares.sum()
    return float(total)


def exact_amplitude(a: Circuit) -> float:
    """Flag |1> probability of A|0>, bypassing estimation: the gate-level
    reference for `qae.predicate_probability`."""
    flag = _flag(a)
    amplitudes = zero_state(a.qubit_count)
    apply_inplace(amplitudes, a)
    return mask_probability(amplitudes, np.repeat([False, True], 1 << flag))


_HEADER = re.compile(r"^qubits=(?P<count>\d+)$")
_REGISTER_LINE = re.compile(r"^register (?P<name>[^=]+)=\[(?P<qubits>(\d+(,\d+)*)?)\]$")
_GATE_LINE = re.compile(
    r"^(?P<kind>[A-Za-z]+)(\((?P<angle>[^)]*)\))?"
    r" targets=\[(?P<target>\d+)\]"
    r" controls=\[(?P<controls>([+-]\d+(,[+-]\d+)*)?)\]$"
)


def parse_circuit(text: str) -> Circuit:
    """Parse the dump format back into a Circuit (round-trips dump_circuit);
    any line off the format raises InvariantError."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = _HEADER.match(lines[0]) if lines else None
    if header is None:
        raise InvariantError("dump must start with a qubits=N header")
    registers: dict[str, tuple[int, ...]] = {}
    gates: list[Gate] = []
    kinds = {k.value: k for k in GateKind}
    for line in lines[1:]:
        m = _REGISTER_LINE.match(line)
        if m is not None:
            registers[m.group("name")] = tuple(int(s) for s in m.group("qubits").split(",") if s)
            continue
        m = _GATE_LINE.match(line)
        if m is None:
            raise InvariantError(f"unparseable line: {line!r}")
        kind = kinds.get(m.group("kind"))
        if kind is None:
            raise InvariantError(f"unknown gate kind in line: {line!r}")
        try:
            angle = None if m.group("angle") is None else float(m.group("angle"))
        except ValueError:
            raise InvariantError(f"angle is not a number in line: {line!r}") from None
        controls = [(int(s[1:]), s[0] == "+") for s in m.group("controls").split(",") if s]
        gates.append(Gate(kind, (int(m.group("target")),), controls, angle=angle))
    return Circuit(int(header.group("count")), tuple(gates), registers)
