"""Dense statevector engine.

A state is a plain complex128 array of 2^n amplitudes indexed LSB-first
(bit i of the basis index is qubit i); `zero_state` makes one. Registers are
passed as tuples of qubits, as in `Circuit.registers`. `apply_inplace` is
the one way to run a circuit gate by gate and the one gate kernel: it views
the array with a length-2 axis per qubit a gate touches and one merged axis
per run of untouched qubits, then fixes the control axes, so each gate
reads and writes basic-slicing views of its controlled subspace and no
index arrays are built. `transport.transport_branches` computes the
transport circuit's state at register level instead, and the tests hold it
to this kernel; both end with `check_norm`. `check_width` is the ceiling
check of `zero_state` on its own, for callers whose state is narrower than
their circuit. `mask_probability` squares and sums a block of amplitudes at
a time, so its scratch is one block, not a float64 copy of the state.

`sample` draws shots from a probability vector sequentially and vectorized
from a single seeded stream, a block of 2^16 uniforms at a time, so counts
are bit-identical for a given seed no matter how the surrounding code is
parallelized, and its scratch does not grow with the number of shots.
"""
from __future__ import annotations

import os

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .errors import CapacityError, InvariantError

DEFAULT_MAX_QUBITS = 26
MAX_QUBITS_ENV = "QTRANSPORT_MAX_QUBITS"
_BLOCK = 1 << 16  # amplitudes squared, or shots drawn, at a time by the blocked loops
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def engine_max_qubits() -> int:
    """Qubit ceiling: QTRANSPORT_MAX_QUBITS overrides the default of 26."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if not raw:
        return DEFAULT_MAX_QUBITS
    try:
        ceiling = int(raw)
    except ValueError:
        ceiling = 0
    if ceiling < 1:
        raise CapacityError(f"{MAX_QUBITS_ENV} must be an integer >= 1, got {raw!r}")
    return ceiling


def check_width(n: int) -> None:
    """Reject an n-qubit circuit outside [1, engine ceiling]: InvariantError
    below one qubit, CapacityError past the ceiling. Callers whose state is
    narrower than their circuit check the circuit's width with it first."""
    if n < 1:
        raise InvariantError("need at least one qubit")
    ceiling = engine_max_qubits()
    if n > ceiling:
        raise CapacityError(f"{n} qubits exceeds the configured ceiling of {ceiling}")


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


def check_norm(amplitudes: np.ndarray) -> None:
    """Raise InvariantError unless the amplitudes have norm 1 (to 1e-9)."""
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) >= 1e-9:
        raise InvariantError(f"statevector norm drifted to {norm!r}")


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


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of `shots` outcomes drawn i.i.d. from a probability vector.

    The uniforms come from one seeded stream, 2^16 (sim._BLOCK) at a time,
    and each block's counts are added up. PCG64 makes one double per
    output, so the counts are those of a single draw of every shot, and
    identical seeds give identical counts; the scratch is one block
    whatever the number of shots.
    """
    if shots < 1:
        raise InvariantError("shots must be >= 1")
    cdf = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(probs), dtype=np.intp)
    for start in range(0, shots, _BLOCK):
        outcomes = np.searchsorted(cdf, rng.random(min(_BLOCK, shots - start)), side="right")
        np.minimum(outcomes, len(probs) - 1, out=outcomes)
        counts += np.bincount(outcomes, minlength=len(probs))
    return counts
