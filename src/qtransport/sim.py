"""Dense statevector engine.

A state is a plain complex128 array of 2^n amplitudes indexed LSB-first
(bit i of the basis index is qubit i); `zero_state` makes one. Registers are
passed as tuples of qubits, as in `Circuit.registers`. `apply_inplace` is
the one way to run a circuit and the one gate kernel: it views the array
with a length-2 axis per qubit a gate touches and one merged axis per run
of untouched qubits, then fixes the control axes, so each gate reads and
writes basic-slicing views of its controlled subspace and no index arrays
are built. `marginal` and `flag_probability` read the same layout.

`sample` draws shots from a probability vector sequentially and vectorized
from a single seeded stream, so counts are bit-identical for a given seed
no matter how the surrounding code is parallelized.
"""
from __future__ import annotations

import os

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .errors import CapacityError, InvariantError

DEFAULT_MAX_QUBITS = 26
MAX_QUBITS_ENV = "QTRANSPORT_MAX_QUBITS"
_SHORT_RUN = 8
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


def zero_state(n: int) -> np.ndarray:
    """|0...0> as 2^n complex128 amplitudes; rejects n outside [1, engine
    ceiling], and raises CapacityError if the allocation is refused."""
    if n < 1:
        raise InvariantError("need at least one qubit")
    ceiling = engine_max_qubits()
    if n > ceiling:
        raise CapacityError(f"{n} qubits exceeds the configured ceiling of {ceiling}")
    try:
        amplitudes = np.zeros(1 << n, dtype=np.complex128)
    except MemoryError:
        raise CapacityError(f"cannot allocate {16 << n} bytes for a {n}-qubit state") from None
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

    The trailing Ellipsis keeps a fully fixed selection a 0-d view. Below
    _SHORT_RUN numpy's per-inner-loop cost dominates, so a short last axis
    is swapped with the longest; the kernel's ufuncs use order="C" so that
    the iteration follows it.
    """
    index: list = [slice(None)] * view.ndim
    for q, bit in bits:
        index[axis[q]] = bit
    part = view[(*index, ...)]
    if part.ndim > 1 and part.shape[-1] < _SHORT_RUN:
        part = part.swapaxes(part.shape.index(max(part.shape)), -1)
    return part


def _apply_gate(amplitudes: np.ndarray, gate: Gate) -> None:
    """One gate on the views where its controls hold. Its scratch arrays are
    locals, so they are freed on return and never outlive the gate."""
    view, axis = _split(amplitudes, gate.qubits)
    controls = [(q, int(positive)) for q, positive in gate.controls]
    a0 = _fixed(view, axis, controls + [(gate.targets[0], 0)])
    a1 = _fixed(view, axis, controls + [(gate.targets[0], 1)])
    kind = gate.kind
    if kind is GateKind.PHASE_SHIFT:
        np.multiply(a1, np.exp(1j * gate.angle), out=a1, order="C")
    elif kind is GateKind.PAULI_X:
        held = a0.copy()
        np.copyto(a0, a1)
        np.copyto(a1, held)
    elif kind is GateKind.HADAMARD:
        held = np.subtract(a0, a1, order="C")
        np.add(a0, a1, out=a0, order="C")
        np.multiply(a0, _INV_SQRT2, out=a0, order="C")
        np.multiply(held, _INV_SQRT2, out=a1, order="C")
    else:
        c, s = np.cos(gate.angle / 2.0), np.sin(gate.angle / 2.0)
        held = np.multiply(a0, s, order="C")
        np.multiply(a0, c, out=a0, order="C")
        np.subtract(a0, np.multiply(a1, s, order="C"), out=a0, order="C")
        np.multiply(a1, c, out=a1, order="C")
        np.add(a1, held, out=a1, order="C")


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
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) >= 1e-9:
        raise InvariantError(f"statevector norm drifted to {norm!r}")


def marginal(amplitudes: np.ndarray, qubits) -> np.ndarray:
    """Probability of each integer value of the register on `qubits`
    (LSB first), as an array of length 2^len(qubits)."""
    probs = np.abs(amplitudes)
    np.square(probs, out=probs)
    probs, axis = _split(probs, qubits)
    # sum out every other axis; most significant place first, so that the
    # flattened C order is the register value
    return np.einsum(probs, list(range(probs.ndim)), [axis[q] for q in reversed(qubits)]).ravel()


def flag_probability(amplitudes: np.ndarray, qubit: int) -> float:
    """Probability that the given qubit reads |1>."""
    if not 0 <= qubit < len(amplitudes).bit_length() - 1:
        raise InvariantError(f"qubit {qubit} out of range")
    view, axis = _split(amplitudes, (qubit,))
    return float(np.sum(np.abs(_fixed(view, axis, [(qubit, 1)])) ** 2))


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of `shots` outcomes drawn i.i.d. from a probability vector.

    Identical seeds give identical counts.
    """
    if shots < 1:
        raise InvariantError("shots must be >= 1")
    cdf = np.cumsum(probs)
    u = np.random.default_rng(seed).random(shots)
    outcomes = np.searchsorted(cdf, u, side="right")
    outcomes = np.minimum(outcomes, len(probs) - 1)
    return np.bincount(outcomes, minlength=len(probs))
