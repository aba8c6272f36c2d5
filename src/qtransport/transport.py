"""Builders for the simplified radiation-transport circuit.

A particle starts at position 0 and makes up to `max_flights` moves on a
1D nonnegative-integer grid split into two half-open regions by a
power-of-two boundary (region 1 is x < b, region 2 is x >= b). Each flight
block does, in order:

    1. comparator: set Anc.R to |1> iff the position is in region 2;
    2. load the flight-distance register D_m with the superposed distance
       pmf of the selected region, and (for gated flights) rotate the
       reaction qubit R_m so its |1> weight equals that region's scatter
       probability (|0> = absorbed, |1> = scattered);
    3. uncompute Anc.R;
    4. AND all reaction qubits so far into Anc.P, add D_m into the position
       register under Anc.P control, and uncompute Anc.P.

Step 4 computes and uncomputes Anc.P around each position update; chaining
the ANDs without the reset would XOR successive reaction prefixes into the
flag and mis-gate the adder, and both ancillae must end in |0>.

When a particle is absorbed, later blocks still rotate D/R registers using
the frozen position's region. That garbage stays entangled but cannot move
the position register, so the position marginal is unaffected.

The circuit has no amplitude-estimation flag: `qae` adds one when it builds
the A operator on top of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Control, Gate, add_controls, h, inverse, mct, phase_shift, ry, x
from .errors import InvariantError

PRE_FLIGHT = "pre_flight"
POST_FLIGHT = "post_flight"

_PMF_SUM_TOL = 1e-9


def _validated_pmf(pmf) -> tuple[float, ...]:
    pmf = tuple(float(p) for p in pmf)
    if not pmf:
        raise InvariantError("distance pmf must be non-empty")
    if any(p < 0 or not math.isfinite(p) for p in pmf):
        raise InvariantError(f"distance pmf entries must be finite and >= 0: {pmf}")
    if abs(sum(pmf) - 1.0) > _PMF_SUM_TOL:
        raise InvariantError(f"distance pmf must sum to 1, got {sum(pmf)}")
    return pmf


@dataclass(frozen=True)
class RegionSpec:
    """Distance pmf over 0..d_max plus the absorption probability of one region."""

    distance_pmf: tuple[float, ...]
    p_absorb: float

    def __post_init__(self):
        object.__setattr__(self, "distance_pmf", _validated_pmf(self.distance_pmf))
        if not 0.0 <= self.p_absorb <= 1.0:
            raise InvariantError(f"p_absorb must be in [0, 1], got {self.p_absorb}")

    @property
    def p_scatter(self) -> float:
        return 1.0 - self.p_absorb

    @property
    def d_max(self) -> int:
        return len(self.distance_pmf) - 1


@dataclass(frozen=True)
class TransportProblem:
    """Two-region transport instance: geometry, pmfs, flight cap, register widths."""

    x_qubits: int
    max_flights: int
    boundary: int
    regions: tuple[RegionSpec, RegionSpec]
    first_flight_always: bool = True
    reaction_timing: str = PRE_FLIGHT

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.x_qubits < 1:
            raise InvariantError("x_qubits must be >= 1")
        if self.max_flights < 1:
            raise InvariantError("max_flights must be >= 1")
        if len(self.regions) != 2:
            raise InvariantError("exactly two regions are required")
        b, size = self.boundary, 1 << self.x_qubits
        if b <= 0 or b & (b - 1):
            raise InvariantError(f"boundary must be a power of two, got {b}")
        if not 0 < b < size:
            raise InvariantError(f"boundary must satisfy 0 < b < 2^x_qubits, got {b}")
        if len(self.regions[0].distance_pmf) != len(self.regions[1].distance_pmf):
            raise InvariantError("both regions must tabulate the same distance range")
        if self.max_flights * self.d_max >= size:
            raise InvariantError(
                f"position register can overflow: {self.max_flights} flights x d_max "
                f"{self.d_max} needs >= {self.max_flights * self.d_max + 1} slots, have {size}"
            )
        if self.reaction_timing not in (PRE_FLIGHT, POST_FLIGHT):
            raise InvariantError(f"unknown reaction_timing {self.reaction_timing!r}")

    @property
    def d_max(self) -> int:
        return self.regions[0].d_max

    @property
    def d_width(self) -> int:
        return self.d_max.bit_length()

    @property
    def position_count(self) -> int:
        return 1 << self.x_qubits

    def has_reaction(self, flight: int) -> bool:
        """Whether flight m carries a reaction register R_m."""
        return flight >= 2 or not self.first_flight_always


# --- distribution loader ----------------------------------------------------

def _loader_gates(pmf, qubits) -> list[Gate]:
    """Binary tree of prefix-controlled Y rotations mapping |0..0> to sum sqrt(p)|d>.

    The rotation on bit j under high-bit prefix p puts the conditional mass
    of the lower half of that prefix's value block on |0>. Branches with
    zero mass are skipped (their angle is undefined and they are never
    reached); zero angles are still emitted.
    """
    width = len(qubits)
    full = np.zeros(1 << width)
    full[: len(pmf)] = pmf
    gates: list[Gate] = []
    for j in reversed(range(width)):
        block = 1 << (j + 1)
        for prefix in reversed(range(1 << (width - 1 - j))):
            lo = full[prefix * block : prefix * block + block // 2].sum()
            hi = full[prefix * block + block // 2 : (prefix + 1) * block].sum()
            mass = lo + hi
            if mass <= 0.0:
                continue
            angle = 2.0 * math.acos(min(1.0, math.sqrt(lo / mass)))
            controls = [
                (qubits[j + 1 + k], bool((prefix >> k) & 1)) for k in range(width - 1 - j)
            ]
            gates.append(ry(angle, qubits[j], controls))
    return gates


def build_distribution_loader(pmf, width: int) -> Circuit:
    """Standalone loader circuit on qubits 0..width-1 (register name "D")."""
    pmf = _validated_pmf(pmf)
    if len(pmf) > (1 << width):
        raise InvariantError(f"pmf of length {len(pmf)} needs more than {width} qubits")
    qubits = tuple(range(width))
    return Circuit(width, tuple(_loader_gates(pmf, qubits)), {"D": qubits})


# --- region comparator -------------------------------------------------------

def _region_flag_gates(x_register, boundary: int, target: int) -> list[Gate]:
    """Flip target iff the x register encodes a value >= boundary (= 2^k).

    That holds iff exactly one bit from k up is the highest 1, so: one X per
    such bit, highest first, controlled on it at |1> and every higher bit at
    |0>. The w-k conditions are disjoint and each gate has a control.
    """
    k = boundary.bit_length() - 1
    gates = []
    for i in reversed(range(k, len(x_register))):
        higher_zero = [(q, False) for q in reversed(x_register[i + 1 :])]
        gates.append(x(target, higher_zero + [(x_register[i], True)]))
    return gates


def build_region_flag(x_register, boundary: int, anc_qubit: int) -> Circuit:
    """Comparator circuit: anc flips iff x >= boundary."""
    x_register = tuple(x_register)
    width = len(x_register)
    if boundary <= 0 or boundary & (boundary - 1):
        raise InvariantError(f"boundary must be a power of two, got {boundary}")
    if boundary >= (1 << width):
        raise InvariantError(f"boundary {boundary} not below 2^{width}")
    n = max(x_register + (anc_qubit,)) + 1
    gates = _region_flag_gates(x_register, boundary, anc_qubit)
    return Circuit(n, tuple(gates), {"X": x_register, "AncR": (anc_qubit,)})


# --- reaction rotation -------------------------------------------------------

def _reaction_angle(spec: RegionSpec) -> float:
    return 2.0 * math.acos(min(1.0, math.sqrt(spec.p_absorb)))


def _reaction_gates(regions, anc_r: int, r_qubit: int) -> list[Gate]:
    return [
        ry(_reaction_angle(regions[1]), r_qubit, [(anc_r, True)]),
        ry(_reaction_angle(regions[0]), r_qubit, [(anc_r, False)]),
    ]


def build_reaction_rotation(regions, anc_r: int, r_qubit: int) -> Circuit:
    """Rotate r_qubit so P(|1>) equals the scatter probability of the region
    selected by anc_r (|1> = region 2)."""
    regions = tuple(regions)
    n = max(anc_r, r_qubit) + 1
    return Circuit(n, tuple(_reaction_gates(regions, anc_r, r_qubit)), {"AncR": (anc_r,), "R": (r_qubit,)})


# --- in-place Fourier adder --------------------------------------------------

def _qft_gates(qubits) -> list[Gate]:
    """Quantum Fourier transform on an LSB-first register, without the final
    swaps: Fourier place j of the result sits on qubit w-1-j."""
    w = len(qubits)
    gates = []
    for i in reversed(range(w)):
        gates.append(h(qubits[i]))
        for j in reversed(range(i)):
            gates.append(phase_shift(math.pi / (1 << (i - j)), qubits[i], [(qubits[j], True)]))
    return gates


def _adder_gates(x_register, d_register, control: int | None) -> list[Gate]:
    """|x>|d> -> |x+d mod 2^w>|d> (Draper, quant-ph/0008033): QFT on x, phase
    kicks controlled on d, inverse QFT. The QFT output is bit-reversed, so the
    kick for Fourier place j goes to x qubit w-1-j and no swaps are needed."""
    w = len(x_register)
    extra: list[Control] = [] if control is None else [(control, True)]
    qft = _qft_gates(x_register)
    gates = list(qft)
    for k, dq in enumerate(d_register):
        for j in range(w - k):
            angle = math.pi / (1 << (w - 1 - j - k))
            gates.append(phase_shift(angle, x_register[w - 1 - j], [(dq, True)] + extra))
    gates.extend(inverse(Circuit(max(x_register) + 1, qft)).gates)
    return gates


def build_controlled_adder(x_register, d_register, control_qubit: int | None = None) -> Circuit:
    """In-place adder of the d register into the x register, optionally gated."""
    x_register, d_register = tuple(x_register), tuple(d_register)
    if len(d_register) > len(x_register):
        raise InvariantError("d register wider than x register")
    touched = x_register + d_register
    if control_qubit is not None:
        touched += (control_qubit,)
    if len(set(touched)) != len(touched):
        raise InvariantError("adder registers and control must be disjoint")
    n = max(touched) + 1
    gates = _adder_gates(x_register, d_register, control_qubit)
    return Circuit(n, tuple(gates), {"X": x_register, "D": d_register})


# --- full transport circuit ---------------------------------------------------

@dataclass(frozen=True)
class TransportCircuit:
    """The assembled circuit plus the problem it encodes."""

    circuit: Circuit
    problem: TransportProblem

    @property
    def registers(self):
        return self.circuit.registers

    @property
    def x_register(self) -> tuple[int, ...]:
        return self.registers["X"]

    @property
    def anc_r_qubit(self) -> int:
        return self.registers["AncR"][0]

    @property
    def anc_p_qubit(self) -> int:
        return self.registers["AncP"][0]

    def d_register(self, flight: int) -> tuple[int, ...]:
        return self.registers[f"D{flight}"]

    def r_qubit(self, flight: int) -> int:
        return self.registers[f"R{flight}"][0]


def build_transport_circuit(problem: TransportProblem) -> TransportCircuit:
    """Assemble the full flight-by-flight circuit for a problem.

    Register layout (LSB-first within each register): X, then Anc.R, then
    per flight D_m (and R_m when the flight is gated), then Anc.P.
    """
    w, n, dw = problem.x_qubits, problem.max_flights, problem.d_width
    x_register = tuple(range(w))
    anc_r = w
    registers: dict[str, tuple[int, ...]] = {"X": x_register, "AncR": (anc_r,)}
    cursor = w + 1
    d_regs: dict[int, tuple[int, ...]] = {}
    r_qubits: dict[int, int] = {}
    for m in range(1, n + 1):
        d_regs[m] = tuple(range(cursor, cursor + dw))
        registers[f"D{m}"] = d_regs[m]
        cursor += dw
        if problem.has_reaction(m):
            r_qubits[m] = cursor
            registers[f"R{m}"] = (cursor,)
            cursor += 1
    anc_p, qubit_count = cursor, cursor + 1
    registers["AncP"] = (anc_p,)

    gates: list[Gate] = []
    for m in range(1, n + 1):
        comparator = Circuit(qubit_count, _region_flag_gates(x_register, problem.boundary, anc_r))
        gates.extend(comparator.gates)
        for polarity, spec in ((True, problem.regions[1]), (False, problem.regions[0])):
            loader = Circuit(qubit_count, _loader_gates(spec.distance_pmf, d_regs[m]))
            gates.extend(add_controls(loader, [(anc_r, polarity)]).gates)
            if m in r_qubits:
                gates.append(ry(_reaction_angle(spec), r_qubits[m], [(anc_r, polarity)]))
        gates.extend(inverse(comparator).gates)
        if dw == 0:
            continue  # no motion to gate
        gating = [r_qubits[j] for j in range(1, m + 1) if j in r_qubits]
        if gating:
            progress = mct(gating, anc_p)
            gates.append(progress)
            gates.extend(_adder_gates(x_register, d_regs[m], anc_p))
            gates.append(progress)
        else:
            gates.extend(_adder_gates(x_register, d_regs[m], None))

    circuit = Circuit(qubit_count, tuple(gates), registers)
    return TransportCircuit(circuit, problem)


def transport_distribution(problem: TransportProblem) -> np.ndarray:
    """Final-position probabilities read from the statevector's X marginal."""
    from . import sim

    tc = build_transport_circuit(problem)
    amplitudes = sim.zero_state(tc.circuit.qubit_count)
    sim.apply_inplace(amplitudes, tc.circuit)
    return sim.marginal(amplitudes, tc.x_register)
