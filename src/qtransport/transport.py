"""Builders for the simplified radiation-transport circuit.

A particle starts at position 0 and makes up to `max_flights` moves on a
1D nonnegative-integer grid split into two half-open regions by a
power-of-two boundary (region 1 is x < b, region 2 is x >= b). Each flight
block does, in order:

    1. comparator: set Anc.R to |1> iff the position is in region 2;
    2. load the flight-distance register D_m with the superposed distance
       pmf of the selected region, then (for gated flights) rotate the
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

The gate list from `build_transport_circuit` is the only definition of the
circuit, placed on the registers of `transport_registers`.
`apply_transport_inplace` computes the same final state at register level,
one array operation per gadget instead of one pass over the state per gate
(~50 per flight). It reads only the layout, builds no gates, and writes
only the support: AncR and AncP end every flight in |0>, so the state
lives on X, D_m and R_m, a quarter of the circuit's 2^n amplitudes.
`support_state` checks the ceiling against the circuit's width, allocates
the support and runs the pass; every command that needs the state reads
this one array: `transport_distribution` (`exact`, `mc --mode circuit`)
takes its X marginal and `qae.predicate_probability` its predicate mass.
The tests hold the pass to `sim.apply_inplace` on the gate-level circuit,
with the support embedded in a zero full state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .circuit import Circuit, Control, Gate, add_controls, h, inverse, mct, phase_shift, ry, x
from .errors import InvariantError

PRE_FLIGHT = "pre_flight"
POST_FLIGHT = "post_flight"
REACT = "react"
MOVE = "move"

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

    def steps(self) -> tuple[str, ...]:
        """REACT and MOVE in the order the reaction timing applies them.

        pre_flight reacts before each gated flight; post_flight reacts after
        every flight, and also before the first one when it is gated.
        """
        if self.reaction_timing == PRE_FLIGHT:
            return tuple(
                step
                for m in range(1, self.max_flights + 1)
                for step in ((REACT, MOVE) if self.has_reaction(m) else (MOVE,))
            )
        lead = (REACT,) if self.has_reaction(1) else ()
        return lead + (MOVE, REACT) * self.max_flights


# --- distribution loader ----------------------------------------------------

def build_distribution_loader(pmf, qubits) -> Circuit:
    """Binary tree of prefix-controlled Y rotations mapping |0..0> on the
    register `qubits` (LSB first, registered as "D") to sum sqrt(p)|d>.

    The rotation on bit j under high-bit prefix p puts the conditional mass
    of the lower half of that prefix's value block on |0>. Branches with
    zero mass are skipped (their angle is undefined and they are never
    reached); zero angles are still emitted. An empty register (d_max 0)
    gives no gates.
    """
    pmf, qubits = _validated_pmf(pmf), tuple(qubits)
    width = len(qubits)
    if len(pmf) > (1 << width):
        raise InvariantError(f"pmf of length {len(pmf)} needs more than {width} qubits")
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
    return Circuit(max(qubits, default=-1) + 1, tuple(gates), {"D": qubits})


# --- region comparator -------------------------------------------------------

def build_region_flag(x_register, boundary: int, anc_qubit: int) -> Circuit:
    """Comparator circuit: anc flips iff the x register encodes a value
    >= boundary (= 2^k).

    That holds iff exactly one bit from k up is the highest 1, so: one X per
    such bit, highest first, controlled on it at |1> and every higher bit at
    |0>. The w-k conditions are disjoint and each gate has a control.
    """
    x_register = tuple(x_register)
    width = len(x_register)
    if boundary <= 0 or boundary & (boundary - 1):
        raise InvariantError(f"boundary must be a power of two, got {boundary}")
    if boundary >= (1 << width):
        raise InvariantError(f"boundary {boundary} not below 2^{width}")
    k = boundary.bit_length() - 1
    gates = []
    for i in reversed(range(k, width)):
        higher_zero = [(q, False) for q in reversed(x_register[i + 1 :])]
        gates.append(x(anc_qubit, higher_zero + [(x_register[i], True)]))
    n = max(x_register + (anc_qubit,)) + 1
    return Circuit(n, tuple(gates), {"X": x_register, "AncR": (anc_qubit,)})


# --- reaction rotation -------------------------------------------------------

def _reaction_angle(spec: RegionSpec) -> float:
    return 2.0 * math.acos(min(1.0, math.sqrt(spec.p_absorb)))


def build_reaction_rotation(regions, anc_r: int, r_qubit: int) -> Circuit:
    """Rotate r_qubit so P(|1>) equals the scatter probability of the region
    selected by anc_r (|1> = region 2)."""
    regions = tuple(regions)
    gates = (
        ry(_reaction_angle(regions[1]), r_qubit, [(anc_r, True)]),
        ry(_reaction_angle(regions[0]), r_qubit, [(anc_r, False)]),
    )
    return Circuit(max(anc_r, r_qubit) + 1, gates, {"AncR": (anc_r,), "R": (r_qubit,)})


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


def build_controlled_adder(x_register, d_register, control_qubit: int | None = None) -> Circuit:
    """In-place adder |x>|d> -> |x+d mod 2^w>|d>, optionally gated on
    control_qubit (Draper, quant-ph/0008033): QFT on x, phase kicks
    controlled on d, inverse QFT. The QFT output is bit-reversed, so the
    kick for Fourier place j goes to x qubit w-1-j and no swaps are needed."""
    x_register, d_register = tuple(x_register), tuple(d_register)
    if len(d_register) > len(x_register):
        raise InvariantError("d register wider than x register")
    touched = x_register + d_register
    if control_qubit is not None:
        touched += (control_qubit,)
    if len(set(touched)) != len(touched):
        raise InvariantError("adder registers and control must be disjoint")
    n = max(touched) + 1
    w = len(x_register)
    extra: list[Control] = [] if control_qubit is None else [(control_qubit, True)]
    qft = Circuit(n, _qft_gates(x_register))
    gates = list(qft.gates)
    for k, dq in enumerate(d_register):
        for j in range(w - k):
            angle = math.pi / (1 << (w - 1 - j - k))
            gates.append(phase_shift(angle, x_register[w - 1 - j], [(dq, True)] + extra))
    gates.extend(inverse(qft).gates)
    return Circuit(n, tuple(gates), {"X": x_register, "D": d_register})


# --- full transport circuit ---------------------------------------------------

def transport_registers(problem: TransportProblem) -> dict[str, tuple[int, ...]]:
    """Register layout of the transport circuit, LSB-first within each
    register: X, then Anc.R, then per flight D_m (and R_m when the flight is
    gated), then Anc.P. D_m is empty when d_max is 0."""
    w, dw = problem.x_qubits, problem.d_width
    registers: dict[str, tuple[int, ...]] = {"X": tuple(range(w)), "AncR": (w,)}
    cursor = w + 1
    for m in range(1, problem.max_flights + 1):
        registers[f"D{m}"] = tuple(range(cursor, cursor + dw))
        cursor += dw
        if problem.has_reaction(m):
            registers[f"R{m}"] = (cursor,)
            cursor += 1
    registers["AncP"] = (cursor,)
    return registers


# every flight returns these to |0>, so the state's support leaves them out
_ANCILLAE = ("AncR", "AncP")


def transport_widths(problem: TransportProblem) -> tuple[int, int]:
    """Qubits of the transport circuit and of its support, the registers
    other than AncR and AncP (see `apply_transport_inplace`), counted in
    closed form without building the layout: X, the two ancillae, d_width
    qubits per flight and one R_m per gated flight."""
    gated = problem.max_flights - 1 if problem.first_flight_always else problem.max_flights
    n = problem.x_qubits + len(_ANCILLAE) + problem.max_flights * problem.d_width + gated
    return n, n - len(_ANCILLAE)


def build_transport_circuit(problem: TransportProblem) -> Circuit:
    """Assemble the full flight-by-flight circuit for a problem from the
    gates of the four gadget builders above, which are their only definition,
    on the registers of `transport_registers`.
    """
    registers = transport_registers(problem)
    x_register, (anc_r,), (anc_p,) = registers["X"], registers["AncR"], registers["AncP"]
    comparator = build_region_flag(x_register, problem.boundary, anc_r)
    uncompare = inverse(comparator).gates
    gating: list[int] = []  # the reaction qubits so far
    gates: list[Gate] = []
    for m in range(1, problem.max_flights + 1):
        d_register = registers[f"D{m}"]
        gates.extend(comparator.gates)
        for polarity, spec in ((True, problem.regions[1]), (False, problem.regions[0])):
            loader = build_distribution_loader(spec.distance_pmf, d_register)
            gates.extend(add_controls(loader, [(anc_r, polarity)]).gates)
        if problem.has_reaction(m):
            (r_qubit,) = registers[f"R{m}"]
            gating.append(r_qubit)
            gates.extend(build_reaction_rotation(problem.regions, anc_r, r_qubit).gates)
        gates.extend(uncompare)
        if not d_register:
            continue  # no motion to gate
        progress = [mct(gating, anc_p)] if gating else []
        adder = build_controlled_adder(x_register, d_register, anc_p if gating else None)
        gates.extend(progress + list(adder.gates) + progress)
    return Circuit(anc_p + 1, tuple(gates), registers)


# --- register-level simulation -----------------------------------------------

def _loaded_amplitudes(pmf, width: int) -> np.ndarray:
    """Amplitudes the distribution loader leaves on a fresh width-qubit
    register, from the angles of its gates.

    When the rotation on bit j under a prefix runs, that prefix's block
    holds one nonzero amplitude a, at bit j and every lower bit 0, so it
    puts a cos(angle/2) there and a sin(angle/2) at bit j = 1: what the
    gate kernel's Y rotation computes on a target half that is still zero.
    """
    amplitudes = np.zeros(1 << width, dtype=np.complex128)
    amplitudes[0] = 1.0
    for gate in build_distribution_loader(pmf, range(width)).gates:
        low = sum(positive << q for q, positive in gate.controls)
        held = amplitudes[low]
        amplitudes[low] = held * np.cos(gate.angle / 2.0)
        amplitudes[low | 1 << gate.targets[0]] = held * np.sin(gate.angle / 2.0)
    return amplitudes


def _reaction_amplitudes(regions) -> tuple[np.ndarray, np.ndarray]:
    """(|0>, |1>) amplitudes the reaction rotation leaves on a fresh R qubit,
    for region 1 and region 2, from the angles of its two gates."""
    rotation = build_reaction_rotation(regions, 0, 1)
    angle = {positive: g.angle for g in rotation.gates for _, positive in g.controls}
    return tuple(
        np.array([np.cos(angle[in_region2] / 2.0), np.sin(angle[in_region2] / 2.0)])
        for in_region2 in (False, True)
    )


def apply_transport_inplace(amplitudes: np.ndarray, problem: TransportProblem) -> None:
    """Write the final state of the transport circuit, restricted to its
    support, into amplitudes that hold |0> on every register but X, one
    array operation per gadget.

    Every comparator and every progress AND is uncomputed within its
    flight, so AncR and AncP end in |0> and the state lives on the support:
    the registers X, D_m and R_m of `transport_registers`, in that order
    with X on the lowest qubits, 2^(n-2) amplitudes for n circuit qubits.
    The array is viewed with one axis per support register, and flight m
    writes only the block where every later register is still |0>:
      - comparator and AncP: each compute/uncompute pair cancels, so the
        region is a boolean mask over X and the AND is "every gated R_j
        so far is 1";
      - loader and reaction: new[R_m=r, D_m=d] = old[0, 0] * load[d] *
        react[r] for x's region, one multiply per region and value of r
        over every d, with (r, d) = (0, 0), which is old itself, scaled
        last; `build_distribution_loader` and `build_reaction_rotation`
        supply the amplitudes;
      - adder: on the slab where D_m = d >= 1 and every gated R_j is 1,
        a cyclic shift of X by d, which is the modular add exactly. That
        slab is written once more, after both regions' unshifted values:
        X = x + d mod 2^x_qubits gets old[0, 0][x] * load[d] * react[1]
        (load[d] alone for an ungated flight) for x's region, read from
        old before it is scaled.
    Every product is written with `out=` into the state, so the pass
    allocates nothing of the state's size: the loader multiplies each
    region's X range by a table of (r, d) scalars, and the adder writes
    each moved amplitude into its shifted place straight from old.

    `build_transport_circuit` is the definition this pass must reproduce;
    the tests compare the two on full states. Raises InvariantError if the
    array does not hold 2^(n-2) amplitudes, or if the result's norm is not 1.
    """
    n, support = transport_widths(problem)
    if len(amplitudes) != 1 << support:
        raise InvariantError(
            f"transport circuit has {n} qubits, so its support needs {1 << support} "
            f"amplitudes; state has {len(amplitudes)}"
        )
    registers = {
        name: qubits for name, qubits in transport_registers(problem).items()
        if name not in _ANCILLAE
    }
    # registers sit on consecutive qubits in insertion order; in C order the
    # register on the highest qubits varies slowest
    names = tuple(reversed(registers))
    state = amplitudes.reshape([1 << len(registers[name]) for name in names])

    def part(values: dict) -> np.ndarray:
        return state[tuple(values.get(name, slice(None)) for name in names)]

    size, boundary = problem.position_count, problem.boundary
    regions = ((0, boundary), (boundary, size))  # region 1 is X < boundary
    load = [_loaded_amplitudes(spec.distance_pmf, problem.d_width) for spec in problem.regions]
    react = _reaction_amplitudes(problem.regions)
    no_reaction = (np.ones(1), np.ones(1))  # r = 0 only; the flight has no R axis
    at_zero = {name: 0 for name in names if name != "X"}  # still |0> before this flight
    gating: dict[str, int] = {}  # every gated R_j so far, held at 1
    for m in range(1, problem.max_flights + 1):
        d_name, r_name = f"D{m}", f"R{m}"
        source = part({**at_zero, **gating})  # D_m = R_m = 0, earlier gated R_j at 1
        del at_zero[d_name]
        if problem.has_reaction(m):
            del at_zero[r_name]
            gating[r_name] = 1
        reaction = react if problem.has_reaction(m) else no_reaction
        block = part(at_zero)  # axes R_m, D_m, the earlier registers, X
        if not problem.has_reaction(m):
            block = block[None]  # r = 0 only, on a length-1 axis
        old = block[0, 0]
        # scale[k][r, d] = load[d] * react[r] for region k, shaped to broadcast over old
        scale = [
            (load[k][None, :] * reaction[k][:, None]).reshape(block.shape[:2] + (1,) * old.ndim)
            for k in range(2)
        ]
        for k, (lo, hi) in enumerate(regions):
            new, held = block[..., lo:hi], old[..., lo:hi]
            for r in range(1, len(scale[k])):
                np.multiply(held, scale[k][r], out=new[r])
            np.multiply(held, scale[k][0, 1:], out=new[0, 1:])
        # the adder's slab (D_m = d, every gated R_j at 1) is rewritten from the
        # unscaled source at X = x + d mod size, over both regions' values above
        for d in range(1, len(load[0])):
            moved = part({**at_zero, **gating, d_name: d})
            for k, (lo, hi) in enumerate(regions):
                factor = scale[k][-1, d].item()
                cut = max(lo, min(hi, size - d))  # [cut, hi) wraps to the bottom
                for start, stop, shift in ((lo, cut, d), (cut, hi, d - size)):
                    if start < stop:
                        window = moved[..., start + shift : stop + shift]
                        np.multiply(source[..., start:stop], factor, out=window)
        for k, (lo, hi) in enumerate(regions):
            held = old[..., lo:hi]
            np.multiply(held, scale[k][0, 0], out=held)  # (r, d) = (0, 0) is old itself
    sim.check_norm(amplitudes)


def support_state(problem: TransportProblem) -> np.ndarray:
    """The transport circuit's final state on its support, written by
    `apply_transport_inplace`; the width check counts the circuit's qubits
    before the smaller support array is allocated."""
    n, support = transport_widths(problem)
    sim.check_width(n)
    amplitudes = sim.zero_state(support)
    apply_transport_inplace(amplitudes, problem)
    return amplitudes


def transport_distribution(problem: TransportProblem) -> np.ndarray:
    """Final-position probabilities: the X marginal of the support state,
    summed a block of rows at a time, so the support is the only
    state-sized array."""
    return sim.low_marginal(support_state(problem), problem.x_qubits)
