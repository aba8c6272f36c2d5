"""The simplified radiation-transport circuit: its builders and the
register-level engine every command runs it with.

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
`transport_branches` computes the same final state at register level,
one array operation per gadget instead of one pass over the state per gate
(~50 per flight), and without the X axis: the particle starts at 0 and
each flight's move is fixed by the D_m and R_m values before it, so every
basis value of D_1, R_1, ..., D_F, R_F carries one amplitude, at one
position, and AncR and AncP end in |0>. It keeps one complex amplitude and
one integer position per such value, 2^x_qubits times fewer entries than
the dense support. Every command that needs the state reads these arrays:
`transport_distribution` (`exact`, `mc --mode circuit`) sums the squares
by position and `qae.predicate_probability` the predicate's mass, each in
the order the dense support's blocked readers summed them, so the bits are
the same. The tests scatter the branches into the support and hold it to
the gate-level circuit, run by the gate kernel in `tests/reference.py`.

The engine's qubit ceiling (`engine_max_qubits`, 26 unless
QTRANSPORT_MAX_QUBITS overrides it) is checked by `check_width` against the
circuit's width, whatever the width of the arrays a command holds.

`sample` draws shots from a probability vector sequentially and vectorized
from a single seeded stream, a block of 2^16 uniforms at a time, so counts
are bit-identical for a given seed no matter how the surrounding code is
parallelized, and its scratch does not grow with the number of shots.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Control, Gate, add_controls, h, inverse, mct, phase_shift, ry, x
from .errors import CapacityError, InvariantError

PRE_FLIGHT = "pre_flight"
POST_FLIGHT = "post_flight"
REACT = "react"
MOVE = "move"

_PMF_SUM_TOL = 1e-9
# Widest position register a problem may declare. It is far past what any
# engine can hold (numpy indexes under 2^63 bytes) and what the qubit
# budgets need, and small enough that 1 << x_qubits is a cheap integer;
# wider values are refused before any shift or range is formed.
MAX_X_QUBITS = 1024
DEFAULT_MAX_QUBITS = 26
MAX_QUBITS_ENV = "QTRANSPORT_MAX_QUBITS"
_BLOCK = 1 << 16  # amplitudes squared, or shots drawn, at a time by the blocked loops


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
        if not 1 <= self.x_qubits <= MAX_X_QUBITS:
            raise InvariantError(f"x_qubits must be in [1, {MAX_X_QUBITS}], got {self.x_qubits}")
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
    other than AncR and AncP (see `transport_branches`), counted in
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


# --- engine ceiling and norm --------------------------------------------------

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


def check_norm(amplitudes: np.ndarray) -> None:
    """Raise InvariantError unless the amplitudes have norm 1 (to 1e-9)."""
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) >= 1e-9:
        raise InvariantError(f"statevector norm drifted to {norm!r}")


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


def _flights(problem: TransportProblem, amplitudes: np.ndarray, positions: np.ndarray):
    """Run every flight of the transport circuit on branches that start at
    `amplitudes` and `positions`, with |0> on every register but X.

    A branch is one basis value of the registers other than X and the two
    ancillae, with its amplitude and the X value it sits at. Each comparator
    and progress AND is uncomputed within its flight, so the region is read
    from the position and the AND is "every gated R_j so far is 1". Flight
    m splits each branch over (R_m, D_m) = (r, d): its amplitude is
    multiplied by load[d] * react[r] for its region, and it moves by d,
    mod 2^x_qubits, when every gated R_j so far, R_m included, is 1; the
    new branches go on an axis above the old ones, as R_m and D_m sit above
    the earlier registers. So with n0 starting branches, branch
    i = j * n0 + s started from branch s and has value j on the registers
    D_1, R_1, ..., D_F, R_F. Each flight multiplies an amplitude by one
    complex scalar, the same for every branch of a region, so its bits do
    not depend on which branches share an array. Returns the amplitudes
    and positions; raises InvariantError if their norm is not 1.
    """
    size, boundary = problem.position_count, problem.boundary
    load = [_loaded_amplitudes(spec.distance_pmf, problem.d_width) for spec in problem.regions]
    react = _reaction_amplitudes(problem.regions)
    no_reaction = (np.ones(1), np.ones(1))  # r = 0 only; the flight has no R axis
    distances = np.arange(len(load[0]))[:, None]
    moving = np.ones(len(amplitudes), dtype=bool)  # every gated R_j so far is 1
    for m in range(1, problem.max_flights + 1):
        reaction = react if problem.has_reaction(m) else no_reaction
        # scale[k][r, d] = load[d] * react[r] for region k, one per new branch
        scale = [(load[k][None, :] * reaction[k][:, None])[..., None] for k in range(2)]
        new = np.where(positions >= boundary, scale[1], scale[0])
        np.multiply(amplitudes, new, out=new)
        shape = new.shape  # (R_m, D_m, branches so far)
        positions = np.broadcast_to(positions, shape).copy()
        # the adder runs on the last value of R_m: 1, or 0 with no R axis
        positions[-1] += distances * moving
        positions[-1] &= size - 1
        moving = np.broadcast_to(moving, shape).copy()
        moving[:-1] = False
        amplitudes, positions, moving = new.ravel(), positions.ravel(), moving.ravel()
    check_norm(amplitudes)
    return amplitudes, positions


def transport_branches(problem: TransportProblem) -> tuple[np.ndarray, np.ndarray]:
    """The transport circuit's final state as one amplitude and one position
    per basis value of its other support registers (see `_flights`).

    The particle starts at X = 0, so each value of D_1, R_1, ..., D_F, R_F
    carries one amplitude, at one position; AncR and AncP end in |0>. In
    the support's order, with X on the lowest qubits, the state is
    `amplitudes[i]` at index `positions[i] + i * 2^x_qubits` and zero
    elsewhere: 2^x_qubits times fewer entries. The width check counts the
    circuit's qubits; CapacityError names the bytes when numpy could not
    index that support, so every such index fits an intp.
    `build_transport_circuit` is the definition the branches must reproduce;
    the tests scatter them into the support and compare with the gate kernel.
    """
    n, support = transport_widths(problem)
    check_width(n)
    nbytes = 16 << support
    if nbytes > np.iinfo(np.intp).max:
        raise CapacityError(f"a {support}-qubit support of {nbytes} bytes is past numpy's index range")
    return _flights(problem, np.ones(1, dtype=np.complex128), np.zeros(1, dtype=np.intp))


def transport_distribution(problem: TransportProblem) -> np.ndarray:
    """Final-position probabilities: the squared branch amplitudes summed by
    position, one `_BLOCK` of the support (2^16 >> x_qubits branches,
    at least one) at a time, the blocks added in order, as the rows of a
    dense support's blocks would be summed."""
    amplitudes, positions = transport_branches(problem)
    squares = np.square(np.abs(amplitudes))
    size = problem.position_count
    step = _BLOCK >> problem.x_qubits
    if step <= 1:  # at most one branch per block: the block sums are its squares
        return np.bincount(positions, squares, minlength=size)
    probs = np.zeros(size)
    for start in range(0, len(squares), step):
        chunk = slice(start, start + step)
        probs += np.bincount(positions[chunk], squares[chunk], minlength=size)
    return probs


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of `shots` outcomes drawn i.i.d. from a probability vector.

    The uniforms come from one seeded stream, 2^16 (`_BLOCK`) at a time,
    and each block's outcomes are added into the counts in place. PCG64
    makes one double per output, so the counts are those of a single draw
    of every shot, and identical seeds give identical counts. Next to the
    cdf and the counts, the scratch is one block whatever the number of
    shots or positions.
    """
    if shots < 1:
        raise InvariantError("shots must be >= 1")
    cdf = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(probs), dtype=np.intp)
    for start in range(0, shots, _BLOCK):
        outcomes = np.searchsorted(cdf, rng.random(min(_BLOCK, shots - start)), side="right")
        np.minimum(outcomes, len(probs) - 1, out=outcomes)
        np.add.at(counts, outcomes, 1)
    return counts
