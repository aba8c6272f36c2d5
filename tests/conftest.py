import dataclasses
import os

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem
from qtransport.circuit import Circuit
from qtransport.errors import InvariantError
from qtransport.qae import build_flag_oracle, build_grover_operator
from qtransport.sim import _BLOCK, _split, apply_inplace, check_width, zero_state
from qtransport.transport import MOVE, REACT, transport_branches, transport_widths

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TABLE_A1_REGIONS = (
    RegionSpec((0.3, 0.4, 0.2, 0.1), 0.25),
    RegionSpec((0.4, 0.4, 0.2, 0.0), 0.40),
)

# P(x3 = 0) for the two-region reference problem, by hand enumeration of the
# d=0 paths: 0.3 * (0.25 + 0.75*0.3 * (0.25 + 0.75*0.3))
HAND_P_ZERO = 0.1070625


@pytest.fixture
def table_a1() -> TransportProblem:
    return TransportProblem(x_qubits=4, max_flights=3, boundary=4, regions=TABLE_A1_REGIONS)


def basis_state(n: int, index: int) -> np.ndarray:
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[index] = 1.0
    return amplitudes


def register_value(basis_index: int, qubits) -> int:
    """Integer encoded by a register's qubits within a basis-state index."""
    value = 0
    for place, q in enumerate(qubits):
        value |= ((basis_index >> q) & 1) << place
    return value


def encode_register(qubits, value: int, base_index: int = 0) -> int:
    """Basis-state index with the register's qubits set to encode `value`."""
    if value < 0 or value >= (1 << len(qubits)):
        raise InvariantError(f"value {value} does not fit in {len(qubits)} qubits")
    index = base_index
    for place, q in enumerate(qubits):
        index &= ~(1 << q)
        index |= ((value >> place) & 1) << q
    return index


def marginal(amplitudes: np.ndarray, qubits) -> np.ndarray:
    """Probability of each integer value of the register on `qubits`
    (LSB first), as an array of length 2^len(qubits). Raises InvariantError
    if a qubit is out of range or repeated."""
    qubits = tuple(qubits)
    n = len(amplitudes).bit_length() - 1
    if any(not 0 <= q < n for q in qubits) or len(set(qubits)) != len(qubits):
        raise InvariantError(f"register {qubits} is not distinct qubits of a {n}-qubit state")
    probs = np.abs(amplitudes)
    np.square(probs, out=probs)
    probs, axis = _split(probs, qubits)
    # sum out every other axis; most significant place first, so that the
    # flattened C order is the register value
    return np.einsum(probs, list(range(probs.ndim)), [axis[q] for q in reversed(qubits)]).ravel()


def problem_to_dict(problem: TransportProblem) -> dict:
    """The problem as the JSON document `cli.parse_problem_dict` reads."""
    return {
        "x_qubits": problem.x_qubits,
        "max_flights": problem.max_flights,
        "boundary": problem.boundary,
        "regions": [
            {"distance_pmf": list(r.distance_pmf), "p_absorb": r.p_absorb}
            for r in problem.regions
        ],
        "first_flight_always": problem.first_flight_always,
        "reaction_timing": problem.reaction_timing,
    }


def random_pmf(rng: np.random.Generator, length: int, allow_zeros: bool = True) -> tuple:
    weights = rng.random(length)
    if allow_zeros and length > 1 and rng.random() < 0.3:
        zero = int(rng.integers(length))
        # with two weights, zeroing the second leaves all mass at distance
        # 0, a problem that never moves; zero the first instead
        weights[zero if length > 2 else 0] = 0.0
    weights /= weights.sum()
    return tuple(weights)


def random_problem(rng: np.random.Generator, max_total_qubits: int = 16) -> TransportProblem:
    """Random valid problem whose A operator (the transport circuit plus
    amplitude estimation's flag) fits in max_total_qubits.

    d_max is drawn from 1..3 and random_pmf never puts all the mass at
    distance 0, so every problem moves; d_max = 0 has its own no-motion
    tests.
    """
    while True:
        x_qubits = int(rng.integers(2, 6))
        d_max = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        if n * d_max >= (1 << x_qubits):
            continue
        first = bool(rng.integers(2))
        d_width = d_max.bit_length()
        reactions = n if not first else n - 1
        total = x_qubits + 2 + n * d_width + reactions + 1
        if total > max_total_qubits:
            continue
        boundary = 1 << int(rng.integers(0, x_qubits))
        timing = "pre_flight" if rng.random() < 0.5 else "post_flight"
        regions = tuple(
            RegionSpec(random_pmf(rng, d_max + 1), float(rng.random())) for _ in range(2)
        )
        return TransportProblem(
            x_qubits=x_qubits,
            max_flights=n,
            boundary=boundary,
            regions=regions,
            first_flight_always=first,
            reaction_timing=timing,
        )


def support_slice(full: np.ndarray, tc) -> np.ndarray:
    """View of a full transport-circuit state where AncR = AncP = 0, one row
    per value of the support's other registers and one column per position,
    in the support's order: AncR sits just above X and AncP on the top qubit."""
    (anc_r,), (anc_p,) = tc.registers["AncR"], tc.registers["AncP"]
    assert anc_r == len(tc.registers["X"])
    assert anc_p == tc.qubit_count - 1
    return full.reshape(2, -1, 2, 1 << anc_r)[0, :, 0]


def scatter_branches(amplitudes: np.ndarray, positions: np.ndarray, problem) -> np.ndarray:
    """The dense support state the transport branches stand for: with n0
    starting branches, branch i = j * n0 + s goes to X = positions[i] on row
    j of the registers other than X, as `transport._flights` orders them."""
    rows = 1 << (transport_widths(problem)[1] - problem.x_qubits)
    support = np.zeros(rows << problem.x_qubits, dtype=np.complex128)
    row = np.arange(len(amplitudes)) // (len(amplitudes) // rows)
    np.add.at(support, (row << problem.x_qubits) + positions, amplitudes)
    return support


def branch_support(problem) -> np.ndarray:
    """`transport_branches(problem)` scattered into its dense support."""
    return scatter_branches(*transport_branches(problem), problem)


def low_marginal(amplitudes: np.ndarray, width: int) -> np.ndarray:
    """Probability of each value of the register on the lowest `width`
    qubits, as the blocked reader of the dense support summed it: the rows
    of the (-1, 2^width) view squared and summed over a block of 2^16
    amplitudes at a time (a row longer than that in pieces of a block), the
    blocks added in order. The reference `transport_distribution` is held
    to bit for bit."""
    rows = amplitudes.reshape(-1, 1 << width)
    step = max(1, _BLOCK >> width)
    probs = np.zeros(rows.shape[1])
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        for col in range(0, rows.shape[1], _BLOCK):
            probs[col : col + _BLOCK] += np.square(np.abs(block[:, col : col + _BLOCK])).sum(axis=0)
    return probs


def embed_support(support: np.ndarray, tc) -> np.ndarray:
    """The full state whose AncR = AncP = 0 slice is `support`, zero elsewhere."""
    full = np.zeros(1 << tc.qubit_count, dtype=np.complex128)
    view = support_slice(full, tc)
    view[...] = support.reshape(view.shape)
    return full


def simulated_grover_probabilities(a, powers) -> np.ndarray:
    """Flag |1> probability after Q^m A|0> for each power m, by applying the
    gate-level Grover operator m times: the reference for the closed form."""
    q = build_grover_operator(a)  # raises InvariantError when A has no flag
    flag = a.registers["flag"][0]
    powers = list(powers)
    state = zero_state(a.qubit_count)
    apply_inplace(state, a)
    current = 0
    by_power = {}
    for m in sorted(set(powers)):
        while current < m:
            apply_inplace(state, q)
            current += 1
        by_power[m] = marginal(state, (flag,))[1]
    return np.array([by_power[m] for m in powers])


def top_half_probability(amplitudes: np.ndarray) -> float:
    """|1> probability of the top qubit as the removed `sim.flag_probability`
    summed it: the top half squared and summed a block of 2^16 amplitudes at
    a time, or in one piece when the whole state is one block."""
    half = len(amplitudes) // 2
    total = 0.0
    for start in range(0, len(amplitudes), _BLOCK):
        block = amplitudes[start : start + _BLOCK]
        if half < len(block):
            total += np.square(np.abs(block.reshape(-1, 2, half)[:, 1])).sum()
        elif start & half:  # the block lies inside the top half
            total += np.square(np.abs(block)).sum()
    return float(total)


def flag_half_predicate_probability(problem: TransportProblem, pred) -> float:
    """`qae.predicate_probability` as it was computed on the support plus
    A's flag one past it: the transport branches scattered into the flag = 0
    half, the predicate's gates through the gate kernel, then the flag read.
    The reference the masked read of the branches is held to bit for bit."""
    n, support = transport_widths(problem)
    # the oracle's gates read only X, so only the flag moves to the support's top
    oracle = build_flag_oracle(problem, pred)
    gates = [dataclasses.replace(g, targets=(support,)) for g in oracle.gates]
    check_width(n + 1)
    amplitudes = zero_state(support + 1)
    amplitudes[: 1 << support] = branch_support(problem)
    apply_inplace(amplitudes, Circuit(support + 1, gates))
    return top_half_probability(amplitudes)


def flowchart_steps(problem: TransportProblem) -> tuple[str, ...]:
    """`problem.steps()` without a reaction after the last flight, which
    moves no history: the steps the flowchart sampler draws for."""
    steps = problem.steps()
    while steps and steps[-1] == REACT:
        steps = steps[:-1]
    return steps


def full_draw_counts(problem: TransportProblem, shots: int, rng: np.random.Generator) -> np.ndarray:
    """The flowchart tally without compaction, the reference the compacting
    sampler is held to bitwise. Blocks of `_BLOCK` histories run in order;
    every history keeps its place in its block, and a boolean mask marks
    those still in flight. Each draw site draws `rng.random(alive.sum())`,
    scatters the draws onto the alive places in order, and applies the step
    to the whole block with `np.where`; a distance is
    min(searchsorted(cdf, u, "right"), d_max) of the history's region."""
    d_max = problem.d_max
    cdfs = np.cumsum([r.distance_pmf for r in problem.regions], axis=1)
    counts = np.zeros(problem.position_count, dtype=np.int64)
    for block_start in range(0, shots, _BLOCK):
        size = min(_BLOCK, shots - block_start)
        pos = np.zeros(size, dtype=np.int64)
        alive = np.ones(size, dtype=bool)
        for step in flowchart_steps(problem):
            u = np.zeros(size)
            u[np.flatnonzero(alive)] = rng.random(alive.sum())
            high = pos >= problem.boundary
            if step == MOVE:
                low_d, high_d = (np.minimum(np.searchsorted(cdf, u, "right"), d_max) for cdf in cdfs)
                pos = np.where(alive, pos + np.where(high, high_d, low_d), pos)
            else:
                scatter = np.where(high, problem.regions[1].p_scatter, problem.regions[0].p_scatter)
                alive &= u < scatter
        counts += np.bincount(pos, minlength=len(counts))
    return counts
