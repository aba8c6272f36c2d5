import os

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem
from qtransport.qae import build_grover_operator
from qtransport.sim import apply_inplace, flag_probability, zero_state
from qtransport.transport import MOVE

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
    assert tc.anc_r_qubit == len(tc.x_register)
    assert tc.anc_p_qubit == tc.circuit.qubit_count - 1
    return full.reshape(2, -1, 2, 1 << tc.anc_r_qubit)[0, :, 0]


def embed_support(support: np.ndarray, tc) -> np.ndarray:
    """The full state whose AncR = AncP = 0 slice is `support`, zero elsewhere."""
    full = np.zeros(1 << tc.circuit.qubit_count, dtype=np.complex128)
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
        by_power[m] = flag_probability(state, flag)
    return np.array([by_power[m] for m in powers])


def full_draw_counts(problem: TransportProblem, shots: int, rng: np.random.Generator) -> np.ndarray:
    """The flowchart tally as one batch that draws `rng.random(shots)` at every
    draw site, alive or not, and has history i read entry i: the reference
    the blocked sampler's stream placement is held to."""
    boundary = problem.boundary
    scatter = np.array([r.p_scatter for r in problem.regions])
    thresholds = np.cumsum([r.distance_pmf for r in problem.regions], axis=1)[:, :-1].T
    counts = np.zeros(problem.position_count, dtype=np.int64)
    live = np.arange(shots)
    pos = np.zeros(shots, dtype=np.int64)
    for step in problem.steps():
        u = rng.random(shots)[live]
        region = (pos >= boundary).astype(np.intp)
        if step == MOVE:
            for cdf_k in thresholds:
                pos += u >= cdf_k.take(region)
        else:
            keep = u < scatter.take(region)
            counts += np.bincount(pos[~keep], minlength=len(counts))
            live = live[keep]
            pos = pos[keep]
    counts += np.bincount(pos, minlength=len(counts))
    return counts
