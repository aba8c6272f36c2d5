"""Property tests over random problems and random likelihoods.

Each engine example is a problem drawn by `conftest.random_problem` from a
drawn seed, so the examples cover the same problem space as the seeded
tests. The tally examples also draw shots on both sides of block edges,
hold the compacting sampler to the uncompacted reference, and hold the
pre- and post-flight tallies of one seed to each other bitwise. The
likelihood-search examples draw Grover schedules, shots and hits, and hold
the block search to the argmax over every grid point. The settings are
derandomized with no example database, so a run is deterministic and
tier-1 stays fast.
"""
import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtransport.circuit import dump_circuit, inverse
from qtransport.classical_mc import _simulate_counts, exact_distribution
from qtransport.qae import (
    _GROUP_BLOCKS,
    _LIKELIHOOD_BLOCK,
    MAX_POWER,
    Predicate,
    _block_bounds,
    _grid_points,
    _likelihood_argmax,
    _log_likelihood,
    build_a_operator,
    max_likelihood_theta,
    predicate_mask,
    predicate_probability,
)
from qtransport.transport import _BLOCK, build_transport_circuit, transport_distribution

from reference import apply_inplace, exact_amplitude, parse_circuit, zero_state
from conftest import (
    branch_support,
    embed_support,
    flag_half_predicate_probability,
    full_draw_counts,
    random_problem,
    support_slice,
    top_half_probability,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=20)

problem_seeds = st.integers(min_value=0, max_value=2**32 - 1)
predicate_kinds = st.sampled_from(["region2", "geq:boundary", "eq:v"])


def draw_problem(seed: int):
    return random_problem(np.random.default_rng(seed))


def draw_predicate(kind: str, v: int, problem):
    if kind == "region2":
        return Predicate.region2()
    if kind == "geq:boundary":
        return Predicate.geq(problem.boundary)
    return Predicate.eq(v % problem.position_count)


@DETERMINISTIC
@given(seed=problem_seeds, kind=predicate_kinds, v=st.integers(0, 31))
def test_flag_probability_is_predicate_mass(seed, kind, v):
    problem = draw_problem(seed)
    pred = draw_predicate(kind, v, problem)
    tc = build_transport_circuit(problem)
    a = build_a_operator(problem, pred)
    flag = a.registers["flag"][0]
    assert not any(flag in g.qubits for g in a.gates[: tc.gate_count])
    mass = transport_distribution(problem)[predicate_mask(pred, problem)].sum()
    assert abs(exact_amplitude(a) - mass) <= 1e-12


@DETERMINISTIC
@given(seed=problem_seeds, kind=predicate_kinds, v=st.integers(0, 31))
def test_register_level_flag_probability_matches_gate_level(seed, kind, v):
    problem = draw_problem(seed)
    pred = draw_predicate(kind, v, problem)
    want = exact_amplitude(build_a_operator(problem, pred))
    assert abs(predicate_probability(problem, pred) - want) <= 1e-12


@DETERMINISTIC
@given(seed=problem_seeds, kind=predicate_kinds, v=st.integers(0, 31))
def test_masked_support_read_is_the_flag_half_bitwise(seed, kind, v):
    problem = draw_problem(seed)
    pred = draw_predicate(kind, v, problem)
    assert predicate_probability(problem, pred) == flag_half_predicate_probability(problem, pred)


@DETERMINISTIC
@given(seed=problem_seeds, kind=predicate_kinds, v=st.integers(0, 31))
def test_masked_flag_read_is_the_top_half_bitwise(seed, kind, v):
    problem = draw_problem(seed)
    a = build_a_operator(problem, draw_predicate(kind, v, problem))
    state = zero_state(a.qubit_count)
    apply_inplace(state, a)
    assert exact_amplitude(a) == top_half_probability(state)


@DETERMINISTIC
@given(seed=problem_seeds)
def test_register_level_state_matches_gate_level(seed):
    problem = draw_problem(seed)
    tc = build_transport_circuit(problem)
    want, support = zero_state(tc.qubit_count), branch_support(problem)
    apply_inplace(want, tc)
    np.testing.assert_allclose(embed_support(support, tc), want, rtol=0, atol=1e-12)


@DETERMINISTIC
@given(seed=problem_seeds)
def test_gate_level_state_lives_on_the_support(seed):
    # every flight uncomputes AncR and AncP, so the gate-level state is the
    # register-level support on AncR = AncP = 0 and nothing elsewhere
    problem = draw_problem(seed)
    tc = build_transport_circuit(problem)
    full, support = zero_state(tc.qubit_count), branch_support(problem)
    apply_inplace(full, tc)
    inside = support_slice(full, tc)
    np.testing.assert_allclose(inside, support.reshape(inside.shape), rtol=0, atol=1e-12)
    inside[...] = 0.0
    assert np.abs(full).max() <= 1e-12


@DETERMINISTIC
@given(seed=problem_seeds)
def test_transport_matches_oracle(seed):
    problem = draw_problem(seed)
    np.testing.assert_allclose(
        transport_distribution(problem), exact_distribution(problem), rtol=0, atol=1e-9
    )


def transport_and_a(seed: int):
    problem = draw_problem(seed)
    return build_transport_circuit(problem), build_a_operator(problem, Predicate.region2())


@DETERMINISTIC
@given(seed=problem_seeds)
def test_dump_round_trip(seed):
    for c in transport_and_a(seed):
        assert parse_circuit(dump_circuit(c)) == c


@DETERMINISTIC
@given(seed=problem_seeds, state_seed=problem_seeds)
def test_inverse_restores_random_state(seed, state_seed):
    rng = np.random.default_rng(state_seed)
    for c in transport_and_a(seed):
        state = rng.normal(size=1 << c.qubit_count) + 1j * rng.normal(size=1 << c.qubit_count)
        state /= np.linalg.norm(state)
        work = state.copy()
        apply_inplace(work, c)
        apply_inplace(work, inverse(c))
        np.testing.assert_allclose(work, state, rtol=0, atol=1e-12)


@DETERMINISTIC
@given(seed=problem_seeds, shots=st.integers(1, 3 * _BLOCK + 5), stream_seed=problem_seeds)
@example(seed=0, shots=_BLOCK, stream_seed=0)
@example(seed=0, shots=_BLOCK + 1, stream_seed=0)
def test_blocked_tally_is_the_full_draw(seed, shots, stream_seed):
    problem = draw_problem(seed)
    rng, oracle = np.random.default_rng(stream_seed), np.random.default_rng(stream_seed)
    np.testing.assert_array_equal(
        _simulate_counts(problem, shots, rng), full_draw_counts(problem, shots, oracle)
    )
    assert rng.random() == oracle.random()


@DETERMINISTIC
@given(seed=problem_seeds, shots=st.integers(1, 3 * _BLOCK + 5), stream_seed=problem_seeds)
@example(seed=0, shots=_BLOCK, stream_seed=0)
@example(seed=0, shots=_BLOCK + 1, stream_seed=0)
def test_reaction_timings_give_the_same_tally(seed, shots, stream_seed):
    # the reaction gating a flight reads the same region under either
    # timing, and the post-flight reaction after the last flight draws
    # nothing, so one seed gives one tally and leaves the stream in one place
    problem = draw_problem(seed)
    pre = dataclasses.replace(problem, reaction_timing="pre_flight")
    post = dataclasses.replace(problem, reaction_timing="post_flight")
    np.testing.assert_allclose(exact_distribution(pre), exact_distribution(post), rtol=0, atol=1e-12)
    pre_rng, post_rng = np.random.default_rng(stream_seed), np.random.default_rng(stream_seed)
    np.testing.assert_array_equal(
        _simulate_counts(pre, shots, pre_rng), _simulate_counts(post, shots, post_rng)
    )
    assert pre_rng.random() == post_rng.random()


# --- likelihood search ---------------------------------------------------------

SEARCH = settings(DETERMINISTIC, max_examples=60)

powers_strategy = st.lists(
    st.one_of(
        st.just(0),
        st.just(MAX_POWER),
        st.integers(0, 300),
        st.integers(0, 61).map(lambda k: 1 << k),
        st.integers(0, MAX_POWER),
    ),
    min_size=1,
    max_size=7,
)


@st.composite
def likelihood_inputs(draw):
    """(powers, shots, hits): integer counts with hits often at 0 or s, or
    fractional weights such as exact probabilities fed as frequencies."""
    powers = draw(powers_strategy)
    if draw(st.booleans()):
        s = draw(st.sampled_from([1, 2, 7, 100, 1000]))
        shots = [s] * len(powers)
        hits = [draw(st.one_of(st.just(0), st.just(s), st.integers(0, s))) for _ in powers]
    else:
        shots = [draw(st.floats(0.5, 50.0)) for _ in powers]
        hits = [draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))])) * s for s in shots]
    return powers, shots, hits


@st.composite
def windows(draw):
    """(lo, hi, points) of the dense first-round grid, or of a 1001-point
    refinement window around one of its points, clamped at 0 or pi/2 at
    the ends."""
    if draw(st.booleans()):
        return 0.0, math.pi / 2, 100_000
    step = math.pi / 2 / 100_000
    best = draw(st.one_of(st.just(0), st.just(100_000), st.integers(0, 100_000))) * step
    return max(0.0, best - step), min(math.pi / 2, best + step), 1000


def linspace(window) -> np.ndarray:
    lo, hi, points = window
    return np.linspace(lo, hi, points + 1)


def grids():
    """The points of a window: the dense grid or a refinement window."""
    return windows().map(linspace)


def full_grid_theta(powers, shots, hits) -> float:
    """max_likelihood_theta as an argmax over every grid point of each round."""
    lo, hi, points, best = 0.0, math.pi / 2, 100_000, 0.0
    for _ in range(3):
        grid = np.linspace(lo, hi, points + 1)
        best = float(grid[np.argmax(_log_likelihood(grid, powers, shots, hits))])
        step = (hi - lo) / points
        lo, hi, points = max(0.0, best - step), min(math.pi / 2, best + step), 1000
    return best


def block_maxima(values: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(values, np.arange(0, len(values), _LIKELIHOOD_BLOCK))


@DETERMINISTIC
@given(window=windows(), index=st.one_of(st.just(0), st.just(1000), st.integers(0, 1000)))
@example(window=(0.0, math.pi / 2, 100_000), index=0)
@example(window=(0.0, math.pi / 2, 100_000), index=1000)
def test_grid_points_are_linspace_bitwise(window, index):
    # the window, and the next round's window around its point at `index`
    # (scaled to the window), as max_likelihood_theta places them
    lo, hi, points = window
    best = float(linspace(window)[index * points // 1000])
    step = (hi - lo) / points
    refined = (max(0.0, best - step), min(math.pi / 2, best + step), 1000)
    for lo, hi, points in (window, refined):
        want = np.linspace(lo, hi, points + 1)
        got = _grid_points(lo, hi, points, np.arange(points + 1))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        for i in (0, points // 2, points):
            assert float(_grid_points(lo, hi, points, i)) == want[i]


@SEARCH
@given(inputs=likelihood_inputs(), window=windows())
def test_search_index_is_full_grid_argmax(inputs, window):
    want = int(np.argmax(_log_likelihood(linspace(window), *inputs)))
    assert _likelihood_argmax(*window, *inputs) == want


@SEARCH
@given(inputs=likelihood_inputs())
def test_search_theta_is_full_grid_theta(inputs):
    assert max_likelihood_theta(*inputs) == full_grid_theta(*inputs)


@SEARCH
@given(inputs=likelihood_inputs(), grid=grids())
def test_block_bound_holds_every_block(inputs, grid):
    starts = np.arange(0, len(grid), _LIKELIHOOD_BLOCK)
    ends = np.minimum(starts + _LIKELIHOOD_BLOCK - 1, len(grid) - 1)
    bounds = _block_bounds(grid[starts], grid[ends], *inputs)
    assert len(bounds) == -(-len(grid) // _LIKELIHOOD_BLOCK)
    assert (bounds >= block_maxima(_log_likelihood(grid, *inputs))).all()


@SEARCH
@given(inputs=likelihood_inputs(), grid=grids())
def test_group_bound_holds_every_group(inputs, grid):
    # the search's first pass bounds runs of _GROUP_BLOCKS blocks from their
    # end points; a group's bound must hold every point of the group
    size = _GROUP_BLOCKS * _LIKELIHOOD_BLOCK
    starts = np.arange(0, len(grid), size)
    ends = np.minimum(starts + size - 1, len(grid) - 1)
    bounds = _block_bounds(grid[starts], grid[ends], *inputs)
    ll = _log_likelihood(grid, *inputs)
    assert (bounds >= np.maximum.reduceat(ll, starts)).all()


@SEARCH
@given(inputs=likelihood_inputs(), grid=grids(), seed=problem_seeds)
def test_likelihood_of_points_is_bitwise_the_grid_value(inputs, grid, seed):
    # the search evaluates gathered points; each must get the bits the
    # whole grid gives it, wherever it sits in the smaller array
    idx = np.sort(np.random.default_rng(seed).choice(len(grid), 300, replace=False))
    full = _log_likelihood(grid, *inputs)
    np.testing.assert_array_equal(_log_likelihood(grid[idx], *inputs), full[idx])
    assert _log_likelihood(grid[idx[:1]], *inputs)[0] == full[idx[0]]
