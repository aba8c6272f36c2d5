"""Property tests over random problems.

Each example is a problem drawn by `conftest.random_problem` from a drawn
seed, so the examples cover the same problem space as the seeded tests.
The settings are derandomized with no example database, so a run is
deterministic and tier-1 stays fast.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransport.circuit import dump_circuit, inverse, parse_circuit
from qtransport.classical_mc import exact_distribution
from qtransport.qae import (
    Predicate,
    build_a_operator,
    exact_amplitude,
    predicate_mask,
    predicate_probability,
)
from qtransport.sim import apply_inplace, zero_state
from qtransport.transport import (
    apply_transport_inplace,
    build_transport_circuit,
    transport_distribution,
)

from conftest import embed_support, random_problem, support_slice

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
    a = build_a_operator(tc, pred)
    flag = a.registers["flag"][0]
    assert not any(flag in g.qubits for g in a.gates[: tc.circuit.gate_count])
    mass = transport_distribution(problem)[predicate_mask(pred, problem)].sum()
    assert abs(exact_amplitude(a) - mass) <= 1e-12


@DETERMINISTIC
@given(seed=problem_seeds, kind=predicate_kinds, v=st.integers(0, 31))
def test_register_level_flag_probability_matches_gate_level(seed, kind, v):
    problem = draw_problem(seed)
    pred = draw_predicate(kind, v, problem)
    want = exact_amplitude(build_a_operator(build_transport_circuit(problem), pred))
    assert abs(predicate_probability(problem, pred) - want) <= 1e-12


@DETERMINISTIC
@given(seed=problem_seeds)
def test_register_level_state_matches_gate_level(seed):
    problem = draw_problem(seed)
    tc = build_transport_circuit(problem)
    want, support = zero_state(tc.circuit.qubit_count), zero_state(tc.circuit.qubit_count - 2)
    apply_inplace(want, tc.circuit)
    apply_transport_inplace(support, problem)
    np.testing.assert_allclose(embed_support(support, tc), want, rtol=0, atol=1e-12)


@DETERMINISTIC
@given(seed=problem_seeds)
def test_gate_level_state_lives_on_the_support(seed):
    # every flight uncomputes AncR and AncP, so the gate-level state is the
    # register-level support on AncR = AncP = 0 and nothing elsewhere
    problem = draw_problem(seed)
    tc = build_transport_circuit(problem)
    full, support = zero_state(tc.circuit.qubit_count), zero_state(tc.circuit.qubit_count - 2)
    apply_inplace(full, tc.circuit)
    apply_transport_inplace(support, problem)
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
    tc = build_transport_circuit(draw_problem(seed))
    return tc.circuit, build_a_operator(tc, Predicate.region2())


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
