"""Property tests over random problems.

Each example is a problem drawn by `conftest.random_problem` from a drawn
seed, so the examples cover the same problem space as the seeded tests.
The settings are derandomized with no example database, so a run is
deterministic and tier-1 stays fast.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransport.classical_mc import exact_distribution
from qtransport.qae import Predicate, build_a_operator, exact_amplitude, predicate_mask
from qtransport.transport import build_transport_circuit, transport_distribution

from conftest import random_problem

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=20)

problem_seeds = st.integers(min_value=0, max_value=2**32 - 1)
predicate_kinds = st.sampled_from(["region2", "geq:boundary", "eq:v"])


def draw_problem(seed: int):
    return random_problem(np.random.default_rng(seed))


@DETERMINISTIC
@given(seed=problem_seeds, kind=predicate_kinds, v=st.integers(0, 31))
def test_flag_probability_is_predicate_mass(seed, kind, v):
    problem = draw_problem(seed)
    if kind == "region2":
        pred = Predicate.region2()
    elif kind == "geq:boundary":
        pred = Predicate.geq(problem.boundary)
    else:
        pred = Predicate.eq(v % problem.position_count)
    tc = build_transport_circuit(problem)
    a = build_a_operator(tc, pred)
    flag = a.registers["flag"][0]
    assert not any(flag in g.qubits for g in a.gates[: tc.circuit.gate_count])
    mass = transport_distribution(problem)[predicate_mask(pred, problem)].sum()
    assert abs(exact_amplitude(a) - mass) <= 1e-12


@DETERMINISTIC
@given(seed=problem_seeds)
def test_transport_matches_oracle(seed):
    problem = draw_problem(seed)
    np.testing.assert_allclose(
        transport_distribution(problem), exact_distribution(problem), rtol=0, atol=1e-9
    )
