"""Acceptance suite: one test per criterion C1-C9, each at its stated
tolerance, printing one PASS/FAIL line (run with -s to see them on success).

Heavier statistical experiments (C5, C6, C8) use fixed seeds and are fully
deterministic.
"""
import math
import time

import numpy as np
import pytest

from qtransport import TransportProblem
from qtransport.circuit import Circuit, mct
from qtransport.classical_mc import (
    exact_distribution,
    expected_flights,
    mean_flights_uncapped,
)
from qtransport.convergence import (
    classical_curve,
    exact_predicate_probability,
    loglog_slope,
    quantum_curve,
)
from qtransport.qae import (
    Predicate,
    build_a_operator,
    exponential_schedule,
)
from qtransport.resources import circuit_budget, practical_estimate
from qtransport.transport import (
    build_controlled_adder,
    build_distribution_loader,
    build_region_flag,
    build_transport_circuit,
    transport_distribution,
)

import reference
from conftest import (
    HAND_P_ZERO,
    TABLE_A1_REGIONS,
    basis_state,
    encode_register,
    marginal,
    random_pmf,
    random_problem,
    simulated_grover_probabilities,
)


def finish(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c1_oracle_equivalence(table_a1):
    start = time.perf_counter()
    delta_ref = np.abs(transport_distribution(table_a1) - exact_distribution(table_a1)).max()
    elapsed = time.perf_counter() - start

    rng = np.random.default_rng(20240809)
    worst = 0.0
    cases = 50
    for _ in range(cases):
        problem = random_problem(rng, max_total_qubits=16)
        delta = np.abs(transport_distribution(problem) - exact_distribution(problem)).max()
        worst = max(worst, delta)
    finish(
        "C1",
        delta_ref < 1e-9 and elapsed < 10.0 and worst < 1e-9,
        f"reference max|dq-dp|={delta_ref:.2e} in {elapsed:.2f}s; "
        f"worst over {cases} random problems {worst:.2e}",
    )


def test_c2_gadget_exhaustiveness(table_a1):
    # controlled adder: every (x, d, ctrl) basis state, x width 4, d width 2
    adder = build_controlled_adder((0, 1, 2, 3), (4, 5), 6)
    adder_err = 0.0
    for ctrl in (0, 1):
        for xv in range(16):
            for dv in range(4):
                idx = encode_register((0, 1, 2, 3), xv)
                idx = encode_register((4, 5), dv, idx)
                idx = encode_register((6,), ctrl, idx)
                out = basis_state(7, idx)
                reference.apply_inplace(out, adder)
                want = encode_register((0, 1, 2, 3), (xv + dv) % 16 if ctrl else xv, idx & ~0b1111)
                adder_err = max(adder_err, abs(out[want] - 1.0))

    # region comparator over every position value
    comparator = build_region_flag((0, 1, 2, 3), 4, 4)
    comparator_ok = True
    for xv in range(16):
        out = basis_state(5, encode_register((0, 1, 2, 3), xv))
        reference.apply_inplace(out, comparator)
        want = encode_register((0, 1, 2, 3), xv, encode_register((4,), int(xv >= 4)))
        comparator_ok &= out[want] == 1.0

    # multi-controlled Toffoli truth tables, exactly
    mct_ok = True
    for k in range(1, 4):
        gate = Circuit(k + 1, (mct(tuple(range(k)), k),))
        for b in range(1 << (k + 1)):
            out = basis_state(k + 1, b)
            reference.apply_inplace(out, gate)
            want = b ^ (1 << k) if all((b >> q) & 1 for q in range(k)) else b
            mct_ok &= out[want] == 1.0

    # ancillae restored to |0> after the full circuit
    anc_worst = 0.0
    problems = [table_a1]
    rng = np.random.default_rng(7)
    problems += [random_problem(rng, max_total_qubits=14) for _ in range(5)]
    for problem in problems:
        tc = build_transport_circuit(problem)
        state = reference.zero_state(tc.qubit_count)
        reference.apply_inplace(state, tc)
        anc_worst = max(
            anc_worst,
            marginal(state, tc.registers["AncP"])[1],
            marginal(state, tc.registers["AncR"])[1],
        )

    finish(
        "C2",
        adder_err < 1e-10 and comparator_ok and mct_ok and anc_worst < 1e-12,
        f"adder err={adder_err:.2e}, comparator ok={comparator_ok}, "
        f"MCT exact={mct_ok}, ancilla residue={anc_worst:.2e}",
    )


def test_c3_loader_fidelity():
    def loaded(pmf, width):
        c = build_distribution_loader(pmf, tuple(range(width)))
        state = reference.zero_state(width)
        reference.apply_inplace(state, c)
        return marginal(state, c.registers["D"])

    worst = 0.0
    for spec in TABLE_A1_REGIONS:
        got = loaded(spec.distance_pmf, 2)
        worst = max(worst, np.abs(got - np.array(spec.distance_pmf)).max())
    rng = np.random.default_rng(100)
    for _ in range(100):
        width = int(rng.integers(1, 5))
        pmf = random_pmf(rng, int(rng.integers(1, (1 << width) + 1)))
        got = loaded(pmf, width)
        padded = np.zeros(1 << width)
        padded[: len(pmf)] = pmf
        worst = max(worst, np.abs(got - padded).max())

    from qtransport.transport import build_reaction_rotation

    rotation = build_reaction_rotation(TABLE_A1_REGIONS, 0, 1)
    region1, region2 = basis_state(2, 0), basis_state(2, 1)
    reference.apply_inplace(region1, rotation)
    reference.apply_inplace(region2, rotation)
    p_region1 = marginal(region1, (1,))[1]
    p_region2 = marginal(region2, (1,))[1]
    reaction_err = max(abs(p_region1 - 0.75), abs(p_region2 - 0.60))

    finish(
        "C3",
        worst < 1e-12 and reaction_err < 1e-12,
        f"loader max err={worst:.2e}; reaction probs ({p_region1:.12f}, {p_region2:.12f})",
    )


def test_c4_resource_arithmetic(table_a1):
    total_100 = practical_estimate(100).total
    budget = circuit_budget(table_a1)
    ok = (
        total_100 == 75_925
        and budget["total_without_flag"] == 14
        and budget["total_with_flag"] == 15
    )
    finish("C4", ok, f"practical_estimate(100)={total_100}; reference budget={budget['total_without_flag']}(+1 flag)")


SCALING_BUDGETS = (100, 1_000, 10_000, 100_000)
SCALING_SEEDS = 20


@pytest.fixture(scope="module")
def classical_slope(table_a1_module):
    start = time.perf_counter()
    pred = Predicate.region2()
    p_true = exact_predicate_probability(table_a1_module, pred)
    points = classical_curve(table_a1_module, pred, SCALING_BUDGETS, SCALING_SEEDS, p_true)
    return loglog_slope(points), time.perf_counter() - start, points


@pytest.fixture(scope="module")
def table_a1_module():
    return TransportProblem(x_qubits=4, max_flights=3, boundary=4, regions=TABLE_A1_REGIONS)


def test_c5_classical_scaling(classical_slope):
    slope, elapsed, points = classical_slope
    finish(
        "C5",
        -0.65 <= slope <= -0.35 and elapsed < 60.0,
        f"classical log-log RMSE slope={slope:.3f} over {SCALING_BUDGETS} "
        f"({SCALING_SEEDS} seeds) in {elapsed:.1f}s",
    )


def test_c6_quantum_scaling(table_a1_module, classical_slope):
    c_slope = classical_slope[0]
    start = time.perf_counter()
    pred = Predicate.region2()
    p_true = exact_predicate_probability(table_a1_module, pred)
    points = quantum_curve(
        table_a1_module, pred, exponential_schedule(6), 100, SCALING_SEEDS, p_true
    )
    elapsed = time.perf_counter() - start
    q_slope = loglog_slope(points)
    finish(
        "C6",
        q_slope <= -0.75 and q_slope < c_slope and elapsed < 600.0,
        f"quantum slope={q_slope:.3f} (classical {c_slope:.3f}) in {elapsed:.1f}s",
    )


def test_c7_grover_identity(table_a1):
    a = build_a_operator(table_a1, Predicate.region2())
    p = reference.exact_amplitude(a)
    theta = math.asin(math.sqrt(p))
    probs = simulated_grover_probabilities(a, range(9))
    want = np.sin((2 * np.arange(9) + 1) * theta) ** 2
    err = np.abs(probs - want).max()
    finish("C7", err < 1e-9, f"max |P(flag) - sin^2((2m+1)theta)| = {err:.2e} for m=0..8")


def test_c8_expected_flights():
    exact = expected_flights(0.25)
    empirical = mean_flights_uncapped(0.25, 1_000_000, seed=3)
    rel = abs(empirical - 4.0) / 4.0
    finish(
        "C8",
        exact == 4.0 and rel < 0.02,
        f"expected_flights(0.25)={exact}; empirical mean={empirical:.4f} (rel err {rel:.4f})",
    )


def test_c9_derived_fixture(table_a1):
    dp = exact_distribution(table_a1)[0]
    quantum = transport_distribution(table_a1)[0]
    ok = abs(dp - HAND_P_ZERO) < 1e-9 and abs(quantum - HAND_P_ZERO) < 1e-9
    finish(
        "C9",
        ok,
        f"P(x3=0): hand={HAND_P_ZERO}, dp={dp:.12f}, quantum={quantum:.12f}",
    )
