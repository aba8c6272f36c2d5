import math
import tracemalloc

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem, qae
from qtransport.classical_mc import exact_distribution
from qtransport.convergence import exact_predicate_probability, quantum_curve
from qtransport.errors import CapacityError, InvariantError, PredicateError
from qtransport.qae import (
    _LIKELIHOOD_BLOCK,
    MAX_POWER,
    Predicate,
    _likelihood_argmax,
    _log_likelihood,
    amplified_probabilities,
    check_powers,
    build_a_operator,
    build_flag_oracle,
    build_grover_operator,
    exponential_schedule,
    max_likelihood_theta,
    mlqae_estimate,
    oracle_calls,
    parse_predicate,
    predicate_mask,
    predicate_probability,
    theta_from_hits,
)
from qtransport.transport import build_region_flag, build_transport_circuit, transport_widths

from reference import apply_inplace, exact_amplitude, zero_state
from conftest import (
    TABLE_A1_REGIONS,
    basis_state,
    flag_half_predicate_probability,
    marginal,
    random_problem,
    simulated_grover_probabilities,
)


def no_motion_problem():
    spec = RegionSpec((1.0,), 0.4)
    return TransportProblem(x_qubits=2, max_flights=2, boundary=2, regions=(spec, spec))


class TestPredicates:
    def test_parse(self):
        assert parse_predicate("geq:4") == Predicate.geq(4)
        assert parse_predicate("eq:0") == Predicate.eq(0)
        assert parse_predicate("region2") == Predicate.region2()

    @pytest.mark.parametrize("text", ["geq", "lt:3", "eq:x", "geq4"])
    def test_parse_rejects(self, text):
        with pytest.raises(PredicateError):
            parse_predicate(text)

    def test_mask(self, table_a1):
        assert predicate_mask(Predicate.geq(4), table_a1).sum() == 12
        assert predicate_mask(Predicate.eq(3), table_a1).sum() == 1
        np.testing.assert_array_equal(
            predicate_mask(Predicate.region2(), table_a1),
            predicate_mask(Predicate.geq(4), table_a1),
        )

    def test_geq_must_be_power_of_two(self, table_a1):
        with pytest.raises(PredicateError):
            build_flag_oracle(table_a1, Predicate.geq(3))
        with pytest.raises(PredicateError):
            build_flag_oracle(table_a1, Predicate.geq(16))

    def test_eq_range(self, table_a1):
        with pytest.raises(PredicateError):
            build_flag_oracle(table_a1, Predicate.eq(16))


class TestFlagOracle:
    def test_eq_zero_flags_origin(self, table_a1):
        oracle = build_flag_oracle(table_a1, Predicate.eq(0))
        assert oracle.qubit_count == 15 and oracle.registers["flag"] == (14,)
        state = basis_state(15, 0)
        apply_inplace(state, oracle)
        assert marginal(state, (14,))[1] == 1.0

    def test_geq_matches_region_flag_gadget(self, table_a1):
        oracle = build_flag_oracle(table_a1, Predicate.geq(4))
        gadget = build_region_flag((0, 1, 2, 3), 4, oracle.registers["flag"][0])
        for xv in range(16):
            a = basis_state(15, xv)
            apply_inplace(a, oracle)
            b = basis_state(15, xv)
            apply_inplace(b, gadget)
            np.testing.assert_array_equal(a, b)

    def test_amplitude_equals_oracle_mass(self, table_a1):
        dist = exact_distribution(table_a1)
        for pred in (Predicate.region2(), Predicate.geq(8), Predicate.eq(0), Predicate.eq(5)):
            a = build_a_operator(table_a1, pred)
            p = exact_amplitude(a)
            want = dist[predicate_mask(pred, table_a1)].sum()
            assert abs(p - want) < 1e-9

    def test_unreachable_value_has_zero_amplitude(self, table_a1):
        a = build_a_operator(table_a1, Predicate.eq(15))  # max reachable is 9
        assert exact_amplitude(a) < 1e-15

    def test_no_motion_origin_is_certain(self):
        problem = no_motion_problem()
        a = build_a_operator(problem, Predicate.eq(0))
        assert abs(exact_amplitude(a) - 1.0) < 1e-12


class TestPredicateProbability:
    """The register-level A pass against the gate-level A."""

    @staticmethod
    def assert_matches_gate_level(problem, preds):
        for pred in preds:
            want = exact_amplitude(build_a_operator(problem, pred))
            assert abs(predicate_probability(problem, pred) - want) <= 1e-12, pred

    def test_table_a1(self, table_a1):
        preds = [Predicate.region2()] + [Predicate.geq(1 << k) for k in range(4)]
        preds += [Predicate.eq(v) for v in range(16)]
        self.assert_matches_gate_level(table_a1, preds)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems(self, seed):
        problem = random_problem(np.random.default_rng(3000 + seed))
        v = seed % problem.position_count
        preds = Predicate.region2(), Predicate.geq(problem.boundary), Predicate.eq(v)
        self.assert_matches_gate_level(problem, preds)

    # supports past a 2^16-amplitude block: 17 qubits, and 19 with x_qubits
    # 17, where one row of positions is wider than a block
    @pytest.mark.parametrize("x_qubits, flights, support", [(9, 3, 17), (17, 1, 19)])
    def test_wide_support_is_the_flag_half_bitwise(self, x_qubits, flights, support):
        problem = TransportProblem(
            x_qubits=x_qubits, max_flights=flights, boundary=1, regions=TABLE_A1_REGIONS
        )
        assert transport_widths(problem)[1] == support
        for pred in Predicate.region2(), Predicate.geq(2), Predicate.eq(1):
            want = flag_half_predicate_probability(problem, pred)
            assert want > 0.0
            assert predicate_probability(problem, pred) == want, pred

    def test_peak_is_one_support(self):
        # x_qubits 7, 4 flights, d_max 3: an 18-qubit support, 4 MiB; the
        # flag half alone would double it
        problem = TransportProblem(x_qubits=7, max_flights=4, boundary=4, regions=TABLE_A1_REGIONS)
        support = transport_widths(problem)[1]
        assert support == 18
        tracemalloc.start()
        try:
            predicate_probability(problem, Predicate.geq(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << support) + (1 << 20)

    def test_wide_register_peak_is_the_branches(self):
        # x_qubits 21 and one flight: four branches, where the dense support
        # would be 128 MiB and a mask over every position 2 MiB
        problem = TransportProblem(x_qubits=21, max_flights=1, boundary=4, regions=TABLE_A1_REGIONS)
        tracemalloc.start()
        try:
            p = predicate_probability(problem, Predicate.geq(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert abs(p - 0.3) < 1e-12  # table A1's region-1 mass at distances 2 and 3

    def test_state_has_the_width_of_a(self, table_a1, monkeypatch):
        # the transport circuit fits a 14-qubit ceiling; A needs 15
        monkeypatch.setenv("QTRANSPORT_MAX_QUBITS", "14")
        tc = build_transport_circuit(table_a1)
        zero_state(tc.qubit_count)
        with pytest.raises(CapacityError, match="15 qubits exceeds the configured ceiling of 14"):
            predicate_probability(table_a1, Predicate.region2())


class TestFlagLocation:
    def test_a_adds_the_flag(self, table_a1):
        tc = build_transport_circuit(table_a1)
        oracle = build_flag_oracle(table_a1, Predicate.region2())
        a = build_a_operator(table_a1, Predicate.region2())
        assert tc.qubit_count == 14 and "flag" not in tc.registers
        assert a.qubit_count == 15 and a.registers == {**tc.registers, "flag": (14,)}
        assert a.gates == tc.gates + oracle.gates

    def test_circuit_without_flag_rejected(self, table_a1):
        transport = build_transport_circuit(table_a1)
        with pytest.raises(InvariantError):
            exact_amplitude(transport)
        with pytest.raises(InvariantError):
            build_grover_operator(transport)
        with pytest.raises(InvariantError):
            simulated_grover_probabilities(transport, [0])


class TestGroverOperator:
    def test_power_zero_is_plain_amplitude(self, table_a1):
        a = build_a_operator(table_a1, Predicate.region2())
        p = exact_amplitude(a)
        probs = simulated_grover_probabilities(a, [0])
        assert abs(probs[0] - p) < 1e-12

    def test_rotation_identity(self, table_a1):
        a = build_a_operator(table_a1, Predicate.region2())
        p = exact_amplitude(a)
        theta = math.asin(math.sqrt(p))
        powers = list(range(9))
        probs = simulated_grover_probabilities(a, powers)
        want = np.sin((2 * np.arange(9) + 1) * theta) ** 2
        np.testing.assert_allclose(probs, want, atol=1e-9)

    def test_zero_amplitude_is_fixed_point(self, table_a1):
        a = build_a_operator(table_a1, Predicate.eq(15))
        probs = simulated_grover_probabilities(a, [0, 1, 2, 4])
        assert probs.max() < 1e-12

    def test_structure(self, table_a1):
        a = build_a_operator(table_a1, Predicate.region2())
        q = build_grover_operator(a)
        assert q.gate_count == 2 * a.gate_count + 4
        assert q.registers == a.registers


def assert_closed_form_matches_gate_level(problem, text):
    a = build_a_operator(problem, parse_predicate(text))
    powers = range(9)
    want = simulated_grover_probabilities(a, powers)
    got = amplified_probabilities(exact_amplitude(a), powers)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestAmplifiedProbabilities:
    @pytest.mark.parametrize("text", ["region2", "geq:8", "eq:0", "eq:5"])
    def test_matches_gate_level_grover_on_table_a1(self, table_a1, text):
        assert_closed_form_matches_gate_level(table_a1, text)

    # Many random problems cannot move (a one-entry distance pmf), so region2
    # has p = 0 and eq:0 has p = 1 there: both fixed points of Q are covered.
    @pytest.mark.parametrize("text", ["region2", "eq:0"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_gate_level_grover_on_random_problems(self, seed, text):
        problem = random_problem(np.random.default_rng(1000 + seed))
        assert_closed_form_matches_gate_level(problem, text)

    @pytest.mark.parametrize("p, want", [(0.0, 0.0), (1.0, 1.0), (1.0 + 1e-15, 1.0), (-1e-17, 0.0)])
    def test_edges_are_finite(self, p, want):
        probs = amplified_probabilities(p, [0, 1, 2, 64])
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)

    def test_power_past_int64_rejected(self):
        assert MAX_POWER == (1 << 62) - 1
        assert np.isfinite(amplified_probabilities(0.3, [MAX_POWER])).all()
        with pytest.raises(PredicateError):
            amplified_probabilities(0.3, [MAX_POWER + 1])
        assert check_powers(range(3)) == (0, 1, 2)

    def test_negative_power_rejected(self, table_a1):
        with pytest.raises(PredicateError):
            amplified_probabilities(0.3, [0, -1])
        p = predicate_probability(table_a1, Predicate.region2())
        with pytest.raises(PredicateError):
            mlqae_estimate(p, [1, -2], 10, seed=0)

    def test_order_and_repeats_follow_the_powers(self):
        probs = amplified_probabilities(0.3, [4, 0, 4, 1])
        assert probs[0] == probs[2]
        assert probs[1] == pytest.approx(0.3, abs=1e-15)


class TestMlqae:
    def test_power_zero_schedule_recovers_sample_mean(self, table_a1):
        p = predicate_probability(table_a1, Predicate.region2())
        est = mlqae_estimate(p, [0], shots_per_power=1_000_000, seed=3)
        assert est.exact_p == p
        assert abs(est.p_hat - est.hits[0] / 1_000_000) < 1e-6
        assert abs(est.p_hat - p) < 4 * math.sqrt(p * (1 - p) / 1_000_000)

    def test_zero_amplitude_estimates_zero(self, table_a1):
        p = predicate_probability(table_a1, Predicate.eq(15))
        for seed in (0, 1, 2):
            est = mlqae_estimate(p, exponential_schedule(3), 50, seed=seed)
            assert est.p_hat == 0.0

    def test_certain_amplitude_estimates_one(self):
        p = predicate_probability(no_motion_problem(), Predicate.eq(0))
        est = mlqae_estimate(p, [0, 1, 2], 50, seed=5)
        assert est.p_hat == 1.0

    def test_oracle_call_accounting(self, table_a1):
        p = predicate_probability(table_a1, Predicate.region2())
        schedule = exponential_schedule(4)
        est = mlqae_estimate(p, schedule, 25, seed=1)
        assert est.total_oracle_calls == sum(25 * (2 * m + 1) for m in schedule)
        assert est.total_oracle_calls == oracle_calls(schedule, 25)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_likelihood_matches_plain_expression(self, seed):
        rng = np.random.default_rng(seed)
        theta = np.linspace(0.0, math.pi / 2, 10_001)
        powers = [0, 1, 2, 4, 8, 16, 32, 64]
        shots = [100] * len(powers)
        hits = [int(h) for h in rng.integers(0, 101, len(powers))]
        hits[0], hits[1] = 0, 100  # one all-miss and one all-hit power
        want = np.zeros_like(theta)
        for m, s, hit in zip(powers, shots, hits):
            sin2 = np.sin((2 * m + 1) * theta) ** 2
            if hit > 0:
                want = want + hit * np.log(np.maximum(sin2, 1e-300))
            if s - hit > 0:
                want = want + (s - hit) * np.log(np.maximum(1.0 - sin2, 1e-300))
        np.testing.assert_array_equal(_log_likelihood(theta, powers, shots, hits), want)

    def test_likelihood_argmax_consistency(self):
        # exact probabilities fed as fractional frequencies pin the argmax
        # to the true angle within grid resolution
        theta = 0.43
        powers = [0, 1, 2, 4, 8]
        freqs = [math.sin((2 * m + 1) * theta) ** 2 for m in powers]
        got = max_likelihood_theta(powers, [1.0] * len(powers), freqs)
        assert abs(got - theta) < 1e-6

    def test_dense_round_on_tied_group_bounds(self, monkeypatch):
        # hits of a benchmark qae command (qae_a1 workload seed 41, command
        # 567) whose two best group bounds tie and whose maximum lies in the
        # fifth best group: seeding from fewer groups evaluated 1121 blocks
        powers, shots, hits = exponential_schedule(6), [100] * 7, [70, 56, 52, 58, 60, 63, 89]
        bounded, evaluated = [], []

        def bound(least, *args):
            bounded.append(len(least))
            return block_bounds(least, *args)

        def likelihood(theta, *args):
            evaluated.append(len(theta))
            return _log_likelihood(theta, *args)

        block_bounds = qae._block_bounds
        monkeypatch.setattr(qae, "_block_bounds", bound)
        monkeypatch.setattr(qae, "_log_likelihood", likelihood)
        assert _likelihood_argmax(0.0, math.pi / 2, 100_000, powers, shots, hits) == 50201
        assert sum(evaluated) <= 16 * _LIKELIHOOD_BLOCK
        # 98 groups, then the blocks of the groups split: never all 1563
        assert sum(bounded) < 98 + 1563 // 4

    @pytest.mark.parametrize(
        "powers, shots, hits",
        [
            ((1, 2, 4), [100, 100], [50, 20]),  # fewer shot counts than powers
            ((1, 2), [100, 100], [50, 20, 7]),  # more hit counts than powers
            ((1, 2), [100, 100], [150, 20]),  # more hits than shots
            ((1, 2), [100, 100], [-5, 20]),
            ((1, 2), [100, -100], [0, -100]),
            ((1, 2), [100, math.inf], [50, 20]),
            ((1, 2), [100, 100], [math.nan, 20]),
            ((1, 2), [100, 100], [0, 0, 0]),  # no shortcut before the check
        ],
    )
    def test_malformed_counts_rejected(self, powers, shots, hits):
        with pytest.raises(InvariantError):
            theta_from_hits(powers, shots, hits)
        with pytest.raises(InvariantError):
            max_likelihood_theta(powers, shots, hits)

    def test_deterministic_per_seed(self, table_a1):
        p = predicate_probability(table_a1, Predicate.region2())
        est1 = mlqae_estimate(p, [0, 1, 2], 40, seed=11)
        est2 = mlqae_estimate(p, [0, 1, 2], 40, seed=11)
        assert est1.p_hat == est2.p_hat and est1.hits == est2.hits

    # Recorded while the Grover powers were still simulated gate by gate: a
    # shift in the amplified probabilities that flips one binomial draw
    # changes these counts.
    @pytest.mark.parametrize(
        "seed, hits",
        [
            (0, (99, 12, 98, 0, 42, 91, 84)),
            (1, (99, 20, 96, 1, 38, 91, 78)),
            (2, (100, 12, 92, 0, 38, 95, 75)),
        ],
    )
    def test_golden_hits(self, table_a1, seed, hits):
        p = predicate_probability(table_a1, Predicate.region2())
        est = mlqae_estimate(p, exponential_schedule(6), 100, seed=seed)
        assert est.hits == hits

    def test_empty_schedule_rejected(self, table_a1):
        p = predicate_probability(table_a1, Predicate.region2())
        with pytest.raises(PredicateError):
            mlqae_estimate(p, [], 10, seed=0)

    @pytest.mark.parametrize("shots", [0, -2, 1 << 63])
    def test_nonpositive_shots_rejected(self, table_a1, shots):
        pred = Predicate.region2()
        p = predicate_probability(table_a1, pred)
        with pytest.raises(PredicateError):
            mlqae_estimate(p, [0, 1], shots, seed=0)
        p_true = exact_predicate_probability(table_a1, pred)
        with pytest.raises(PredicateError):
            quantum_curve(table_a1, pred, [0, 1], shots, 3, p_true)

    def test_exponential_schedule(self):
        assert exponential_schedule(6) == (1, 2, 4, 8, 16, 32, 64)
        assert exponential_schedule(0) == (1,)
        assert exponential_schedule(61)[-1] == 1 << 61 <= MAX_POWER

    @pytest.mark.parametrize("exponent", [-1, 62, 10**18])
    def test_exponential_schedule_bounds(self, exponent):
        # checked before the tuple is built, so a huge exponent allocates nothing
        with pytest.raises(PredicateError):
            exponential_schedule(exponent)
