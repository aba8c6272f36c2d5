import dataclasses
import math

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem
from qtransport.classical_mc import (
    discretize_exponential,
    exact_distribution,
    expected_flights,
    make_stream,
    mean_flights_uncapped,
    run_history,
    run_tally,
    sample_flight_distance_continuous,
)
from qtransport.errors import InvariantError

from conftest import HAND_P_ZERO, random_problem

E = math.e


def single_region(pmf, p_absorb, x_qubits=5, flights=3, **kw):
    spec = RegionSpec(tuple(pmf), p_absorb)
    return TransportProblem(
        x_qubits=x_qubits,
        max_flights=flights,
        boundary=1 << (x_qubits - 1),
        regions=(spec, spec),
        **kw,
    )


class TestStreams:
    def test_same_pair_same_sequence(self):
        a = make_stream(5, 2).random(10)
        b = make_stream(5, 2).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_index_different_sequence(self):
        assert np.any(make_stream(5, 2).random(10) != make_stream(5, 3).random(10))


class TestContinuousSampler:
    def test_eta_one_gives_zero(self):
        assert sample_flight_distance_continuous(1.5, 1.0) == 0.0

    def test_inverse_e(self):
        assert abs(sample_flight_distance_continuous(1.5, 1 / E) - 1.5) < 1e-12

    def test_eta_zero_rejected(self):
        with pytest.raises(InvariantError):
            sample_flight_distance_continuous(1.5, 0.0)

    def test_eta_above_one_rejected(self):
        with pytest.raises(InvariantError):
            sample_flight_distance_continuous(1.5, 1.5)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(InvariantError):
            sample_flight_distance_continuous(0.0, 0.5)

    def test_sample_mean_is_mean_free_path(self):
        eta = 1.0 - make_stream(0).random(200_000)  # (0, 1]
        distances = [sample_flight_distance_continuous(1.5, float(e)) for e in eta]
        assert min(distances) >= 0.0
        assert abs(np.mean(distances) - 1.5) / 1.5 < 0.01


class TestDiscretization:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_sums_to_one(self, lam):
        assert abs(discretize_exponential(lam, 3).sum() - 1.0) < 1e-12

    def test_tiny_lambda_concentrates_at_zero(self):
        pmf = discretize_exponential(1e-9, 3)
        np.testing.assert_allclose(pmf, [1, 0, 0, 0], atol=1e-15)

    def test_closed_form(self):
        pmf = discretize_exponential(1.5, 3)
        want = [
            1 - E ** (-1 / 3),
            E ** (-1 / 3) - E ** (-1),
            E ** (-1) - E ** (-5 / 3),
            E ** (-5 / 3),
        ]
        np.testing.assert_allclose(pmf, want, atol=1e-15)

    def test_matches_rounded_continuous_sampling(self):
        # independent oracle: round -lambda*ln(eta) to the nearest integer,
        # clamp to d_max, and compare empirical frequencies
        lam, d_max, n = 1.5, 3, 400_000
        eta = 1.0 - make_stream(8).random(n)
        rounded = np.minimum(np.floor(-lam * np.log(eta) + 0.5).astype(int), d_max)
        freq = np.bincount(rounded, minlength=d_max + 1) / n
        pmf = discretize_exponential(lam, d_max)
        assert np.abs(freq - pmf).max() < 4 * math.sqrt(0.25 / n)

    def test_not_the_tabulated_reference_pmf(self):
        # the paper-style tabulated pmf (0.3, 0.4, 0.2, 0.1) is input data,
        # not derivable from this discretization
        pmf = discretize_exponential(1.5, 3)
        assert np.abs(pmf - np.array([0.3, 0.4, 0.2, 0.1])).max() > 0.01

    def test_validation(self):
        with pytest.raises(InvariantError):
            discretize_exponential(-1.0, 3)
        with pytest.raises(InvariantError):
            discretize_exponential(1.0, 0)


class TestExpectedFlights:
    def test_quarter(self):
        assert expected_flights(0.25) == 4.0

    def test_one(self):
        assert expected_flights(1.0) == 1.0

    def test_zero_rejected(self):
        with pytest.raises(InvariantError):
            expected_flights(0.0)

    def test_empirical_mean(self):
        mean = mean_flights_uncapped(0.25, 1_000_000, seed=3)
        assert abs(mean - 4.0) / 4.0 < 0.02

    def test_cap_enforced(self):
        with pytest.raises(InvariantError):
            mean_flights_uncapped(0.01, 2000, seed=0, flight_cap=3)


class TestRunHistory:
    def test_no_motion(self):
        problem = single_region([1.0], 0.3)
        assert run_history(problem, make_stream(0)) == 0

    def test_single_forced_flight(self):
        # absorption certain, deterministic distance: exactly one flight of 2
        problem = single_region([0, 0, 1.0], 1.0)
        for seed in range(5):
            assert run_history(problem, make_stream(seed)) == 2

    def test_first_flight_gate_without_guarantee(self):
        problem = single_region([0, 1.0], 1.0, first_flight_always=False)
        outcomes = {run_history(problem, make_stream(s)) for s in range(5)}
        assert outcomes == {0}  # absorbed at the source before any flight

    # Recorded from the scalar history loop that `run_history` used to be:
    # 30 histories read from one stream. The numbered cases are the problems
    # random_problem drew for those seeds when the goldens were recorded,
    # written out so that a change to the generator cannot move them (seed
    # 9's second region has the pmf (1, 0), which random_pmf no longer
    # draws). They cover both reaction timings, with first_flight_always
    # False for 31 and 24.
    PROBLEMS = {
        15: TransportProblem(
            x_qubits=5, max_flights=3, boundary=2, regions=(
                RegionSpec((0.32076694663426714, 0.08206949633172494,
                            0.4033576037172049, 0.19380595331680303), 0.9759378873901753),
                RegionSpec((0.3430187951489049, 0.0,
                            0.24366339729195852, 0.4133178075591367), 0.8891839058918612),
            ), first_flight_always=True, reaction_timing="pre_flight"),
        9: TransportProblem(
            x_qubits=3, max_flights=3, boundary=4, regions=(
                RegionSpec((0.5154823976586095, 0.4845176023413905), 0.026587734467597213),
                RegionSpec((1.0, 0.0), 0.830621436971257),
            ), first_flight_always=True, reaction_timing="post_flight"),
        31: TransportProblem(
            x_qubits=4, max_flights=2, boundary=4, regions=(
                RegionSpec((0.7169861353470476, 0.04197388508827875,
                            0.054201372395644404, 0.1868386071690293), 0.30215842733294396),
                RegionSpec((0.23713295649829208, 0.39523516519565677,
                            0.2832548119604861, 0.08437706634556508), 0.10374287484520117),
            ), first_flight_always=False, reaction_timing="pre_flight"),
        24: TransportProblem(
            x_qubits=3, max_flights=4, boundary=4, regions=(
                RegionSpec((0.4975858523868078, 0.502414147613192), 0.08643046099097307),
                RegionSpec((0.4750800250192385, 0.5249199749807616), 0.40992560718649773),
            ), first_flight_always=False, reaction_timing="post_flight"),
    }
    GOLDEN = {
        "table_a1": [1, 3, 2, 3, 4, 3, 1, 0, 4, 4, 3, 2, 0, 1, 2,
               4, 0, 2, 0, 1, 2, 0, 0, 0, 2, 2, 6, 3, 0, 2],
        15: [2, 0, 2, 3, 1, 2, 0, 0, 2, 1, 2, 2, 3, 1, 3,
             0, 2, 2, 3, 2, 2, 2, 3, 1, 2, 2, 2, 2, 0, 2],
        9: [3, 1, 1, 1, 3, 0, 0, 2, 2, 2, 3, 1, 3, 2, 2,
            2, 2, 1, 1, 1, 2, 1, 0, 0, 0, 1, 1, 2, 0, 1],
        31: [0, 0, 0, 0, 3, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3,
             3, 0, 0, 3, 1, 0, 0, 0, 2, 6, 0, 3, 0, 3, 0],
        24: [2, 3, 1, 1, 2, 2, 2, 3, 2, 3, 0, 4, 0, 2, 0,
             2, 1, 2, 4, 1, 0, 1, 4, 0, 0, 2, 3, 3, 4, 1],
    }

    @pytest.mark.parametrize("case", ["table_a1", 15, 9, 31, 24])
    def test_golden_outcomes(self, table_a1, case):
        if case == "table_a1":
            problem, rng = table_a1, make_stream(11)
        else:
            problem, rng = self.PROBLEMS[case], make_stream(case)
        assert [run_history(problem, rng) for _ in range(30)] == self.GOLDEN[case]

    @pytest.mark.parametrize(
        "timing, first, sites",
        [("pre_flight", True, 5), ("pre_flight", False, 6),
         ("post_flight", True, 6), ("post_flight", False, 7)],
    )
    def test_stream_advance_after_absorption(self, timing, first, sites):
        # absorbed at its first reaction, the history must still take one
        # draw per draw site, or the caller's next history reads a shifted
        # stream
        problem = single_region(
            [0.5, 0.5], 1.0, flights=3, first_flight_always=first, reaction_timing=timing
        )
        rng = make_stream(4)
        run_history(problem, rng)
        fresh = make_stream(4)
        fresh.random(sites)
        assert rng.random() == fresh.random()

    def test_distribution_against_oracle(self, table_a1):
        histories = 20_000
        rng = make_stream(77)
        counts = np.zeros(16)
        for _ in range(histories):
            counts[run_history(table_a1, rng)] += 1
        exact = exact_distribution(table_a1)
        sigma = np.sqrt(exact * (1 - exact) / histories)
        assert (np.abs(counts / histories - exact) < 4 * sigma + 1e-9).all()


class TestRunTally:
    # Recorded before the sampler worked on live histories only: counts of
    # 20k shots with seed 3, trailing zero bins dropped. The pre- and
    # post-flight loops read the stream alike except for the post-flight
    # loop's last reaction, which moves no history, so the two timings share
    # a golden.
    GOLDEN = {
        "first": [
            114, 230, 437, 648, 354, 432, 475, 381, 425, 453, 384, 395, 384, 346, 376,
            350, 361, 372, 312, 338, 304, 282, 333, 288, 280, 271, 256, 263, 271, 246,
            234, 225, 207, 213, 251, 219, 208, 175, 193, 190, 196, 177, 154, 161, 170,
            192, 177, 138, 155, 164, 165, 166, 174, 178, 162, 209, 228, 233, 255, 293,
            307, 316, 358, 360, 612, 589, 500, 284, 199, 113, 57, 39, 30, 9, 2, 0, 2,
        ],
        "gated": [
            1094, 251, 383, 669, 353, 424, 475, 358, 408, 443, 414, 380, 354, 330, 359,
            318, 301, 335, 320, 279, 298, 339, 263, 261, 267, 267, 250, 219, 239, 233,
            227, 238, 229, 236, 207, 189, 192, 164, 214, 182, 189, 172, 162, 160, 148,
            175, 159, 140, 146, 156, 171, 160, 154, 174, 168, 186, 203, 217, 225, 255,
            295, 304, 295, 333, 555, 601, 491, 274, 162, 94, 58, 25, 21, 3, 1, 4, 0, 1,
            1,
        ],
        "absorbing": [1865, 3615, 5636, 7513, 450, 495, 341, 38, 26, 15, 2, 3, 0, 1],
        "d_max1": [
            408, 1364, 1214, 1182, 1082, 1039, 982, 923, 831, 741, 745, 597, 621, 576,
            476, 512, 1601, 1310, 1191, 959, 705, 495, 236, 137, 50, 20, 2, 0, 1,
        ],
        "d_max7": [
            1690, 172, 279, 389, 389, 442, 425, 388, 358, 353, 359, 319, 341, 334, 338,
            322, 354, 314, 292, 305, 267, 276, 257, 274, 245, 238, 261, 225, 212, 225,
            239, 219, 209, 193, 200, 198, 200, 190, 168, 162, 157, 174, 188, 160, 154,
            177, 136, 143, 133, 146, 135, 127, 154, 118, 117, 119, 128, 111, 106, 118,
            94, 121, 97, 101, 243, 285, 278, 270, 272, 211, 211, 179, 175, 139, 129,
            153, 130, 130, 112, 114, 88, 108, 98, 82, 84, 87, 63, 52, 58, 53, 52, 48,
            43, 37, 24, 26, 27, 13, 18, 16, 10, 12, 4, 11, 5, 3, 0, 2, 2, 1, 1, 2, 2, 1,
            0, 0, 0, 0, 1,
        ],
    }

    @staticmethod
    def golden_problem(case, timing):
        # 32 flights with boundary 64: most histories reach region 2
        # ("absorbing": every history is absorbed long before the last flight)
        if case == "d_max1":
            return TransportProblem(
                x_qubits=6, max_flights=32, boundary=16, reaction_timing=timing,
                regions=(RegionSpec((0.3, 0.7), 0.05), RegionSpec((0.6, 0.4), 0.1)),
            )
        if case == "d_max7":
            regions = (
                RegionSpec((0.05, 0.1, 0.15, 0.2, 0.2, 0.15, 0.1, 0.05), 0.08),
                RegionSpec((0.3, 0.25, 0.15, 0.1, 0.08, 0.06, 0.04, 0.02), 0.15),
            )
            first = False
        else:
            absorb = (0.9, 0.95) if case == "absorbing" else (0.05, 0.2)
            regions = (
                RegionSpec((0.1, 0.2, 0.3, 0.4), absorb[0]),
                RegionSpec((0.4, 0.3, 0.2, 0.1), absorb[1]),
            )
            first = case != "gated"
        return TransportProblem(
            x_qubits=8, max_flights=32, boundary=64, regions=regions,
            first_flight_always=first, reaction_timing=timing,
        )

    @pytest.mark.parametrize("timing", ["pre_flight", "post_flight"])
    @pytest.mark.parametrize("case", ["first", "gated", "absorbing", "d_max1", "d_max7"])
    def test_golden_counts(self, case, timing):
        counts = run_tally(self.golden_problem(case, timing), 20_000, seed=3).counts
        want = self.GOLDEN[case]
        assert counts[: len(want)].tolist() == want
        assert not counts[len(want):].any()

    def test_deterministic(self, table_a1):
        a = run_tally(table_a1, 10_000, seed=5)
        b = run_tally(table_a1, 10_000, seed=5)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert np.any(a.counts != run_tally(table_a1, 10_000, seed=6).counts)

    def test_counts_sum_to_shots(self, table_a1):
        tally = run_tally(table_a1, 12345, seed=0)
        assert tally.counts.sum() == 12345

    def test_zero_shots_rejected(self, table_a1):
        with pytest.raises(InvariantError):
            run_tally(table_a1, 0, seed=0)

    def test_three_sigma_agreement_with_oracle(self, table_a1):
        shots = 1_000_000
        tally = run_tally(table_a1, shots, seed=9)
        exact = exact_distribution(table_a1)
        sigma = np.sqrt(exact * (1 - exact) / shots)
        assert (np.abs(tally.frequencies() - exact) < 3 * sigma + 1e-9).all()

    def test_rmse_scaling_slope(self, table_a1):
        # distribution RMSE vs the oracle across decades of shots
        exact = exact_distribution(table_a1)
        budgets = [100, 1000, 10_000, 100_000]
        rmses = []
        for bi, shots in enumerate(budgets):
            errs = []
            for seed in range(10):
                freq = run_tally(table_a1, shots, seed=1000 * bi + seed).frequencies()
                errs.append(np.sqrt(np.mean((freq - exact) ** 2)))
            rmses.append(np.mean(errs))
        slope = np.polyfit(np.log10(budgets), np.log10(rmses), 1)[0]
        assert -0.65 < slope < -0.35

    def test_matches_scalar_histories_in_distribution(self):
        rng = np.random.default_rng(31)
        problem = random_problem(rng, max_total_qubits=12)
        tally = run_tally(problem, 50_000, seed=2)
        exact = exact_distribution(problem)
        sigma = np.sqrt(exact * (1 - exact) / 50_000)
        assert (np.abs(tally.frequencies() - exact) < 4 * sigma + 1e-9).all()


class TestExactDistribution:
    def test_hand_enumerated_zero_path(self, table_a1):
        assert abs(exact_distribution(table_a1)[0] - HAND_P_ZERO) < 1e-12

    def test_no_motion(self):
        dist = exact_distribution(single_region([1.0], 0.5))
        assert dist[0] == 1.0

    def test_total_mass(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            problem = random_problem(rng)
            assert abs(exact_distribution(problem).sum() - 1.0) < 1e-12

    def test_absorbing_problem_reduces_to_first_pmf(self, table_a1):
        regions = (
            RegionSpec(table_a1.regions[0].distance_pmf, 1.0),
            RegionSpec(table_a1.regions[1].distance_pmf, 1.0),
        )
        problem = dataclasses.replace(table_a1, regions=regions)
        dist = exact_distribution(problem)
        np.testing.assert_allclose(dist[:4], table_a1.regions[0].distance_pmf, atol=1e-15)
        assert dist[4:].sum() < 1e-15

    def test_region_swap_invariant_when_boundary_unreachable(self):
        base = TransportProblem(
            x_qubits=4,
            max_flights=2,
            boundary=8,
            regions=(RegionSpec((0.6, 0.4), 0.3), RegionSpec((0.1, 0.9), 0.9)),
        )
        swapped = dataclasses.replace(
            base, regions=(base.regions[0], RegionSpec((0.9, 0.1), 0.05))
        )
        assert base.max_flights * base.d_max < base.boundary
        np.testing.assert_array_equal(exact_distribution(base), exact_distribution(swapped))

    def test_reaction_timings_agree(self):
        # the reaction gating any flight reads the same region either way,
        # so the two loop structures must produce identical marginals
        rng = np.random.default_rng(6)
        for _ in range(10):
            problem = random_problem(rng)
            pre = dataclasses.replace(problem, reaction_timing="pre_flight")
            post = dataclasses.replace(problem, reaction_timing="post_flight")
            np.testing.assert_allclose(
                exact_distribution(pre), exact_distribution(post), atol=1e-12
            )

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0])
    def test_monotone_mean_under_dmax_mass(self, table_a1, eps):
        # holds for single-region problems and for the reference instance;
        # not universal for adversarial two-region configurations
        def mean(problem):
            dist = exact_distribution(problem)
            return float((np.arange(len(dist)) * dist).sum())

        def bump(problem):
            regions = []
            for r in problem.regions:
                pmf = np.array(r.distance_pmf) * (1 - eps)
                pmf[-1] += eps
                regions.append(RegionSpec(tuple(pmf), r.p_absorb))
            return dataclasses.replace(problem, regions=tuple(regions))

        for problem in (table_a1, single_region([0.5, 0.3, 0.2], 0.3)):
            assert mean(bump(problem)) >= mean(problem) - 1e-12


class TestRandomProblem:
    def test_no_static_problems(self):
        # a problem that never leaves x = 0 adds nothing to the tests drawn
        # over random_problem; pmfs with a zero weight must still occur
        problems = [random_problem(np.random.default_rng(seed)) for seed in range(2000)]
        static = [
            seed for seed, problem in enumerate(problems)
            if exact_distribution(problem)[0] > 1 - 1e-9
        ]
        assert static == []
        assert any(0.0 in r.distance_pmf for problem in problems for r in problem.regions)
