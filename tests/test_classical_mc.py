import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qtransport import RegionSpec, TransportProblem, classical_mc
from qtransport.classical_mc import exact_distribution, run_tally
from qtransport.errors import InvariantError
from qtransport.transport import _BLOCK, MOVE

from conftest import HAND_P_ZERO, flowchart_steps, full_draw_counts, random_problem


def run_history(problem, rng):
    """One sampled history's final position: the batch sampler for one
    shot, reading on from the caller's generator."""
    return int(classical_mc._simulate_counts(problem, 1, rng).argmax())


def single_region(pmf, p_absorb, x_qubits=5, flights=3, **kw):
    spec = RegionSpec(tuple(pmf), p_absorb)
    return TransportProblem(
        x_qubits=x_qubits,
        max_flights=flights,
        boundary=1 << (x_qubits - 1),
        regions=(spec, spec),
        **kw,
    )


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with `dof` degrees of freedom: the closed
    forms of the regularized upper incomplete gamma Q(dof/2, x/2), a finite
    sum for even dof and erfc plus a finite sum for odd dof."""
    half = x / 2
    if dof % 2:
        # Q(1/2, h) = erfc(sqrt(h)), plus terms e^-h h^(j+1/2) / Gamma(j+3/2)
        total = math.erfc(math.sqrt(half))
        term, j = 2 * math.exp(-half) * math.sqrt(half / math.pi), 1.5
    else:
        # terms e^-h h^j / j!
        total = 0.0
        term, j = math.exp(-half), 1.0
    for _ in range(dof // 2):
        total += term
        term *= half / j
        j += 1
    return total


def chi_square_p(counts: np.ndarray, exact: np.ndarray) -> float:
    """p-value of Pearson's chi-square test of a tally against the oracle,
    with adjacent bins pooled until each expects at least 5 counts (a tail
    that expects fewer joins the last pool)."""
    # pooling would hide a count where the oracle puts no mass
    assert not counts[exact == 0].any()
    expected = counts.sum() * exact
    pools, observed, mass = [], 0, 0.0
    for c, e in zip(counts, expected):
        observed, mass = observed + c, mass + e
        if mass >= 5:
            pools.append((observed, mass))
            observed, mass = 0, 0.0
    pools[-1] = (pools[-1][0] + observed, pools[-1][1] + mass)
    stat = sum((o - e) ** 2 / e for o, e in pools)
    return chi2_sf(stat, len(pools) - 1)


class TestRunHistory:
    def test_no_motion(self):
        problem = single_region([1.0], 0.3)
        assert run_history(problem, np.random.default_rng(0)) == 0

    def test_single_forced_flight(self):
        # absorption certain, deterministic distance: exactly one flight of 2
        problem = single_region([0, 0, 1.0], 1.0)
        for seed in range(5):
            assert run_history(problem, np.random.default_rng(seed)) == 2

    def test_first_flight_gate_without_guarantee(self):
        problem = single_region([0, 1.0], 1.0, first_flight_always=False)
        outcomes = {run_history(problem, np.random.default_rng(s)) for s in range(5)}
        assert outcomes == {0}  # absorbed at the source before any flight

    # Recorded when each draw site began to take one uniform per live
    # history: 30 histories read from one stream. The numbered cases are the
    # problems random_problem drew for those seeds when the goldens were
    # first recorded, written out so that a change to the generator cannot
    # move them (seed 9's second region has the pmf (1, 0), which
    # random_pmf no longer draws). They cover both reaction timings, with
    # first_flight_always False for 31 and 24.
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
        "table_a1": [1, 3, 2, 0, 6, 2, 0, 3, 2, 4, 1, 4, 3, 2, 0,
                     3, 1, 0, 2, 1, 0, 5, 3, 5, 5, 2, 6, 3, 3, 1],
        15: [2, 1, 2, 2, 2, 2, 2, 0, 1, 2, 1, 2, 2, 1, 0,
             0, 0, 1, 0, 0, 2, 6, 0, 2, 2, 2, 3, 3, 1, 3],
        9: [3, 2, 1, 3, 1, 3, 2, 0, 1, 2, 2, 2, 2, 2, 2,
            2, 1, 2, 2, 1, 1, 1, 2, 1, 1, 2, 0, 2, 0, 1],
        31: [0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
             6, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 3],
        24: [2, 1, 2, 2, 1, 1, 2, 2, 2, 2, 4, 2, 2, 3, 1,
             2, 3, 2, 0, 0, 0, 1, 3, 2, 0, 0, 1, 2, 0, 3],
    }

    @pytest.mark.parametrize("case", ["table_a1", 15, 9, 31, 24])
    def test_golden_outcomes(self, table_a1, case):
        if case == "table_a1":
            problem, rng = table_a1, np.random.default_rng(11)
        else:
            problem, rng = self.PROBLEMS[case], np.random.default_rng(case)
        assert [run_history(problem, rng) for _ in range(30)] == self.GOLDEN[case]

    @pytest.mark.parametrize(
        "timing, first, sites",
        [("pre_flight", True, 5), ("pre_flight", False, 6),
         ("post_flight", True, 6), ("post_flight", False, 7)],
    )
    def test_stream_advance_after_absorption(self, timing, first, sites):
        # of the problem's `sites` draw sites, a history absorbed at its
        # first reaction draws only up to that reaction (one draw for an
        # ungated first flight, one for the reaction), and the caller's next
        # history reads on from there
        problem = single_region(
            [0.5, 0.5], 1.0, flights=3, first_flight_always=first, reaction_timing=timing
        )
        assert len(problem.steps()) == sites
        rng = np.random.default_rng(4)
        run_history(problem, rng)
        fresh = np.random.default_rng(4)
        fresh.random(2 if first else 1)
        assert rng.random() == fresh.random()

    def test_distribution_against_oracle(self, table_a1):
        histories = 20_000
        rng = np.random.default_rng(77)
        counts = np.zeros(16)
        for _ in range(histories):
            counts[run_history(table_a1, rng)] += 1
        exact = exact_distribution(table_a1)
        sigma = np.sqrt(exact * (1 - exact) / histories)
        assert (np.abs(counts / histories - exact) < 4 * sigma + 1e-9).all()


class TestRunTally:
    # Recorded when each draw site began to take one uniform per live
    # history, after `test_golden_tally_passes_chi_square` passed on the
    # same tallies: counts of 20k shots with seed 3, trailing zero bins
    # dropped. The pre- and post-flight loops run the same steps once the
    # post-flight loop's last reaction, which moves no history, is dropped,
    # so the two timings share a golden.
    GOLDEN = {
        "first": [
            116, 235, 430, 678, 354, 482, 484, 389, 413, 440, 375, 414, 405, 403, 356,
            351, 331, 366, 341, 334, 275, 307, 298, 287, 274, 277, 280, 233, 264, 240,
            255, 249, 239, 214, 222, 205, 231, 217, 205, 197, 174, 210, 172, 164, 161,
            163, 165, 143, 161, 159, 169, 142, 166, 176, 191, 199, 191, 230, 265, 274,
            332, 296, 321, 321, 612, 595, 505, 284, 173, 105, 58, 33, 13, 5, 2,
            3, 1,
        ],
        "gated": [
            1088, 235, 391, 601, 357, 414, 434, 409, 383, 388, 375, 373, 359, 343, 340,
            349, 338, 300, 304, 328, 306, 307, 281, 306, 290, 288, 273, 259, 252, 234,
            221, 193, 218, 218, 181, 204, 195, 203, 196, 201, 202, 183, 154, 163, 153,
            168, 150, 146, 130, 145, 152, 154, 152, 183, 183, 191, 208, 210, 276, 282,
            273, 298, 289, 299, 566, 574, 527, 259, 175, 105, 51, 36, 15, 6, 4,
            3,
        ],
        "absorbing": [1856, 3641, 5646, 7484, 454, 465, 338, 48, 41, 17, 1, 6, 1, 1, 1],
        "d_max1": [
            420, 1411, 1256, 1177, 1115, 1031, 998, 881, 828, 732, 716, 664, 654, 558, 568,
            538, 1437, 1285, 1127, 962, 740, 449, 261, 131, 48, 10, 3,
        ],
        "d_max7": [
            1690, 158, 244, 364, 438, 439, 405, 381, 343, 347, 371, 350, 350, 323, 318,
            350, 323, 305, 274, 286, 288, 267, 248, 287, 220, 241, 227, 227, 222, 219,
            248, 212, 205, 200, 226, 210, 166, 188, 184, 158, 201, 176, 169, 160, 162,
            128, 141, 158, 140, 154, 149, 132, 159, 123, 140, 108, 139, 132, 113, 109,
            100, 104, 86, 104, 256, 271, 292, 294, 233, 214, 217, 168, 180, 174, 158,
            135, 133, 130, 118, 111, 106, 92, 89, 89, 94, 63, 63, 58, 49, 44,
            35, 39, 42, 38, 34, 29, 28, 22, 25, 21, 10, 9, 8, 6, 11,
            5, 8, 4, 0, 2, 1, 2, 1,
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
        counts = run_tally(self.golden_problem(case, timing), 20_000, seed=3)
        want = self.GOLDEN[case]
        assert counts[: len(want)].tolist() == want
        assert not counts[len(want):].any()

    @pytest.mark.parametrize("timing", ["pre_flight", "post_flight"])
    @pytest.mark.parametrize("case", ["first", "gated", "absorbing", "d_max1", "d_max7"])
    def test_golden_tally_passes_chi_square(self, case, timing):
        # the tallies the goldens hold, tested against the oracle
        problem = self.golden_problem(case, timing)
        counts = run_tally(problem, 20_000, seed=3)
        assert chi_square_p(counts, exact_distribution(problem)) > 1e-4

    def test_chi_square_against_oracle(self, table_a1):
        counts = run_tally(table_a1, 1_000_000, seed=9)
        assert chi_square_p(counts, exact_distribution(table_a1)) > 1e-4

    def test_chi2_sf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in (1, 2, 3, 10, 41, 120):
            for x in (0.5, dof, 2.0 * dof + 5, 4.0 * dof + 40):
                assert chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-9, abs=1e-300)

    def test_deterministic(self, table_a1):
        a = run_tally(table_a1, 10_000, seed=5)
        b = run_tally(table_a1, 10_000, seed=5)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != run_tally(table_a1, 10_000, seed=6))

    def test_counts_sum_to_shots(self, table_a1):
        counts = run_tally(table_a1, 12345, seed=0)
        assert counts.sum() == 12345

    def test_zero_shots_rejected(self, table_a1):
        with pytest.raises(InvariantError):
            run_tally(table_a1, 0, seed=0)

    def test_three_sigma_agreement_with_oracle(self, table_a1):
        shots = 1_000_000
        counts = run_tally(table_a1, shots, seed=9)
        exact = exact_distribution(table_a1)
        sigma = np.sqrt(exact * (1 - exact) / shots)
        assert (np.abs(counts / shots - exact) < 3 * sigma + 1e-9).all()

    def test_rmse_scaling_slope(self, table_a1):
        # distribution RMSE vs the oracle across decades of shots
        exact = exact_distribution(table_a1)
        budgets = [100, 1000, 10_000, 100_000]
        rmses = []
        for bi, shots in enumerate(budgets):
            errs = []
            for seed in range(10):
                freq = run_tally(table_a1, shots, seed=1000 * bi + seed) / shots
                errs.append(np.sqrt(np.mean((freq - exact) ** 2)))
            rmses.append(np.mean(errs))
        slope = np.polyfit(np.log10(budgets), np.log10(rmses), 1)[0]
        assert -0.65 < slope < -0.35

    def test_matches_scalar_histories_in_distribution(self):
        rng = np.random.default_rng(31)
        problem = random_problem(rng, max_total_qubits=12)
        counts = run_tally(problem, 50_000, seed=2)
        exact = exact_distribution(problem)
        sigma = np.sqrt(exact * (1 - exact) / 50_000)
        assert (np.abs(counts / 50_000 - exact) < 4 * sigma + 1e-9).all()


class TestBlockedStream:
    """The compacting sampler reads the stream where `full_draw_counts`,
    which keeps every history in place under an alive mask, reads it: one
    uniform per live history per draw site."""

    PROBLEMS = {
        "mixed": (RegionSpec((0.2, 0.3, 0.5), 0.3), RegionSpec((0.5, 0.3, 0.2), 0.5)),
        # nearly every history is absorbed within five reactions, so whole
        # blocks run out of live histories before the last draw site
        "absorbing": (RegionSpec((0.2, 0.3, 0.5), 0.9), RegionSpec((0.5, 0.3, 0.2), 0.95)),
    }

    @pytest.mark.parametrize("shots", [1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("timing", ["pre_flight", "post_flight"])
    @pytest.mark.parametrize("kind", ["mixed", "absorbing"])
    def test_matches_full_draw(self, kind, timing, first, shots):
        problem = TransportProblem(
            x_qubits=6, max_flights=8, boundary=16, regions=self.PROBLEMS[kind],
            first_flight_always=first, reaction_timing=timing,
        )
        rng, oracle = np.random.default_rng(shots), np.random.default_rng(shots)
        np.testing.assert_array_equal(
            classical_mc._simulate_counts(problem, shots, rng),
            full_draw_counts(problem, shots, oracle),
        )
        assert rng.random() == oracle.random()

    def test_buffered_uint32_kept(self, table_a1):
        # the sampler draws doubles only; the caller's next uint32 must still
        # be the buffered half of the 64-bit output it drew before
        rng, oracle = np.random.default_rng(2), np.random.default_rng(2)
        for stream in (rng, oracle):
            stream.integers(2**32, dtype=np.uint32)
            assert stream.bit_generator.state["has_uint32"]
        run_history(table_a1, rng)
        full_draw_counts(table_a1, 1, oracle)
        assert rng.integers(2**32, dtype=np.uint32) == oracle.integers(2**32, dtype=np.uint32)

    def test_mt19937_generator_matches_full_draw(self, table_a1):
        # the rule needs no jump-ahead, so any bit generator works
        rng, oracle = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
        np.testing.assert_array_equal(
            classical_mc._simulate_counts(table_a1, 10_000, rng),
            full_draw_counts(table_a1, 10_000, oracle),
        )
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("shots", [1, 5, 300])
    @pytest.mark.parametrize("timing", ["pre_flight", "post_flight"])
    def test_matches_scalar_draws(self, timing, shots):
        # one rng.random() per live history per draw site, in history order
        problem = TransportProblem(
            x_qubits=6, max_flights=8, boundary=16, regions=self.PROBLEMS["mixed"],
            first_flight_always=False, reaction_timing=timing,
        )
        cdfs = [np.cumsum(r.distance_pmf) for r in problem.regions]
        oracle = np.random.default_rng(shots)
        positions, alive = [0] * shots, [True] * shots
        for step in flowchart_steps(problem):
            for i in range(shots):
                if not alive[i]:
                    continue
                u = oracle.random()
                high = positions[i] >= problem.boundary
                if step == MOVE:
                    positions[i] += min(int(np.searchsorted(cdfs[high], u, "right")), problem.d_max)
                else:
                    alive[i] = u < problem.regions[high].p_scatter
        rng = np.random.default_rng(shots)
        counts = classical_mc._simulate_counts(problem, shots, rng)
        assert counts.tolist() == np.bincount(positions, minlength=len(counts)).tolist()
        assert rng.random() == oracle.random()

    def test_scratch_does_not_grow_with_shots(self):
        problem = TestRunTally.golden_problem("first", "pre_flight")
        peaks = {}
        for shots in (1 << 17, 1 << 20):
            tracemalloc.start()
            try:
                run_tally(problem, shots, seed=1)
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 4 << 20
        assert abs(peaks[1 << 20] - peaks[1 << 17]) <= 64 << 10


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
