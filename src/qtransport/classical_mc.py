"""Classical references: flowchart Monte Carlo sampler and the exact oracle.

`exact_distribution` enumerates all discrete histories by dynamic
programming over (position, alive) mass and is the ground truth every other
path is tested against: the MC tally converges to it at the usual N^-1/2
rate, and the quantum circuit's position marginal must match it to
statevector precision.

Reaction timing: with "pre_flight" each gated flight first splits the alive
mass by the current region's absorb/scatter probabilities and then moves
the surviving mass; with "post_flight" the mass moves first and is split at
the landing position (which gates the next flight). The reaction deciding
any given flight reads the same region either way, so the two timings yield
identical final-position distributions. `TransportProblem.steps` gives one
step sequence per timing, and the oracle and the sampler each run one loop
over it (the sampler less a trailing reaction), so that claim stays
checkable.

`run_tally` runs a batch of histories, one block of 2^16 (`transport._BLOCK`)
at a time, and works only on those still in flight: an absorbed history's
position is recorded at once and the history dropped. `run_history` is
that batch sampler run for one shot. Three rules fix every seeded output:

- blocks run in order, and at each draw site a block draws one uniform per
  live history, which the live histories read in block-offset order; so a
  block draws nothing once none is left, and any bit generator will do;
- a reaction after the last flight moves no history and is not run (the
  oracle's `problem.steps()` keeps it), so the post-flight loop runs the
  pre-flight loop's steps, and the two timings give the same tally for a
  seed;
- a flight distance is the number of k < d_max with u >= cdf[k], which for
  a monotone cdf equals min(searchsorted(cdf, u, "right"), d_max) exactly.

`run_history` shares the caller's generator, and advances it by the draws
its history took.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError, InvariantError
from .transport import _BLOCK, MOVE, REACT, TransportProblem

FLIGHT_CAP = 10**6


def expected_flights(p_absorb: float) -> float:
    """Mean number of flights before absorption: 1/p_absorb."""
    if not 0.0 < p_absorb <= 1.0:
        raise InvariantError(f"p_absorb must be in (0, 1], got {p_absorb}")
    return 1.0 / p_absorb


def mean_flights_uncapped(p_absorb: float, histories: int, seed: int) -> float:
    """Empirical mean flight count in a single region with no flight cap.

    Histories are cut off (with an error) at FLIGHT_CAP flights, which is
    unreachable in practice for any p_absorb of interest.
    """
    if not 0.0 < p_absorb <= 1.0:
        raise InvariantError(f"p_absorb must be in (0, 1], got {p_absorb}")
    if histories < 1:
        raise InvariantError("histories must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0
    alive = histories
    rounds = 0
    while alive:
        rounds += 1
        if rounds > FLIGHT_CAP:
            raise InvariantError(f"history exceeded the {FLIGHT_CAP}-flight cap")
        total += alive
        alive = int(np.count_nonzero(rng.random(alive) >= p_absorb))
    return total / histories


def _check_positions(problem: TransportProblem) -> None:
    """CapacityError naming the bytes if numpy cannot index a vector of 8-byte
    entries over every position (it would raise ValueError, not MemoryError);
    the oracle and the tally call it before they allocate one."""
    nbytes = 8 * problem.position_count
    if nbytes > np.iinfo(np.intp).max:
        raise CapacityError(f"cannot allocate {nbytes} bytes for 2^{problem.x_qubits} positions")


def _simulate_counts(
    problem: TransportProblem, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Histogram of the final positions of a batch of histories.

    Histories run one block of `_BLOCK` at a time, in order, through the
    steps. Only live histories are worked on: `pos` holds the positions of
    the histories still in flight, in block-offset order. A history absorbed
    at a reaction has its position appended to `final` at once and is
    dropped from `pos`; the block is tallied from `final` when it ends.

    - Each draw site takes `rng.random(len(pos))`, and the live histories
      read the draws in block-offset order. A block with no live history
      draws nothing more, and neither does a reaction after the last
      flight: it moves no history, so it is not run.
    - The distance drawn by u is the number of k < d_max with
      u >= cdf[k]. The cdf is monotone, so this equals
      min(searchsorted(cdf, u, "right"), d_max) exactly.
    """
    _check_positions(problem)
    steps = problem.steps()
    while steps and steps[-1] == REACT:
        steps = steps[:-1]
    boundary = problem.boundary
    scatter = np.array([r.p_scatter for r in problem.regions])
    # thresholds[k] = (cdf_0[k], cdf_1[k]) for k < d_max
    thresholds = np.cumsum([r.distance_pmf for r in problem.regions], axis=1)[:, :-1].T
    counts = np.zeros(problem.position_count, dtype=np.int64)

    # Region indices are intp and masks become index arrays before gathering:
    # `take` converts a bool index array on every call, and indexing with a
    # random bool mask is ~3x slower than nonzero + take.
    def region_of(pos):
        return (pos >= boundary).astype(np.intp)

    # Each step is a function, and its draw an argument, so that the draw
    # and scratch arrays are freed before the next step's draw.
    def move(u, pos):
        region = region_of(pos)
        for cdf_k in thresholds:
            pos += u >= cdf_k.take(region)

    def react(u, pos, final, settled):
        keep = u < scatter.take(region_of(pos))
        absorbed = pos.take((~keep).nonzero()[0])
        final[settled : settled + len(absorbed)] = absorbed
        return pos.take(keep.nonzero()[0]), settled + len(absorbed)

    for block_start in range(0, shots, _BLOCK):
        final = np.empty(min(_BLOCK, shots - block_start), dtype=np.int64)
        pos = np.zeros(len(final), dtype=np.int64)
        settled = 0  # entries of `final` written so far
        for step in steps:
            if not len(pos):
                break
            if step == MOVE:
                move(rng.random(len(pos)), pos)
            else:
                pos, settled = react(rng.random(len(pos)), pos, final, settled)
        final[settled:] = pos
        counts += np.bincount(final, minlength=len(counts))
    return counts


def run_history(problem: TransportProblem, rng: np.random.Generator) -> int:
    """One sampled particle history; returns the final position."""
    return int(_simulate_counts(problem, 1, rng).argmax())


def run_tally(problem: TransportProblem, shots: int, seed: int) -> np.ndarray:
    """int64 counts of the final positions of `shots` histories;
    deterministic for a fixed seed."""
    if shots < 1:
        raise InvariantError("shots must be >= 1")
    return _simulate_counts(problem, shots, np.random.default_rng(seed))


def exact_distribution(problem: TransportProblem) -> np.ndarray:
    """Exact final-position probabilities by dynamic programming.

    State is a mass vector over positions, split into still-alive and
    settled (absorbed) mass; each flight convolves the alive mass of each
    region with that region's distance pmf. The no-overflow invariant keeps
    every history inside the position register, so the convolution tail is
    always empty.
    """
    _check_positions(problem)
    size = problem.position_count
    positions = np.arange(size)
    region2 = positions >= problem.boundary
    p_scatter = np.where(region2, problem.regions[1].p_scatter, problem.regions[0].p_scatter)
    pmfs = [np.asarray(r.distance_pmf) for r in problem.regions]

    def convolve_by_region(mass: np.ndarray) -> np.ndarray:
        out = np.zeros(size)
        for mask, pmf in ((~region2, pmfs[0]), (region2, pmfs[1])):
            src = mass * mask
            if src.any():
                full = np.convolve(src, pmf)
                if full[size:].sum() >= 1e-12:
                    raise InvariantError("mass escaped the position register")
                out += full[:size]
        return out

    alive = np.zeros(size)
    alive[0] = 1.0
    settled = np.zeros(size)
    for step in problem.steps():
        if step == MOVE:
            alive = convolve_by_region(alive)
        else:
            settled = settled + alive * (1.0 - p_scatter)
            alive = alive * p_scatter
    return alive + settled
