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
step sequence per timing, and the sampler and the oracle each run one loop
over it, so that claim stays checkable.

`run_tally` runs a batch of histories, one block of 2^16 (`sim._BLOCK`) at
a time, and works only on those still in flight: an absorbed history's
position is recorded at once and the history dropped. `run_history` is
that batch sampler run for one shot. Three rules keep every seeded output fixed:

- history i at draw site t reads PCG64 output t*shots + i, whatever the
  block size and however many histories are still alive; `advance` places
  each draw there, so a block draws only the span of its live histories,
  and nothing once none is left;
- the generator ends len(steps)*shots outputs past its start, with its
  buffered 32-bit half as it was, because `run_history` shares the caller's
  generator and each call must advance it by the same amount;
- a flight distance is the number of k < d_max with u >= cdf[k], which for
  a monotone cdf equals min(searchsorted(cdf, u, "right"), d_max) exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantError
from .sim import _BLOCK
from .transport import MOVE, TransportProblem

FLIGHT_CAP = 10**6


def make_stream(seed: int) -> np.random.Generator:
    """Independent generator for a seed; same seed, same sequence."""
    return np.random.default_rng(np.random.SeedSequence([seed]))


@dataclass
class McTally:
    """Histogram of final positions from a batch of sampled histories."""

    counts: np.ndarray
    total_shots: int
    seed: int

    def frequencies(self) -> np.ndarray:
        return self.counts / self.total_shots


def sample_flight_distance_continuous(mean_free_path: float, eta: float) -> float:
    """Continuous flight distance -lambda*ln(eta) for a uniform draw eta in (0, 1]."""
    if mean_free_path <= 0:
        raise InvariantError("mean free path must be positive")
    if not 0.0 < eta <= 1.0:
        raise InvariantError(f"eta must be in (0, 1], got {eta}")
    return -mean_free_path * math.log(eta)


def discretize_exponential(mean_free_path: float, d_max: int) -> np.ndarray:
    """Exponential flight-distance distribution rounded to integers 0..d_max.

    Band [k-0.5, k+0.5) maps to k, with the full tail lumped into d_max, so
    the result sums to exactly 1 by telescoping.
    """
    if mean_free_path <= 0:
        raise InvariantError("mean free path must be positive")
    if d_max < 1:
        raise InvariantError("d_max must be >= 1")
    lam = mean_free_path
    pmf = np.empty(d_max + 1)
    pmf[0] = 1.0 - math.exp(-0.5 / lam)
    for k in range(1, d_max):
        pmf[k] = math.exp(-(k - 0.5) / lam) - math.exp(-(k + 0.5) / lam)
    pmf[d_max] = math.exp(-(d_max - 0.5) / lam)
    return pmf


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
    rng = make_stream(seed)
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

    Histories run one block of `_BLOCK` at a time through all the steps.
    Only live histories are worked on: `live` holds the block offsets of the
    histories still in flight and `pos` their positions. A history absorbed
    at a reaction has its position written to `final` at once and is dropped
    from both arrays; the block is tallied from `final` when it ends.

    - History i at draw site t reads PCG64 output t*shots + i. Each block
      sets the generator back to its start state once; before each draw it
      is advanced from the end of the block's last draw to the block's
      first live history at that site, and the span up to its last live
      history is drawn and the live entries gathered from it. So the output
      does not depend on the block size or on how many histories are alive,
      and a block with no live history draws nothing more.
    - At the end the generator is left len(steps)*shots outputs past its
      start, as one full draw per draw site would leave it: `run_history`
      shares the caller's generator. `advance` clears the buffered 32-bit
      half of the state, so that is put back as it was.
    - The distance drawn by u is the number of k < d_max with
      u >= cdf[k]. The cdf is monotone, so this equals
      min(searchsorted(cdf, u, "right"), d_max) exactly.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise InvariantError(
            f"the flowchart sampler needs a PCG64 generator, got {type(bit_generator).__name__}"
        )
    _check_positions(problem)
    start = bit_generator.state
    steps = problem.steps()
    boundary = problem.boundary
    scatter = np.array([r.p_scatter for r in problem.regions])
    # thresholds[k] = (cdf_0[k], cdf_1[k]) for k < d_max
    thresholds = np.cumsum([r.distance_pmf for r in problem.regions], axis=1)[:, :-1].T
    counts = np.zeros(problem.position_count, dtype=np.int64)

    drawn = 0  # outputs past `start` the generator stands at

    def draw(site_start, live):
        # output site_start + j for each live block offset j; within a block
        # the sites only move forward, so each draw advances from the last
        nonlocal drawn
        first, last = int(live[0]), int(live[-1])
        bit_generator.advance(site_start + first - drawn)
        drawn = site_start + last + 1
        return rng.random(last - first + 1).take(live - first)

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

    def react(u, live, pos, final):
        keep = u < scatter.take(region_of(pos))
        absorbed = (~keep).nonzero()[0]
        final[live.take(absorbed)] = pos.take(absorbed)
        kept = keep.nonzero()[0]
        return live.take(kept), pos.take(kept)

    for block_start in range(0, shots, _BLOCK):
        bit_generator.state, drawn = start, 0
        final = np.empty(min(_BLOCK, shots - block_start), dtype=np.int64)
        live = np.arange(len(final))
        pos = np.zeros(len(final), dtype=np.int64)
        for t, step in enumerate(steps):
            if not len(live):
                break
            site_start = t * shots + block_start
            if step == MOVE:
                move(draw(site_start, live), pos)
            else:
                live, pos = react(draw(site_start, live), live, pos, final)
        final[live] = pos
        counts += np.bincount(final, minlength=len(counts))

    buffered = {key: start[key] for key in ("has_uint32", "uinteger")}
    bit_generator.advance(len(steps) * shots - drawn)  # from the last block's last draw
    bit_generator.state = {**bit_generator.state, **buffered}
    return counts


def run_history(problem: TransportProblem, rng: np.random.Generator) -> int:
    """One sampled particle history; returns the final position."""
    return int(_simulate_counts(problem, 1, rng).argmax())


def run_tally(problem: TransportProblem, shots: int, seed: int) -> McTally:
    """Histogram `shots` histories; deterministic for a fixed seed."""
    if shots < 1:
        raise InvariantError("shots must be >= 1")
    return McTally(_simulate_counts(problem, shots, make_stream(seed)), shots, seed)


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
