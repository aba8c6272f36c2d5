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

`run_tally` runs a batch of histories and works only on those still in
flight: an absorbed history is tallied at once and dropped. `run_history` is
that batch sampler run for one shot. Three rules keep every seeded output
fixed:

- each draw site draws one full-length uniform array, one entry per
  history whether or not it is still alive, and history i reads entry i;
- the sampler never stops drawing early, not even once every history is
  absorbed, because `run_history` shares the caller's generator and must
  advance it by the same amount on every call;
- a flight distance is the number of k < d_max with u >= cdf[k], which for
  a monotone cdf equals min(searchsorted(cdf, u, "right"), d_max) exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
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
    flights = np.zeros(histories, dtype=np.int64)
    alive = np.ones(histories, dtype=bool)
    rounds = 0
    while alive.any():
        rounds += 1
        if rounds > FLIGHT_CAP:
            raise InvariantError(f"history exceeded the {FLIGHT_CAP}-flight cap")
        flights[alive] += 1
        survivors = np.flatnonzero(alive)
        u = rng.random(len(survivors))
        alive[survivors[u < p_absorb]] = False
    return float(flights.mean())


def _simulate_counts(
    problem: TransportProblem, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Histogram of the final positions of a batch of histories.

    Only live histories are worked on: `live` holds the indices of the
    histories still in flight and `pos` their positions. A history absorbed
    at a reaction is tallied at once and dropped from both arrays.

    - Every draw site draws `rng.random(shots)`, one uniform per history
      whether or not it is alive, and gathers the live entries in the same
      expression. History i always reads entry i, so the output does not
      depend on how many histories are still alive.
    - The loop never stops early, not even when no history is left:
      `run_history` shares the caller's generator, and each call must
      advance it by one full draw per draw site.
    - The distance drawn by u is the number of k < d_max with
      u >= cdf[k]. The cdf is monotone, so this equals
      min(searchsorted(cdf, u, "right"), d_max) exactly.
    """
    boundary = problem.boundary
    scatter = np.array([r.p_scatter for r in problem.regions])
    # thresholds[k] = (cdf_0[k], cdf_1[k]) for k < d_max
    thresholds = np.cumsum([r.distance_pmf for r in problem.regions], axis=1)[:, :-1].T
    counts = np.zeros(problem.position_count, dtype=np.int64)
    live = np.arange(shots)
    pos = np.zeros(shots, dtype=np.int64)

    # Region indices are intp and masks become index arrays before gathering:
    # `take` converts a bool index array on every call, and indexing with a
    # random bool mask is ~3x slower than nonzero + take.
    def region_of(pos):
        return (pos >= boundary).astype(np.intp)

    # Each step is a function so that its draw and scratch arrays are freed
    # before the next step's full-length draw.
    def react():
        nonlocal counts, live, pos
        keep = rng.random(shots)[live] < scatter.take(region_of(pos))
        counts += np.bincount(pos.take((~keep).nonzero()[0]), minlength=len(counts))
        kept = keep.nonzero()[0]
        live = live.take(kept)
        pos = pos.take(kept)

    def move():
        nonlocal pos
        u = rng.random(shots)[live]
        region = region_of(pos)
        for cdf_k in thresholds:
            pos += u >= cdf_k.take(region)

    for step in problem.steps():
        if step == MOVE:
            move()
        else:
            react()
    counts += np.bincount(pos, minlength=len(counts))
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
