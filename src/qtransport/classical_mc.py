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
identical final-position distributions; both loop structures are kept so
that claim stays checkable.

`run_tally` draws a batch of histories with one uniform array per draw site;
`run_history` is that batch sampler run for one shot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .transport import PRE_FLIGHT, TransportProblem

FLIGHT_CAP = 10**6


def make_stream(seed: int, index: int | None = None) -> np.random.Generator:
    """Independent generator for (seed, index); same pair, same sequence."""
    entropy = [seed] if index is None else [seed, index]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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


def mean_flights_uncapped(
    p_absorb: float, histories: int, seed: int, flight_cap: int = FLIGHT_CAP
) -> float:
    """Empirical mean flight count in a single region with no flight cap.

    Histories are cut off (with an error) at `flight_cap` flights, which is
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
        if rounds > flight_cap:
            raise InvariantError(f"history exceeded the {flight_cap}-flight cap")
        flights[alive] += 1
        survivors = np.flatnonzero(alive)
        u = rng.random(len(survivors))
        alive[survivors[u < p_absorb]] = False
    return float(flights.mean())


def _cdf(spec) -> np.ndarray:
    return np.cumsum(spec.distance_pmf)


def _simulate_positions(
    problem: TransportProblem, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Final positions of a batch of histories; one uniform array per draw site."""
    cdfs = [_cdf(r) for r in problem.regions]
    scatter = np.array([r.p_scatter for r in problem.regions])
    pos = np.zeros(shots, dtype=np.int64)
    alive = np.ones(shots, dtype=bool)
    pre = problem.reaction_timing == PRE_FLIGHT

    def react(u):
        region = (pos >= problem.boundary).astype(np.int64)
        return alive & (u < scatter[region])

    def move(u):
        region = pos >= problem.boundary
        d1 = np.searchsorted(cdfs[0], u, side="right")
        d2 = np.searchsorted(cdfs[1], u, side="right")
        d = np.where(region, d2, d1)
        np.minimum(d, problem.d_max, out=d)
        return pos + np.where(alive, d, 0)

    if not pre and not problem.first_flight_always:
        alive = react(rng.random(shots))
    for m in range(1, problem.max_flights + 1):
        if pre and problem.has_reaction(m):
            alive = react(rng.random(shots))
        pos = move(rng.random(shots))
        if not pre:
            alive = react(rng.random(shots))
    return pos


def run_history(problem: TransportProblem, rng: np.random.Generator) -> int:
    """One sampled particle history; returns the final position."""
    return int(_simulate_positions(problem, 1, rng)[0])


def run_tally(problem: TransportProblem, shots: int, seed: int) -> McTally:
    """Histogram `shots` histories; deterministic for a fixed seed."""
    if shots < 1:
        raise InvariantError("shots must be >= 1")
    pos = _simulate_positions(problem, shots, make_stream(seed))
    counts = np.bincount(pos, minlength=problem.position_count)
    return McTally(counts, shots, seed)


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
    pre = problem.reaction_timing == PRE_FLIGHT
    if not pre and not problem.first_flight_always:
        settled = settled + alive * (1.0 - p_scatter)
        alive = alive * p_scatter
    for m in range(1, problem.max_flights + 1):
        if pre and problem.has_reaction(m):
            settled = settled + alive * (1.0 - p_scatter)
            alive = alive * p_scatter
        alive = convolve_by_region(alive)
        if not pre:
            settled = settled + alive * (1.0 - p_scatter)
            alive = alive * p_scatter
    return alive + settled
