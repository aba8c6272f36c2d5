"""Amplitude estimation over the transport circuit.

The state-preparation operator A is the transport circuit followed by a
predicate oracle that flips a flag qubit (A's own, one past the transport
qubits and registered as "flag") when the position register satisfies the
predicate, so the flag's |1> probability is exactly the probability being
estimated. The Grover operator Q = A S0 A^-1 S_chi rotates that amplitude
within the plane spanned by the flagged and unflagged parts of A|0>, so
measuring the flag after Q^m A|0> sees probability sin^2((2m+1) theta)
with theta = arcsin sqrt(p). Estimation reads p from one exact pass of A
(`predicate_probability`) and takes the Grover-power probabilities from
that closed form; `build_grover_operator` is the gate-level Q the tests
check it against.

The predicate oracle only copies the amplitudes of the positions it selects
into the flag = 1 half, so that pass needs no flag: it reads the predicate's
mass from the transport branches (`transport.transport_branches`, one
amplitude and one position per value of the registers other than X, AncR
and AncP), summed block by block as a blocked read of A's flag half in a
dense state would sum it. The ceiling still counts A's qubits. The tests
run the whole gate-level A (`tests/reference.py`) and hold this pass to it.

Estimation is maximum-likelihood over a schedule of Grover powers: shot
counts at each power are fused into one likelihood over theta, maximized on
a dense grid of 100 001 points and then on two 1001-point refinement
windows. The dense round finds the grid's first maximum without building
the grid or evaluating every point (`_likelihood_argmax`). Any run of grid
points gets a rigorous upper bound of the log-likelihood from the range of
sin^2((2m+1) theta) between its two end points. The grid is cut into
blocks of 64 points and the blocks into groups of 16; every group is
bounded, and only the groups whose bounds can matter are split into
blocks. The 8 best blocks of the 8 best groups are evaluated, and then
every block whose bound reaches their maximum; no other block can hold the
maximum. `_grid_points` computes just the thetas used, bit for bit as
np.linspace places them, and every point's likelihood is computed by the
same elementwise arithmetic (`_log_likelihood`) whichever points share its
array, so the index, and every theta_hat and p_hat, is bit-identical to
np.argmax over the whole grid, ties included. On an exp:6 schedule with 100
shots per power the search bounds about a seventh of the ranges a pass over
every block would, and evaluates under 1% of the blocks. A refinement
window is two steps of the round before wide, so nearly all its blocks
would survive the bound; each is evaluated on all its points instead.
Malformed counts raise InvariantError (`check_counts`).

Oracle-call accounting: each A or A^-1 counts as one call, so a shot at
power m costs 2m+1 calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, compose, inverse, phase_shift, x
from .errors import InvariantError, PredicateError
from .transport import (
    _BLOCK,
    TransportProblem,
    build_region_flag,
    build_transport_circuit,
    check_width,
    transport_branches,
    transport_registers,
    transport_widths,
)

GEQ, EQ, REGION2 = "geq", "eq", "region2"
MAX_POWER = (1 << 62) - 1  # largest Grover power m whose 2m+1 fits in an int64
MAX_SHOTS_PER_POWER = (1 << 63) - 1  # int64, the widest count Generator.binomial takes


@dataclass(frozen=True)
class Predicate:
    """Position predicate to estimate: x >= 2^k, x == v, or "in region 2"."""

    kind: str
    value: int | None = None

    @classmethod
    def geq(cls, threshold: int) -> "Predicate":
        return cls(GEQ, threshold)

    @classmethod
    def eq(cls, value: int) -> "Predicate":
        return cls(EQ, value)

    @classmethod
    def region2(cls) -> "Predicate":
        return cls(REGION2)

    def __str__(self) -> str:
        return self.kind if self.kind == REGION2 else f"{self.kind}:{self.value}"


def parse_predicate(text: str) -> Predicate:
    """Parse the CLI grammar: geq:K, eq:V, or region2."""
    if text == REGION2:
        return Predicate.region2()
    kind, sep, raw = text.partition(":")
    if not sep or kind not in (GEQ, EQ):
        raise PredicateError(f"unknown predicate {text!r}; expected geq:K, eq:V, or region2")
    try:
        value = int(raw)
    except ValueError:
        raise PredicateError(f"predicate value {raw!r} is not an integer") from None
    return Predicate(kind, value)


def _resolve(pred: Predicate, problem: TransportProblem) -> Predicate:
    """The predicate as geq or eq, region2 being geq:boundary; PredicateError
    unless it fits the position register."""
    if pred.kind == REGION2:
        return Predicate.geq(problem.boundary)
    value, width = pred.value, problem.x_qubits
    if pred.kind == GEQ:
        if value is None or value <= 0 or value & (value - 1):
            raise PredicateError(f"geq threshold must be a power of two, got {value}")
        if value >= (1 << width):
            raise PredicateError(f"geq threshold {value} not below 2^{width}")
    elif value is None or not 0 <= value < (1 << width):
        raise PredicateError(f"eq value {value} outside the position register")
    return pred


def _selects(pred: Predicate, problem: TransportProblem, positions: np.ndarray) -> np.ndarray:
    """Which of the given positions the predicate selects."""
    pred = _resolve(pred, problem)
    return positions >= pred.value if pred.kind == GEQ else positions == pred.value


def predicate_mask(pred: Predicate, problem: TransportProblem) -> np.ndarray:
    """Boolean mask over position values selected by the predicate."""
    return _selects(pred, problem, np.arange(problem.position_count))


def build_flag_oracle(problem: TransportProblem, pred: Predicate) -> Circuit:
    """Circuit flipping the flag iff the X register satisfies the predicate;
    the flag is a new qubit past the transport circuit, registered as "flag"."""
    pred = _resolve(pred, problem)
    registers = transport_registers(problem)
    flag, x_register = transport_widths(problem)[0], registers["X"]
    if pred.kind == GEQ:
        gates = build_region_flag(x_register, pred.value, flag).gates
    else:
        gates = (x(flag, [(q, bool((pred.value >> i) & 1)) for i, q in enumerate(x_register)]),)
    return Circuit(flag + 1, gates, {**registers, "flag": (flag,)})


def build_a_operator(problem: TransportProblem, pred: Predicate) -> Circuit:
    """A = transport circuit then predicate oracle, on the oracle's qubits."""
    oracle = build_flag_oracle(problem, pred)
    transport = build_transport_circuit(problem)
    return Circuit(oracle.qubit_count, transport.gates + oracle.gates, oracle.registers)


def _flag(a: Circuit) -> int:
    if "flag" not in a.registers:
        raise InvariantError("A has no flag register; build it with build_a_operator")
    return a.registers["flag"][0]


def build_grover_operator(a: Circuit) -> Circuit:
    """Q = A S0 A^-1 S_chi as a gate sequence (S_chi applied first).

    S_chi is a Z on A's flag; S0 flips the sign of the all-zeros state via
    an X-conjugated phase flip negatively controlled on every other qubit.
    """
    n = a.qubit_count
    s_chi = Circuit(n, (phase_shift(math.pi, _flag(a)),))
    s0 = Circuit(
        n,
        (
            x(0),
            phase_shift(math.pi, 0, [(q, False) for q in range(1, n)]),
            x(0),
        ),
    )
    return compose(s_chi, inverse(a), s0, a)


def predicate_probability(problem: TransportProblem, pred: Predicate) -> float:
    """Flag |1> probability of A|0> for A = build_a_operator(problem, pred).

    The oracle copies the selected positions' amplitudes into A's flag = 1
    half, so this is their mass in the transport branches. It is summed as
    a blocked masked read of the dense support would sum it, so the bits
    match the gate-level A: each block of `_BLOCK` support amplitudes (the
    whole support if smaller) is one zeroed buffer with the block's
    selected squares scattered to their places in it, and the blocks' sums
    are added in order. The
    predicate is checked first and the width check counts A's qubits; no
    array has the support's size.
    """
    check_a_operator(problem, pred)
    amplitudes, positions = transport_branches(problem)
    width = problem.x_qubits
    squares = np.square(np.abs(amplitudes))
    squares[~_selects(pred, problem, positions)] = 0.0
    block = np.zeros(min(_BLOCK, len(squares) << width))
    step = max(1, _BLOCK >> width)  # branches per block
    total = 0.0
    for start in range(0, len(squares), step):
        chunk = slice(start, start + step)
        # branch i sits at support index (i << width) + position
        places = ((np.arange(len(squares[chunk])) << width) + positions[chunk]) & (len(block) - 1)
        block[places] = squares[chunk]
        total += block.sum()
        block[places] = 0.0
    return float(total)


def check_a_operator(problem: TransportProblem, pred: Predicate) -> None:
    """The checks made before A's state is built: PredicateError unless the
    predicate fits the position register, then `transport.check_width` on A's
    qubits, the transport circuit's and the flag past them."""
    _resolve(pred, problem)
    check_width(transport_widths(problem)[0] + 1)


def check_powers(powers) -> tuple[int, ...]:
    """The Grover powers as ints; PredicateError unless every m is
    nonnegative and at most MAX_POWER, so that 2m+1 fits in an int64."""
    powers = tuple(int(m) for m in powers)
    for m in powers:
        if not 0 <= m <= MAX_POWER:
            raise PredicateError(f"Grover power {m} must be nonnegative and at most 2^62 - 1")
    return powers


def amplified_probabilities(p: float, powers) -> np.ndarray:
    """Flag |1> probability after Q^m A|0> for each power m, where p is the
    flag probability of A|0>: sin^2((2m+1) theta) with theta = arcsin sqrt(p).

    p is clamped to [0, 1] first, so rounding just outside the interval
    still gives finite probabilities.
    """
    powers = np.asarray(check_powers(powers), dtype=np.int64)
    theta = math.asin(math.sqrt(min(max(p, 0.0), 1.0)))
    return np.sin((2 * powers + 1) * theta) ** 2


@dataclass
class QaeEstimate:
    """MLQAE result with oracle-call accounting."""

    p_hat: float
    theta_hat: float
    total_oracle_calls: int
    schedule: tuple[int, ...]
    shots_per_power: int
    hits: tuple[int, ...]
    exact_p: float

    def to_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "theta_hat": self.theta_hat,
            "total_oracle_calls": self.total_oracle_calls,
            "schedule": list(self.schedule),
            "shots_per_power": self.shots_per_power,
            "hits": list(self.hits),
        }


def oracle_calls(schedule, shots_per_power: int) -> int:
    return sum(shots_per_power * (2 * m + 1) for m in schedule)


_TINY = 1e-300  # floor on sin^2 and cos^2 before the log
_LIKELIHOOD_BLOCK = 64  # grid points per block of the likelihood search
_SEED_BLOCKS = 8  # blocks with the highest bounds, evaluated to set the floor
_GROUP_BLOCKS = 16  # blocks per group of the first, coarser bound pass
_SEED_GROUPS = 8  # groups with the highest bounds, split to find the seed blocks
# Past this, (2m+1) theta is too coarse for its quadrant to be trusted.
_WIDE_ARGUMENT = 2.0**40
_U_SLOP = 1e-13  # relative error allowed on a computed sin^2
_BOUND_SLOP = 1e-12  # relative rounding allowed on a summed bound


def _log_likelihood(theta: np.ndarray, powers, shots, hits) -> np.ndarray:
    # In place on two scratch buffers, each the size of theta. Every point
    # is computed on its own, so a point's value does not depend on which
    # other points share the array.
    ll = np.zeros_like(theta)
    sin2 = np.empty_like(theta)
    term = np.empty_like(theta)
    for m, s, hit in zip(powers, shots, hits):
        np.multiply(2 * m + 1, theta, out=sin2)
        np.sin(sin2, out=sin2)
        np.square(sin2, out=sin2)
        if hit > 0:
            np.maximum(sin2, _TINY, out=term)
            np.log(term, out=term)
            term *= hit
            ll += term
        if s - hit > 0:
            np.subtract(1.0, sin2, out=term)
            np.maximum(term, _TINY, out=term)
            np.log(term, out=term)
            term *= s - hit
            ll += term
    return ll


def _grid_points(lo: float, hi: float, points: int, index) -> np.ndarray:
    """np.linspace(lo, hi, points + 1)[index], bit for bit, without building
    the grid: linspace puts point i at i * ((hi - lo) / points) + lo and
    sets the last point to hi."""
    index = np.asarray(index)
    return np.where(index == points, hi, index * ((hi - lo) / points) + lo)


def _block_points(blocks: np.ndarray, size: int) -> np.ndarray:
    """Grid indices of the given blocks, in order, clipped to the grid."""
    points = (blocks[:, None] * _LIKELIHOOD_BLOCK + np.arange(_LIKELIHOOD_BLOCK)).ravel()
    return points[points < size]


def _block_bounds(least: np.ndarray, greatest: np.ndarray, powers, shots, hits) -> np.ndarray:
    """Upper bound of `_log_likelihood` over each block of grid points whose
    least and greatest theta are `least` and `greatest`.

    Within a block the arguments (2m+1) theta, computed as the likelihood
    computes them, lie between their values at the block's least and
    greatest theta, so while they stay inside one quarter period
    u = sin^2((2m+1) theta) lies between its values there. Where they reach
    an odd multiple of pi/2 the range goes up to 1, and where they reach a
    multiple of pi (0 included) it goes down to 0; a block whose arguments
    pass _WIDE_ARGUMENT gets the whole range [0, 1]. The term
    h log u + (s - h) log(1 - u) is concave in u with its peak at h/s, so
    over a range of u it is largest at h/s clamped into that range. The
    range is widened by _U_SLOP against sin's rounding and the sum by
    _BOUND_SLOP against the log's, so each bound is at least every value
    `_log_likelihood` computes in its block.
    """
    # one row per power; the products are the likelihood's own
    lo_arg = np.array([np.multiply(2 * m + 1, least) for m in powers])
    hi_arg = np.array([np.multiply(2 * m + 1, greatest) for m in powers])
    u_least, u_greatest = np.square(np.sin(lo_arg)), np.square(np.sin(hi_arg))
    u_lo = np.minimum(u_least, u_greatest) * (1.0 - _U_SLOP)
    u_hi = np.minimum(np.maximum(u_least, u_greatest) * (1.0 + _U_SLOP), 1.0)
    # half periods of u, widened for the rounding of the division: u is 0
    # at a whole one and 1 halfway between
    half = np.array([lo_arg, hi_arg]) / math.pi
    margin = 5e-16 * (1.0 + 2.0 * half[1])
    half[0] -= margin
    half[1] += margin
    zero, one = np.floor(half), np.floor(half + 0.5)
    u_lo[zero[0] != zero[1]] = 0.0
    u_hi[one[0] != one[1]] = 1.0
    wide = hi_arg > _WIDE_ARGUMENT
    u_lo[wide], u_hi[wide] = 0.0, 1.0
    hit = np.array(hits, dtype=float)[:, None]
    miss = np.array(shots, dtype=float)[:, None] - hit
    # the likelihood adds a term only for a positive weight
    hit, miss = np.where(hit > 0, hit, 0.0), np.where(miss > 0, miss, 0.0)
    u = np.clip(hit / np.maximum(hit + miss, _TINY), u_lo, u_hi)
    term = hit * np.log(np.maximum(u, _TINY)) + miss * np.log(np.maximum(1.0 - u, _TINY))
    return term.sum(axis=0) + _BOUND_SLOP * (1.0 + np.abs(term).sum(axis=0))


def _likelihood_argmax(lo: float, hi: float, points: int, powers, shots, hits) -> int:
    """Index of the first maximum of `_log_likelihood` on the grid
    np.linspace(lo, hi, points + 1), the index np.argmax would give on
    every point, found from the blocks that can hold it; only the thetas it
    uses are computed (`_grid_points`).

    The grid is cut into blocks of _LIKELIHOOD_BLOCK points (the last may
    be shorter), and the blocks into groups of _GROUP_BLOCKS. Every group
    is bounded from its end points; splitting a group bounds its blocks the
    same way, and a group's bound is at least every likelihood value inside
    it. The groups whose bounds reach the _SEED_GROUPS-th best group bound
    are split, ties included, so the choice does not hang on the order of
    tied bounds, and the _SEED_BLOCKS blocks with the highest bounds among
    them are evaluated; their maximum is the floor. Every other group whose
    bound reaches the floor (less 1e-9 relative) is split, and every other
    block whose bound reaches it is evaluated; the rest cannot hold a
    maximum. No group or block is bounded twice. Raises InvariantError if
    the likelihood is not finite or a seed block exceeds its own or its
    group's bound.
    """
    size = points + 1
    starts = np.arange(0, size, _LIKELIHOOD_BLOCK)
    ends = np.minimum(starts + _LIKELIHOOD_BLOCK - 1, size - 1)
    count = len(starts)

    def bound(first, last) -> np.ndarray:
        # the runs of blocks first..last, from their end points
        return _block_bounds(
            _grid_points(lo, hi, points, starts[first]), _grid_points(lo, hi, points, ends[last]),
            powers, shots, hits,
        )

    firsts = np.arange(0, count, _GROUP_BLOCKS)
    group_bounds = bound(firsts, np.minimum(firsts + _GROUP_BLOCKS - 1, count - 1))
    bounds = np.full(count, -np.inf)  # -inf until the block's group is split
    unsplit = np.ones(len(firsts), dtype=bool)

    def split(groups: np.ndarray) -> None:
        if not len(groups):
            return
        blocks = (groups[:, None] * _GROUP_BLOCKS + np.arange(_GROUP_BLOCKS)).ravel()
        blocks = blocks[blocks < count]
        bounds[blocks] = bound(blocks, blocks)
        unsplit[groups] = False

    # every group whose bound reaches the _SEED_GROUPS-th best, ties included
    best = min(_SEED_GROUPS, len(firsts))
    split(np.flatnonzero(group_bounds >= np.partition(group_bounds, -best)[-best]))
    seeds = np.sort(np.argpartition(bounds, -min(_SEED_BLOCKS, count))[-_SEED_BLOCKS:])
    seed_points = _block_points(seeds, size)
    seed_ll = _log_likelihood(_grid_points(lo, hi, points, seed_points), powers, shots, hits)
    floor = float(seed_ll.max())
    if not math.isfinite(floor):
        raise InvariantError(f"log-likelihood {floor} is not finite")
    seed_max = np.maximum.reduceat(seed_ll, np.arange(0, len(seed_ll), _LIKELIHOOD_BLOCK))
    if (seed_max > bounds[seeds]).any():
        raise InvariantError("a likelihood block exceeds its bound")
    if (seed_max > group_bounds[seeds // _GROUP_BLOCKS]).any():
        raise InvariantError("a likelihood block exceeds its group's bound")
    cut = floor - 1e-9 * (1.0 + abs(floor))
    split(np.flatnonzero(unsplit & (group_bounds >= cut)))
    rest = bounds >= cut
    rest[seeds] = False
    if not rest.any():
        return int(seed_points[seed_ll == floor].min())
    rest_points = _block_points(np.flatnonzero(rest), size)
    rest_ll = _log_likelihood(_grid_points(lo, hi, points, rest_points), powers, shots, hits)
    indices = np.concatenate([seed_points, rest_points])
    ll = np.concatenate([seed_ll, rest_ll])
    return int(indices[ll == ll.max()].min())


def check_counts(powers, shots, hits) -> None:
    """Raise InvariantError unless there are as many shot and hit weights as
    powers, each finite, with 0 <= hit <= shots; weights may be fractional."""
    if not len(powers) == len(shots) == len(hits):
        raise InvariantError(
            f"{len(powers)} powers, {len(shots)} shot counts and {len(hits)} hit counts"
        )
    for s, hit in zip(shots, hits):
        if not (math.isfinite(s) and math.isfinite(hit) and 0 <= hit <= s):
            raise InvariantError(f"hits {hit} of {s} shots: need finite 0 <= hits <= shots")


def max_likelihood_theta(powers, shots, hits, grid_points: int = 100_000) -> float:
    """Argmax of the fused likelihood over theta in [0, pi/2]: a dense grid
    of grid_points + 1 thetas, searched by `_likelihood_argmax`, then two
    rounds of local refinement, each the argmax of every point of a
    1001-point window two steps of the round before wide. Raises
    InvariantError on malformed counts (`check_counts`) or a likelihood
    that is not finite."""
    check_counts(powers, shots, hits)
    lo, hi = 0.0, math.pi / 2
    index = _likelihood_argmax(lo, hi, grid_points, powers, shots, hits)
    best = float(_grid_points(lo, hi, grid_points, index))
    step = (hi - lo) / grid_points
    for _ in range(2):
        lo, hi = max(0.0, best - step), min(math.pi / 2, best + step)
        grid = np.linspace(lo, hi, 1001)
        ll = _log_likelihood(grid, powers, shots, hits)
        index = int(np.argmax(ll))
        if not math.isfinite(ll[index]):
            raise InvariantError(f"log-likelihood {ll[index]} is not finite")
        best = float(grid[index])
        step = (hi - lo) / 1000
    return best


def theta_from_hits(powers, shots, hits) -> float:
    """Theta estimate from hit counts at each Grover power: 0 when every
    shot missed, pi/2 when every shot hit, else the likelihood maximum.
    Raises InvariantError on malformed counts (`check_counts`)."""
    check_counts(powers, shots, hits)
    if all(hit == 0 for hit in hits):
        return 0.0
    if all(hit == s for hit, s in zip(hits, shots)):
        return math.pi / 2
    return max_likelihood_theta(powers, shots, hits)


def check_shots_per_power(shots_per_power: int) -> None:
    """Raise PredicateError unless every Grover power gets at least one shot
    and the count fits the int64 that numpy's binomial draws take."""
    if shots_per_power < 1:
        raise PredicateError("shots_per_power must be >= 1")
    if shots_per_power > MAX_SHOTS_PER_POWER:
        raise PredicateError(f"shots_per_power must be at most 2^63 - 1, got {shots_per_power}")


def mlqae_estimate(p: float, schedule, shots_per_power: int, seed: int) -> QaeEstimate:
    """Maximum-likelihood amplitude estimation from sampled flag counts.

    p is the flag probability of A|0> (kept as `exact_p`), as
    `predicate_probability` computes it. For each Grover power m in the
    schedule the flag is measured `shots_per_power` times, with counts
    drawn from the amplified probability sin^2((2m+1) arcsin sqrt(p)), and
    all counts are fused into one likelihood.
    """
    schedule = tuple(int(m) for m in schedule)
    if not schedule:
        raise PredicateError("schedule must be non-empty")
    check_shots_per_power(shots_per_power)
    probs = amplified_probabilities(p, schedule)
    rng = np.random.default_rng(seed)
    hits = tuple(int(rng.binomial(shots_per_power, prob)) for prob in probs)
    shots = [shots_per_power] * len(schedule)
    theta = theta_from_hits(schedule, shots, hits)
    return QaeEstimate(
        p_hat=math.sin(theta) ** 2,
        theta_hat=theta,
        total_oracle_calls=oracle_calls(schedule, shots_per_power),
        schedule=schedule,
        shots_per_power=shots_per_power,
        hits=hits,
        exact_p=p,
    )


def exponential_schedule(max_exponent: int) -> tuple[int, ...]:
    """Powers 2^0 .. 2^max_exponent; the exponent is at most 61, since
    2^62 is past MAX_POWER."""
    if not 0 <= max_exponent <= 61:
        raise PredicateError(f"schedule exponent must be in [0, 61], got {max_exponent}")
    return tuple(1 << k for k in range(max_exponent + 1))
