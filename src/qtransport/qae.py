"""Amplitude estimation over the transport circuit.

The state-preparation operator A is the transport circuit followed by a
predicate oracle that flips a flag qubit (A's own, one past the transport
qubits and registered as "flag") when the position register satisfies the
predicate, so the flag's |1> probability is exactly the probability being
estimated. The Grover operator Q = A S0 A^-1 S_chi rotates that amplitude
within the plane spanned by the flagged and unflagged parts of A|0>, so
measuring the flag after Q^m A|0> sees probability sin^2((2m+1) theta)
with theta = arcsin sqrt(p). Estimation reads p from one exact pass of A
and takes the Grover-power probabilities from that closed form;
`build_grover_operator` is the gate-level Q the tests check it against.

Estimation is maximum-likelihood over a schedule of Grover powers: shot
counts at each power are fused into one likelihood over theta, maximized on
a dense grid with local refinement. Oracle-call accounting: each A or A^-1
counts as one call, so a shot at power m costs 2m+1 calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, compose, inverse, phase_shift, x
from .errors import InvariantError, PredicateError
from .sim import apply_inplace, flag_probability, zero_state
from .transport import TransportCircuit, TransportProblem, _region_flag_gates

GEQ, EQ, REGION2 = "geq", "eq", "region2"
MAX_POWER = (1 << 62) - 1  # largest Grover power m whose 2m+1 fits in an int64


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


def _resolve_threshold(pred: Predicate, problem: TransportProblem) -> Predicate:
    if pred.kind == REGION2:
        return Predicate.geq(problem.boundary)
    return pred


def predicate_mask(pred: Predicate, problem: TransportProblem) -> np.ndarray:
    """Boolean mask over position values selected by the predicate."""
    pred = _resolve_threshold(pred, problem)
    positions = np.arange(problem.position_count)
    if pred.kind == GEQ:
        _check_geq(pred.value, problem.x_qubits)
        return positions >= pred.value
    _check_eq(pred.value, problem.x_qubits)
    return positions == pred.value


def _check_geq(threshold, width: int) -> None:
    if threshold is None or threshold <= 0 or threshold & (threshold - 1):
        raise PredicateError(f"geq threshold must be a power of two, got {threshold}")
    if threshold >= (1 << width):
        raise PredicateError(f"geq threshold {threshold} not below 2^{width}")


def _check_eq(value, width: int) -> None:
    if value is None or not 0 <= value < (1 << width):
        raise PredicateError(f"eq value {value} outside the position register")


def build_flag_oracle(tc: TransportCircuit, pred: Predicate) -> Circuit:
    """Circuit flipping the flag iff the X register satisfies the predicate;
    the flag is a new qubit past the transport circuit, registered as "flag"."""
    pred = _resolve_threshold(pred, tc.problem)
    x_register, flag = tc.x_register, tc.circuit.qubit_count
    if pred.kind == GEQ:
        _check_geq(pred.value, len(x_register))
        gates = _region_flag_gates(x_register, pred.value, flag)
    else:
        _check_eq(pred.value, len(x_register))
        controls = [(q, bool((pred.value >> i) & 1)) for i, q in enumerate(x_register)]
        gates = [x(flag, controls)]
    return Circuit(flag + 1, tuple(gates), {**tc.registers, "flag": (flag,)})


def build_a_operator(tc: TransportCircuit, pred: Predicate) -> Circuit:
    """A = transport circuit then predicate oracle, on the oracle's qubits."""
    oracle = build_flag_oracle(tc, pred)
    return Circuit(oracle.qubit_count, tc.circuit.gates + oracle.gates, oracle.registers)


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


def exact_amplitude(a: Circuit) -> float:
    """Flag |1> probability of A|0>, bypassing estimation."""
    flag = _flag(a)
    amplitudes = zero_state(a.qubit_count)
    apply_inplace(amplitudes, a)
    return flag_probability(amplitudes, flag)


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


def _log_likelihood(theta: np.ndarray, powers, shots, hits) -> np.ndarray:
    # In place on two scratch buffers: on the 100 001-point grid each
    # temporary is 0.8 MB, and this loop sets the estimator's peak memory.
    tiny = 1e-300
    ll = np.zeros_like(theta)
    sin2 = np.empty_like(theta)
    term = np.empty_like(theta)
    for m, s, hit in zip(powers, shots, hits):
        np.multiply(2 * m + 1, theta, out=sin2)
        np.sin(sin2, out=sin2)
        np.square(sin2, out=sin2)
        if hit > 0:
            np.maximum(sin2, tiny, out=term)
            np.log(term, out=term)
            term *= hit
            ll += term
        if s - hit > 0:
            np.subtract(1.0, sin2, out=term)
            np.maximum(term, tiny, out=term)
            np.log(term, out=term)
            term *= s - hit
            ll += term
    return ll


def max_likelihood_theta(powers, shots, hits, grid_points: int = 100_000) -> float:
    """Argmax of the fused likelihood over theta in [0, pi/2]: dense grid
    then two rounds of local refinement."""
    lo, hi = 0.0, math.pi / 2
    points = grid_points
    best = 0.0
    for _ in range(3):
        grid = np.linspace(lo, hi, points + 1)
        ll = _log_likelihood(grid, powers, shots, hits)
        i = int(np.argmax(ll))
        best = float(grid[i])
        step = (hi - lo) / points
        lo, hi = max(0.0, best - step), min(math.pi / 2, best + step)
        points = 1000
    return best


def theta_from_hits(powers, shots, hits) -> float:
    """Theta estimate from hit counts at each Grover power: 0 when every
    shot missed, pi/2 when every shot hit, else the likelihood maximum."""
    if all(hit == 0 for hit in hits):
        return 0.0
    if all(hit == s for hit, s in zip(hits, shots)):
        return math.pi / 2
    return max_likelihood_theta(powers, shots, hits)


def check_shots_per_power(shots_per_power: int) -> None:
    """Raise PredicateError unless every Grover power gets at least one shot."""
    if shots_per_power < 1:
        raise PredicateError("shots_per_power must be >= 1")


def mlqae_estimate(a: Circuit, schedule, shots_per_power: int, seed: int) -> QaeEstimate:
    """Maximum-likelihood amplitude estimation from sampled flag counts.

    One exact pass of A gives the flag probability p (kept as `exact_p`).
    For each Grover power m in the schedule the flag is measured
    `shots_per_power` times, with counts drawn from the amplified
    probability sin^2((2m+1) arcsin sqrt(p)), and all counts are fused into
    one likelihood.
    """
    schedule = tuple(int(m) for m in schedule)
    if not schedule:
        raise PredicateError("schedule must be non-empty")
    check_shots_per_power(shots_per_power)
    exact_p = exact_amplitude(a)
    probs = amplified_probabilities(exact_p, schedule)
    rng = np.random.default_rng(seed)
    hits = tuple(int(rng.binomial(shots_per_power, p)) for p in probs)
    shots = [shots_per_power] * len(schedule)
    theta = theta_from_hits(schedule, shots, hits)
    return QaeEstimate(
        p_hat=math.sin(theta) ** 2,
        theta_hat=theta,
        total_oracle_calls=oracle_calls(schedule, shots_per_power),
        schedule=schedule,
        shots_per_power=shots_per_power,
        hits=hits,
        exact_p=exact_p,
    )


def exponential_schedule(max_exponent: int) -> tuple[int, ...]:
    """Powers 2^0 .. 2^max_exponent; the exponent is at most 61, since
    2^62 is past MAX_POWER."""
    if not 0 <= max_exponent <= 61:
        raise PredicateError(f"schedule exponent must be in [0, 61], got {max_exponent}")
    return tuple(1 << k for k in range(max_exponent + 1))
