"""Error-scaling experiment: classical tally vs MLQAE at matched budgets.

Both methods estimate the same predicate probability. The classical budget
is the shot count (one history = one oracle call); the quantum curve takes
one point per prefix of the Grover-power schedule, at that prefix's total
oracle calls. RMSE is taken across seeds at each budget, and scaling shows
up as the slope of log10(RMSE) against log10(budget): about -1/2 for the
classical tally, steeper for the likelihood-fused quantum estimator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical_mc, qae
from .errors import InvariantError
from .transport import TransportProblem


def derive_seed(*parts: int) -> int:
    """Stable independent seed for a tuple of indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class ConvergencePoint:
    method: str
    budget: int
    rmse: float


def exact_predicate_probability(problem: TransportProblem, pred: qae.Predicate) -> float:
    mask = qae.predicate_mask(pred, problem)
    return float(classical_mc.exact_distribution(problem)[mask].sum())


def classical_curve(
    problem: TransportProblem, pred: qae.Predicate, budgets, n_seeds: int, p_true: float
) -> list[ConvergencePoint]:
    """RMSE of the tally frequency of the predicate set, per shot budget,
    against p_true (`exact_predicate_probability`)."""
    if n_seeds < 1:
        raise InvariantError("need at least one seed")
    mask = qae.predicate_mask(pred, problem)
    points = []
    for bi, shots in enumerate(budgets):
        errors = []
        for si in range(n_seeds):
            counts = classical_mc.run_tally(problem, shots, derive_seed(si, bi, 0))
            errors.append((counts / shots)[mask].sum() - p_true)
        points.append(ConvergencePoint("classical", int(shots), float(np.sqrt(np.mean(np.square(errors))))))
    return points


def quantum_curve(
    problem: TransportProblem,
    pred: qae.Predicate,
    schedule,
    shots_per_power: int,
    n_seeds: int,
    p_true: float,
) -> list[ConvergencePoint]:
    """RMSE of MLQAE per schedule prefix, at that prefix's oracle-call
    budget, against p_true (`exact_predicate_probability`).

    The flag probability of A|0> comes from one exact pass of A
    (`qae.predicate_probability`); per seed and prefix `qae.mlqae_estimate`
    redraws the shot counts and maximizes the likelihood. Its stream gives
    a seed the same counts at the powers its prefixes share.
    """
    schedule = tuple(int(m) for m in schedule)
    if not schedule or n_seeds < 1:
        raise InvariantError("need a non-empty schedule and at least one seed")
    qae.check_shots_per_power(shots_per_power)
    p = qae.predicate_probability(problem, pred)
    points = []
    for prefix in range(1, len(schedule) + 1):
        estimates = [
            qae.mlqae_estimate(p, schedule[:prefix], shots_per_power, derive_seed(si, 0, 1))
            for si in range(n_seeds)
        ]
        errors = np.array([estimate.p_hat for estimate in estimates]) - p_true
        rmse = float(np.sqrt(np.mean(errors**2)))
        points.append(ConvergencePoint("quantum", estimates[0].total_oracle_calls, rmse))
    return points

