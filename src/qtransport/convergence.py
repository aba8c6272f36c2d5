"""Error-scaling experiment: classical tally vs MLQAE at matched budgets.

Both methods estimate the same predicate probability. The classical budget
is the shot count (one history = one oracle call); the quantum curve takes
one point per prefix of the Grover-power schedule, at that prefix's total
oracle calls. RMSE is taken across seeds at each budget, and scaling shows
up as the slope of log10(RMSE) against log10(budget): about -1/2 for the
classical tally, steeper for the likelihood-fused quantum estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classical_mc, qae
from .errors import InvariantError
from .transport import TransportProblem, build_transport_circuit


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
    problem: TransportProblem, pred: qae.Predicate, budgets, n_seeds: int
) -> list[ConvergencePoint]:
    """RMSE of the tally frequency of the predicate set, per shot budget."""
    if n_seeds < 1:
        raise InvariantError("need at least one seed")
    mask = qae.predicate_mask(pred, problem)
    p_true = exact_predicate_probability(problem, pred)
    points = []
    for bi, shots in enumerate(budgets):
        errors = []
        for si in range(n_seeds):
            tally = classical_mc.run_tally(problem, shots, derive_seed(si, bi, 0))
            errors.append(tally.frequencies()[mask].sum() - p_true)
        points.append(ConvergencePoint("classical", int(shots), float(np.sqrt(np.mean(np.square(errors))))))
    return points


def quantum_curve(
    problem: TransportProblem,
    pred: qae.Predicate,
    schedule,
    shots_per_power: int,
    n_seeds: int,
) -> list[ConvergencePoint]:
    """RMSE of MLQAE per schedule prefix, at that prefix's oracle-call budget.

    The flag probability of A|0> comes from one exact pass of A and the
    Grover-power probabilities from `qae.amplified_probabilities`; per seed
    only the shot counts and likelihood maximization are redrawn.
    """
    schedule = tuple(int(m) for m in schedule)
    if not schedule or n_seeds < 1:
        raise InvariantError("need a non-empty schedule and at least one seed")
    qae.check_shots_per_power(shots_per_power)
    a = qae.build_a_operator(build_transport_circuit(problem), pred)
    probs = qae.amplified_probabilities(qae.exact_amplitude(a), schedule)
    p_true = exact_predicate_probability(problem, pred)
    shots = [shots_per_power] * len(schedule)
    errors = np.zeros((n_seeds, len(schedule)))
    for si in range(n_seeds):
        rng = np.random.default_rng(derive_seed(si, 0, 1))
        hits = [int(rng.binomial(shots_per_power, p)) for p in probs]
        for prefix in range(1, len(schedule) + 1):
            theta = qae.theta_from_hits(schedule[:prefix], shots[:prefix], hits[:prefix])
            errors[si, prefix - 1] = math.sin(theta) ** 2 - p_true
    points = []
    for prefix in range(1, len(schedule) + 1):
        budget = qae.oracle_calls(schedule[:prefix], shots_per_power)
        rmse = float(np.sqrt(np.mean(errors[:, prefix - 1] ** 2)))
        points.append(ConvergencePoint("quantum", budget, rmse))
    return points


def loglog_slope(points: list[ConvergencePoint]) -> float:
    """Least-squares slope of log10(rmse) vs log10(budget)."""
    budgets = np.log10([p.budget for p in points])
    rmses = np.log10(np.maximum([p.rmse for p in points], 1e-300))
    return float(np.polyfit(budgets, rmses, 1)[0])
