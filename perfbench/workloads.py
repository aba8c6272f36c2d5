"""The three benchmark workloads: seeded problem files, CLI argv, output checks.

Every problem has the table-A1 shape (d_max 3, two regions) with strictly
positive pmfs, so gate counts do not depend on the seed; only the pmf
values and the absorption probabilities are drawn from it.

- exact_wide: `exact` on a 19-qubit circuit (x_qubits 5, 4 flights). One
  large dense statevector pass; the `sim` layer and its index plans dominate
  time and memory.
- qae_a1: `qae` on the 15-qubit table-A1-sized circuit with exp:6 and 100
  shots per power. A small circuit re-applied ~130 times (Grover powers);
  the command seed changes and the predicate cycles region2 / geq:8 / eq:5.
- mc_long: `mc --mode flowchart` with 1e6 histories on a 32-flight problem
  whose circuit would need 106 qubits. Never touches `sim` or `qae`, so it
  is the control for changes to those layers.

Each check compares a command's output file with the DP oracle
`classical_mc.exact_distribution` and returns None when the output is
correct, or a one-line reason when it is not.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

D_MAX = 3
WORKLOADS = ("exact_wide", "qae_a1", "mc_long")
# Problem shape per workload: (x_qubits, max_flights, boundary).
SHAPES = {
    "exact_wide": (5, 4, 4),
    "qae_a1": (4, 3, 4),
    "mc_long": (8, 32, 64),
}

QAE_PREDICATES = ("region2", "geq:8", "eq:5")
QAE_SCHEDULE = "exp:6"
QAE_POWERS = tuple(1 << k for k in range(7))
QAE_SHOTS_PER_POWER = 100
MC_SHOTS = 1_000_000

EXACT_TOL = 1e-9
# MLQAE with exp:6 and 100 shots per power lands within 2.5e-3 of p over 900
# seeded draws; an estimate off by more than this picked the wrong mode.
P_HAT_TOL = 0.05
# Per-bin MC test: 5 sigma, with adjacent bins pooled until the expected
# count reaches MC_POOL_MIN so the normal approximation behind 5 sigma holds
# (false-alarm rate ~1e-6 per pooled bin).
MC_SIGMAS = 5.0
MC_POOL_MIN = 100.0


def problem_doc(workload: str, seed: int) -> dict:
    """Problem JSON document for one workload, drawn from the workload seed."""
    x_qubits, max_flights, boundary = SHAPES[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    regions = []
    for _ in range(2):
        weights = rng.uniform(0.05, 1.0, D_MAX + 1)
        regions.append({
            "distance_pmf": [float(w) for w in weights / weights.sum()],
            "p_absorb": float(rng.uniform(0.1, 0.5)),
        })
    return {
        "x_qubits": x_qubits,
        "max_flights": max_flights,
        "boundary": boundary,
        "regions": regions,
    }


def write_problem(workload: str, seed: int, directory: str) -> str:
    path = os.path.join(directory, f"{workload}-{seed}.json")
    with open(path, "w") as handle:
        json.dump(problem_doc(workload, seed), handle, indent=2)
    return path


def command_argv(workload: str, seed: int, index: int, problem_path: str, out_path: str) -> list[str]:
    """CLI argv of the index-th command of a run."""
    command_seed = str(seed * 100_003 + index)
    if workload == "exact_wide":
        return ["exact", "-p", problem_path, "--out", out_path]
    if workload == "qae_a1":
        return [
            "qae", "-p", problem_path,
            "--predicate", QAE_PREDICATES[index % len(QAE_PREDICATES)],
            "--schedule", QAE_SCHEDULE,
            "--shots-per-power", str(QAE_SHOTS_PER_POWER),
            "--seed", command_seed, "--out", out_path,
        ]
    return [
        "mc", "-p", problem_path, "--shots", str(MC_SHOTS),
        "--seed", command_seed, "--mode", "flowchart", "--out", out_path,
    ]


def read_output(workload: str, out_path: str):
    """Parsed output file: a list of CSV rows, or the JSON report."""
    with open(out_path) as handle:
        if workload == "qae_a1":
            return json.load(handle)
        return list(csv.reader(handle))


def _predicate_mass(oracle: np.ndarray, predicate: str, boundary: int) -> float:
    """Oracle probability of a CLI predicate, written out independently of qae."""
    positions = np.arange(len(oracle))
    if predicate == "region2":
        mask = positions >= boundary
    elif predicate.startswith("geq:"):
        mask = positions >= int(predicate[4:])
    else:
        mask = positions == int(predicate[3:])
    return float(oracle[mask].sum())


def check_output(workload: str, argv: list[str], output, oracle: np.ndarray, boundary: int):
    """None if the command output agrees with the oracle, else the reason."""
    if workload == "exact_wide":
        return _check_exact(output, oracle)
    if workload == "qae_a1":
        return _check_qae(argv, output, oracle, boundary)
    return _check_mc(output, oracle)


def _check_exact(rows, oracle):
    if rows[0] != ["position", "probability"] or len(rows) != len(oracle) + 1:
        return "exact: wrong header or row count"
    got = np.array([float(r[1]) for r in rows[1:]])
    if [int(r[0]) for r in rows[1:]] != list(range(len(oracle))):
        return "exact: positions out of order"
    err = float(np.abs(got - oracle).max())
    if not err <= EXACT_TOL:
        return f"exact: marginal differs from oracle by {err:.3g}"
    return None


def _check_qae(argv, report, oracle, boundary):
    predicate = argv[argv.index("--predicate") + 1]
    seed = int(argv[argv.index("--seed") + 1])
    p = _predicate_mass(oracle, predicate, boundary)
    if report.get("predicate") != predicate or report.get("seed") != seed:
        return "qae: report does not echo predicate and seed"
    if report.get("schedule") != list(QAE_POWERS) or report.get("shots_per_power") != QAE_SHOTS_PER_POWER:
        return "qae: report does not echo schedule and shots"
    hits = report.get("hits")
    if len(hits) != len(QAE_POWERS) or not all(0 <= h <= QAE_SHOTS_PER_POWER for h in hits):
        return "qae: hit counts out of range"
    calls = QAE_SHOTS_PER_POWER * sum(2 * m + 1 for m in QAE_POWERS)
    if report.get("total_oracle_calls") != calls:
        return f"qae: total_oracle_calls {report.get('total_oracle_calls')} != {calls}"
    if not abs(report["exact_p"] - p) <= EXACT_TOL:
        return f"qae: exact_p {report['exact_p']!r} differs from oracle {p!r}"
    if not abs(report["p_hat"] - p) <= P_HAT_TOL:
        return f"qae: p_hat {report['p_hat']!r} too far from oracle {p!r}"
    if not abs(math.sin(report["theta_hat"]) ** 2 - report["p_hat"]) <= 1e-12:
        return "qae: p_hat is not sin^2(theta_hat)"
    return None


def _check_mc(rows, oracle):
    if rows[0] != ["position", "count", "frequency"] or len(rows) != len(oracle) + 1:
        return "mc: wrong header or row count"
    counts = np.array([int(r[1]) for r in rows[1:]])
    if counts.sum() != MC_SHOTS or (counts < 0).any():
        return f"mc: counts sum to {counts.sum()}, expected {MC_SHOTS}"
    if any(float(r[2]) != int(r[1]) / MC_SHOTS for r in rows[1:]):
        return "mc: frequency column is not count / shots"
    expected = oracle * MC_SHOTS
    if (counts[expected == 0] != 0).any():
        return "mc: histories landed where the oracle has zero mass"
    group_count, group_expected = 0, 0.0
    for k in range(len(oracle)):
        group_count += counts[k]
        group_expected += expected[k]
        if group_expected < MC_POOL_MIN and k + 1 < len(oracle):
            continue
        sigma = math.sqrt(group_expected * (1.0 - group_expected / MC_SHOTS))
        if abs(group_count - group_expected) > MC_SIGMAS * sigma + 1e-9:
            return (f"mc: bins ..{k} hold {group_count} histories, oracle expects "
                    f"{group_expected:.1f} +- {sigma:.1f}")
        group_count, group_expected = 0, 0.0
    return None


def perturbed(workload: str, output):
    """A copy of a correct output with one error the check must catch."""
    if workload == "exact_wide":
        rows = [list(r) for r in output]
        rows[1][1] = repr(float(rows[1][1]) + 1e-7)
        return rows
    if workload == "qae_a1":
        return {**output, "exact_p": output["exact_p"] + 1e-7}
    rows = [list(r) for r in output]
    moved = max(range(1, len(rows)), key=lambda i: int(rows[i][1]))
    shift = int(rows[moved][1]) // 20
    rows[moved][1] = str(int(rows[moved][1]) - shift)
    rows[moved + 1][1] = str(int(rows[moved + 1][1]) + shift)
    for i in (moved, moved + 1):
        rows[i][2] = repr(int(rows[i][1]) / MC_SHOTS)
    return rows
