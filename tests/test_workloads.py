"""The benchmark's output checks, run over many fixed seeds.

`perfbench/workloads.py` is loaded as it stands, without edits: each case
writes a workload's problem file, runs the workload's command through
`cli.main` in process into a temporary file, and holds the output to
`check_output` against the DP oracle, with the check's own tolerances. The
seeds are fixed; a seed that fails is a defect to report, not one to swap.
Once per workload the check must also reject `perturbed` output.
"""
import importlib.util
import os

import pytest

from qtransport.classical_mc import exact_distribution
from qtransport.cli import main, parse_problem_dict

from conftest import SRC

_PATH = os.path.join(os.path.dirname(SRC), "perfbench", "workloads.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# (workload, problem seed, command index); the command index sets the
# command seed and, for qae_a1, cycles the three predicates
CASES = (
    [("exact_wide", seed, 0) for seed in range(1, 6)]
    + [("qae_a1", seed, index) for seed in range(1, 21) for index in range(3)]
    + [("mc_long", seed, index) for seed in range(1, 21) for index in range(2)]
)


def run_workload(workload: str, seed: int, index: int, directory) -> tuple:
    """(argv, parsed output, oracle, boundary) of one benchmark command."""
    path = workloads.write_problem(workload, seed, str(directory))
    out = os.path.join(str(directory), "out")
    argv = workloads.command_argv(workload, seed, index, path, out)
    assert main(argv) == 0
    problem = parse_problem_dict(workloads.problem_doc(workload, seed))
    output = workloads.read_output(workload, out)
    return argv, output, exact_distribution(problem), problem.boundary


@pytest.mark.parametrize("workload, seed, index", CASES)
def test_output_passes_the_benchmark_check(workload, seed, index, tmp_path):
    argv, output, oracle, boundary = run_workload(workload, seed, index, tmp_path)
    assert workloads.check_output(workload, argv, output, oracle, boundary) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_rejects_a_perturbed_output(workload, tmp_path):
    argv, output, oracle, boundary = run_workload(workload, 1, 0, tmp_path)
    bad = workloads.perturbed(workload, output)
    assert workloads.check_output(workload, argv, bad, oracle, boundary) is not None
