"""One workload process: set up, run CLI commands in a closed loop, check them.

Started by run.py. The process imports qtransport from the checkout's
`src`, writes its seeded problem file, runs the first (cold) command and
reports the set-up time as measured from the moment run.py started it
(`--t0`, on the system-wide monotonic clock). In `measure` mode it then runs
warm commands back to back for `--seconds`. In `trace` mode each warm
command runs twice, untraced and then traced, so the tracing overhead
compares equal work.
Every command's output is checked against the DP oracle. The result is one
JSON object on the last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import tracemalloc  # noqa: E402

from qtransport import classical_mc, cli  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

# Per-layer time metrics: span name -> metric name.
SPAN_SECONDS = {
    "cli.load_problem": "cli.load_problem_s",
    "transport.build": "transport.build_s",
    "sim.apply": "sim.apply_s",
    "sim.compile": "sim.compile_s",
    "sim.marginal": "sim.marginal_s",
    "qae.grover": "qae.grover_s",
    "qae.exact_amplitude": "qae.exact_amplitude_s",
    "qae.mle": "qae.mle_s",
    "classical_mc.tally": "classical_mc.tally_s",
    "classical_mc.oracle": "classical_mc.oracle_s",
}
# Per-layer counts: (span name, count key) -> metric name, summed per command.
SPAN_COUNTS = {
    ("transport.build", "gates"): "transport.gate_count",
    ("transport.build", "qubits"): "transport.qubit_count",
    ("qae.grover", "q_applications"): "qae.q_applications",
    ("qae.mle", "grid_points"): "qae.mle_grid_points",
    ("qae.mlqae", "oracle_calls"): "qae.oracle_calls",
    ("classical_mc.tally", "histories"): "classical_mc.histories",
}
COUNT_METRICS = (*SPAN_COUNTS.values(), "sim.amp_updates", "sim.state_mib")


class Workload:
    def __init__(self, name: str, seed: int, directory: str):
        self.name, self.seed = name, seed
        self.problem_path = workloads.write_problem(name, seed, directory)
        self.problem = cli.parse_problem_dict(workloads.problem_doc(name, seed))
        self.out_path = os.path.join(directory, f"out-{os.getpid()}")
        self.failures: list[str] = []
        self.attempted = 0

    def argv(self, index: int) -> list[str]:
        return workloads.command_argv(self.name, self.seed, index, self.problem_path, self.out_path)

    def run(self, argv: list[str]) -> tuple[float, str | None]:
        """Wall time of one in-process CLI command, and its error if it failed."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except SystemExit as exc:
            error = f"exit code {exc.code}"
        except Exception as exc:  # a raw traceback is a failed command
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, error

    def oracle(self):
        return classical_mc.exact_distribution(self.problem)

    def check(self, argv: list[str], error: str | None, oracle, output=None) -> str | None:
        """Record and return the failure of a command, if any."""
        if error is None:
            try:
                if output is None:
                    output = workloads.read_output(self.name, self.out_path)
                error = workloads.check_output(self.name, argv, output, oracle, self.problem.boundary)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{argv[0]}: {error}")
        return error

    def selftest(self, argv: list[str], oracle) -> bool:
        """The check must reject a perturbed copy of a correct output."""
        output = workloads.read_output(self.name, self.out_path)
        bad = workloads.perturbed(self.name, output)
        return workloads.check_output(self.name, argv, bad, oracle, self.problem.boundary) is not None


def command_layers(spans, own, root: int) -> dict:
    """Per-layer metrics of one traced command (root span plus its oracle check)."""
    command = spans[root].command
    metrics = {name: 0.0 for name in SPAN_SECONDS.values()}
    for name in (*COUNT_METRICS, "sim.apply_peak_mib", "qae.grover_peak_mib"):
        metrics[name] = 0
    amp_seconds = 0.0
    for span in (s for s in spans if s.command == command):
        if span.name in SPAN_SECONDS:
            metrics[SPAN_SECONDS[span.name]] += span.seconds
        for key, value in span.counts.items():
            if (span.name, key) in SPAN_COUNTS:
                metrics[SPAN_COUNTS[(span.name, key)]] += value
        if "amp_updates" in span.counts:
            metrics["sim.amp_updates"] += span.counts["amp_updates"]
            metrics["sim.state_mib"] = max(
                metrics["sim.state_mib"], (tr.AMP_BYTES << span.counts["qubits"]) / tr.MIB)
            amp_seconds += span.seconds
        if span.name == "sim.apply":
            metrics["sim.apply_peak_mib"] = max(metrics["sim.apply_peak_mib"], span.peak_mib)
        if span.name == "qae.grover":
            metrics["qae.grover_peak_mib"] = max(metrics["qae.grover_peak_mib"], span.peak_mib)
    metrics["cli.self_s"] = own[root]
    metrics["sim.amp_updates_per_s"] = metrics["sim.amp_updates"] / amp_seconds if amp_seconds else 0.0
    tally_s = metrics["classical_mc.tally_s"]
    metrics["classical_mc.histories_per_s"] = metrics["classical_mc.histories"] / tally_s if tally_s else 0.0
    return metrics


def summarize_layers(tracer: tr.Tracer, roots: list[int]) -> tuple[dict, list[dict]]:
    """Median over traced commands; counts come from the first traced command
    so that they repeat exactly whatever the number of commands run."""
    own = tr.self_seconds(tracer.spans)
    per_command = [command_layers(tracer.spans, own, root) for root in roots]
    layers = {}
    for name in per_command[0]:
        if name in COUNT_METRICS:
            layers[name] = per_command[0][name]
        elif name.endswith("_peak_mib"):
            layers[name] = max(m[name] for m in per_command)
        else:
            layers[name] = statistics.median(m[name] for m in per_command)
    return layers, per_command


def command_kind(workload: str, argv: list[str]) -> str:
    if "--predicate" in argv:
        return f"{workload}/{argv[argv.index('--predicate') + 1]}"
    return workload


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, required=True, help="monotonic start time")
    args = parser.parse_args()

    work = Workload(args.workload, args.seed, args.dir)
    argv = work.argv(0)
    _, error = work.run(argv)
    setup_s = time.monotonic() - args.t0
    oracle = work.oracle()
    selftest = work.check(argv, error, oracle) is None and work.selftest(argv, oracle)

    cmd_s, traced_s = [], []
    tracer, roots = tr.Tracer(), []
    deadline = time.perf_counter() + args.seconds
    index = 1
    while time.perf_counter() < deadline:
        argv = work.argv(index)
        seconds, error = work.run(argv)
        if work.check(argv, error, work.oracle()) is None:
            cmd_s.append(seconds)
        if args.mode == "trace":
            tracemalloc.start()
            tracer.command = index
            tracer.install()
            root = tracer.open("cli.main")
            seconds, error = work.run(argv)
            tracer.close(root)
            tracer.uninstall()
            check_span = tracer.open("classical_mc.oracle")
            oracle = work.oracle()
            tracer.close(check_span)
            tracemalloc.stop()
            if work.check(argv, error, oracle) is None:
                traced_s.append(seconds)
                roots.append(root)
        index += 1

    result = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cmd_s": cmd_s,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "failures": work.failures[:10],
        "selftest": selftest,
    }
    if args.mode == "trace" and roots:
        tracer.write_jsonl(os.path.join(args.dir, "spans.jsonl"))
        layers, per_command = summarize_layers(tracer, roots)
        counts: dict[str, dict] = {}
        repeat = True
        for root, metrics in zip(roots, per_command):
            kind = command_kind(args.workload, work.argv(tracer.spans[root].command))
            mine = {name: metrics[name] for name in COUNT_METRICS}
            repeat &= counts.setdefault(kind, mine) == mine
        result.update(traced_cmd_s=traced_s, layers=layers, counts=counts, counts_repeat=repeat)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
