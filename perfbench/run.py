"""qtransport benchmark: CLI workloads end to end, or one traced run per layer.

    python3 perfbench/run.py --workload exact_wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; qtransport is imported from `src`.
Each workload runs in its own single-threaded process (perfbench/worker.py)
that calls `qtransport.cli.main(argv)` in a closed loop: each command
starts when the previous one has finished and been checked against the DP
oracle.

With `--trace 0` the end-to-end metrics are reported:
- setup_s: process start, imports, problem generation and the first (cold)
  command; the median over PROCESSES fresh processes.
- cmd_s.p50 / cmd_s.p90: wall time of the warm commands, pooled over the
  PROCESSES processes, which run one after another for an equal share of
  `--seconds` each.
- peak_rss_mib: peak resident set of a workload process (median).
With `--trace 1` one process alternates untraced and traced runs of the same
commands and reports the per-layer metrics plus the tracing overhead.
Metric names and units come from BENCHMARK.json. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Spans of the traced run are written to perfbench/out/<workload>-<seed>/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact_wide", "qae_a1", "mc_long")
PROCESSES = 3
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_child(workload: str, seed: int, seconds: float, mode: str, directory: str, deadline: float) -> dict:
    """Start one worker process, wait for it, and return its result object."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--dir", directory, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **SINGLE_THREAD})
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{workload} {mode} process killed after the run limit"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} {mode} process exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    directory = os.path.join(HERE, "out", f"{workload}-{seed}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    if trace:
        children = [run_child(workload, seed, seconds, "trace", directory, deadline)]
    else:
        children = [run_child(workload, seed, seconds / PROCESSES, "measure", directory, deadline)
                    for _ in range(PROCESSES)]
    errors = [c["error"] for c in children if "error" in c]
    done = [c for c in children if "error" not in c]
    cmd_s = [t for c in done for t in c["cmd_s"]]
    summary = {
        "workload": workload,
        "attempted": sum(c["attempted"] for c in done) + len(errors),
        "failed": sum(c["failed"] for c in done) + len(errors),
        "failures": errors + [f for c in done for f in c["failures"]],
        "selftest": all(c["selftest"] for c in done),
        "commands": len(cmd_s),
        "metrics": {},
    }
    if errors or not cmd_s:
        return summary
    if not trace:
        summary["metrics"] = {
            "setup_s": statistics.median(c["setup_s"] for c in done),
            "cmd_s.p50": statistics.median(cmd_s),
            "cmd_s.p90": percentile(cmd_s, 90),
            "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in done),
        }
        return summary
    child = children[0]
    if not child.get("traced_cmd_s"):
        return summary
    traced = statistics.median(child["traced_cmd_s"])
    untraced = statistics.median(cmd_s)
    summary["metrics"] = {
        **child["layers"],
        "trace.cmd_s.p50": traced,
        "trace.untraced_cmd_s.p50": untraced,
        "trace.overhead": traced / untraced,
    }
    summary["commands"] = len(child["traced_cmd_s"])
    summary["counts"] = child["counts"]
    summary["counts_repeat"] = child["counts_repeat"]
    return summary


def baseline_counts() -> dict:
    with open(os.path.join(HERE, "baseline.json")) as handle:
        return json.load(handle)["counts"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qtransport", "cli.py")):
        print(f"error: no qtransport sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace), deadline) for w in selected]

    correct, metrics = True, {}
    known_counts = baseline_counts() if args.trace else {}
    for s in summaries:
        w = s["workload"]
        missing = sorted(set(units) - set(s["metrics"]))
        correct &= s["failed"] == 0 and s["selftest"] and not missing
        print(f"{w}: {s['attempted']} commands, failed_frac {s['failed'] / max(1, s['attempted']):.4g} "
              f"({s['failed']}/{s['attempted']}), checker self-test {'passed' if s['selftest'] else 'FAILED'}, "
              f"{s['commands']} {'traced' if args.trace else 'warm'} commands in the metrics")
        for failure in s["failures"]:
            print(f"{w}: FAILED {failure}")
        if missing:
            print(f"{w}: no value for {', '.join(missing)}")
        if args.trace and "counts" in s:
            drift = {k: v for k, v in s["counts"].items() if known_counts.get(k) != v}
            print(f"{w}: counts repeat within the run: {s['counts_repeat']}; "
                  f"match perfbench/baseline.json: {not drift}")
            for kind, counts in drift.items():
                print(f"{w}:   {kind} counts now {json.dumps(counts)}")
        for name, unit in units.items():
            if name in s["metrics"]:
                key = name if len(selected) == 1 else f"{w}.{name}"
                metrics[key] = {"value": s["metrics"][name], "unit": unit}
                print(f"{w}: {name} = {s['metrics'][name]:.6g} {unit}")
    if not metrics:
        print("error: no workload produced metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
