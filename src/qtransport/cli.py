"""Batch command-line front end.

Problems are JSON files (strict schema, unknown fields rejected);
distributions go out as CSV, row by row, estimates as JSON. Every command is
deterministic given its full flag set. Exit codes: 0 ok, 1 output (a file or
stdout) that cannot be written, 2 problem-file parse error, 3 invariant
violation, 4 engine capacity exceeded or an allocation refused, 5 bad predicate.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import stat
import sys

from . import classical_mc, convergence, qae, resources
from .circuit import dump_circuit
from .errors import (
    CapacityError,
    InvariantError,
    PredicateError,
    ProblemFormatError,
    QTransportError,
)
from .transport import (
    PRE_FLIGHT,
    POST_FLIGHT,
    RegionSpec,
    TransportProblem,
    build_transport_circuit,
    sample,
    transport_distribution,
)

EXIT_CODES = {
    ProblemFormatError: 2,
    InvariantError: 3,
    CapacityError: 4,
    PredicateError: 5,
}

_REGION_FIELDS = {"distance_pmf", "p_absorb"}
_PROBLEM_FIELDS = {
    "x_qubits",
    "max_flights",
    "boundary",
    "regions",
    "first_flight_always",
    "reaction_timing",
}


def _is_a(value, types) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(value, types) and not isinstance(value, bool)


def parse_problem_dict(doc) -> TransportProblem:
    """Validate the problem JSON document and build a TransportProblem."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    unknown = set(doc) - _PROBLEM_FIELDS
    if unknown:
        raise ProblemFormatError(f"unknown problem fields: {sorted(unknown)}")
    for name in ("x_qubits", "max_flights", "boundary"):
        if not _is_a(doc.get(name), int):
            raise ProblemFormatError(f"field {name!r} must be an integer")
    regions_doc = doc.get("regions")
    if not isinstance(regions_doc, list) or len(regions_doc) != 2:
        raise ProblemFormatError("field 'regions' must be a list of exactly two objects")
    regions = []
    for entry in regions_doc:
        if not isinstance(entry, dict):
            raise ProblemFormatError("each region must be a JSON object")
        unknown = set(entry) - _REGION_FIELDS
        if unknown:
            raise ProblemFormatError(f"unknown region fields: {sorted(unknown)}")
        pmf = entry.get("distance_pmf")
        if not isinstance(pmf, list) or not all(_is_a(p, (int, float)) for p in pmf):
            raise ProblemFormatError("region field 'distance_pmf' must be a list of numbers")
        if not _is_a(entry.get("p_absorb"), (int, float)):
            raise ProblemFormatError("region field 'p_absorb' must be a number")
        try:  # a JSON integer can be past float range
            pmf, p_absorb = tuple(float(p) for p in pmf), float(entry["p_absorb"])
        except OverflowError as exc:
            raise ProblemFormatError(f"region field is past float range: {exc}") from exc
        regions.append(RegionSpec(pmf, p_absorb))
    first = doc.get("first_flight_always", True)
    if not isinstance(first, bool):
        raise ProblemFormatError("field 'first_flight_always' must be a boolean")
    timing = doc.get("reaction_timing", PRE_FLIGHT)
    if timing not in (PRE_FLIGHT, POST_FLIGHT):
        raise ProblemFormatError(
            f"field 'reaction_timing' must be {PRE_FLIGHT!r} or {POST_FLIGHT!r}"
        )
    return TransportProblem(
        x_qubits=doc["x_qubits"],
        max_flights=doc["max_flights"],
        boundary=doc["boundary"],
        regions=tuple(regions),
        first_flight_always=first,
        reaction_timing=timing,
    )


def load_problem(path: str) -> TransportProblem:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"problem file is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError too, so caught before it
        raise ProblemFormatError(f"problem file is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ProblemFormatError(f"problem file has a number too long to read: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError("problem file nests too deeply to parse") from exc
    return parse_problem_dict(doc)


def _emit(write, out_path: str | None) -> None:
    """Run `write(handle)` on flushed stdout or on the `--out` file; a failed write exits 1.

    A failure of any kind once the file is open (a write, the formatting of a
    row, an interrupt) removes the file before it propagates, so no partial
    table is left behind. Only the regular file that was opened is removed,
    never a device, a FIFO or a symlink, and a failed removal is ignored so
    the first error keeps its exit code.
    """
    try:
        if out_path is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            handle = open(out_path, "w")
            opened = os.fstat(handle.fileno())
            try:
                with handle:
                    write(handle)
            except BaseException:
                with contextlib.suppress(OSError):
                    named = os.lstat(out_path)
                    if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, named):
                        os.remove(out_path)
                raise
    except OSError as exc:
        raise QTransportError(f"cannot write output file: {exc}") from exc


def _check_out(out_path: str | None) -> None:
    """Raise the error `_emit` raises for an output file that cannot be
    written, before any work and without creating anything: the path must
    not be a directory and must be writable, or, if it does not exist yet,
    its directory must exist and be writable."""
    if out_path is None:
        return
    directory = os.path.dirname(out_path) or os.curdir
    if os.path.exists(out_path):
        writable = not os.path.isdir(out_path) and os.access(out_path, os.W_OK)
    else:
        writable = os.access(directory, os.W_OK | os.X_OK)
    if not writable:
        raise QTransportError(f"cannot write output file: {out_path!r}")


def _table(header, rows):
    """The `write` for `_emit` of a CSV table, streamed row by row through the handle's buffer."""
    def write(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return write


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        if text.startswith("exp:"):
            return qae.exponential_schedule(int(text[len("exp:"):]))
        schedule = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PredicateError(f"bad schedule {text!r}; expected exp:K or m0,m1,...") from None
    return qae.check_powers(schedule)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvariantError(f"seed must be >= 0, got {seed}")


def cmd_exact(args) -> int:
    problem = load_problem(args.problem)
    if args.oracle:
        dist = classical_mc.exact_distribution(problem)
    else:
        dist = transport_distribution(problem)
    _emit(_table(("position", "probability"), enumerate(map(float, dist))), args.out)
    return 0


def cmd_mc(args) -> int:
    problem = load_problem(args.problem)
    if args.shots < 1:
        raise InvariantError("shots must be >= 1")
    _check_seed(args.seed)
    if args.mode == "flowchart":
        counts = classical_mc.run_tally(problem, args.shots, args.seed)
    else:
        counts = sample(transport_distribution(problem), args.shots, args.seed)
    rows = ((i, int(count), int(count) / args.shots) for i, count in enumerate(counts))
    _emit(_table(("position", "count", "frequency"), rows), args.out)
    return 0


def cmd_qae(args) -> int:
    problem = load_problem(args.problem)
    pred = qae.parse_predicate(args.predicate)
    schedule = _parse_schedule(args.schedule)
    qae.check_shots_per_power(args.shots_per_power)
    _check_seed(args.seed)
    p = qae.predicate_probability(problem, pred)
    estimate = qae.mlqae_estimate(p, schedule, args.shots_per_power, args.seed)
    report = estimate.to_dict()
    report["predicate"] = str(pred)
    report["exact_p"] = estimate.exact_p
    report["seed"] = args.seed
    text = json.dumps(report, indent=2) + "\n"
    _emit(lambda handle: handle.write(text), args.out)
    return 0


def cmd_resources(args) -> int:
    if (args.flights is None) == (args.problem is None):
        raise InvariantError("pass exactly one of --flights or --problem")
    if args.flights is not None:
        report = resources.practical_estimate(args.flights).to_dict()
    else:
        report = resources.circuit_budget(load_problem(args.problem))
    text = json.dumps(report, indent=2) + "\n"
    _emit(lambda handle: handle.write(text), args.out)
    return 0


def cmd_convergence(args) -> int:
    problem = load_problem(args.problem)
    pred = qae.parse_predicate(args.predicate)
    schedule = _parse_schedule(args.schedule)
    qae.check_shots_per_power(args.shots_per_power)
    try:
        budgets = tuple(int(part) for part in args.budgets.split(","))
    except ValueError:
        raise InvariantError(f"bad budget list {args.budgets!r}") from None
    if any(b < 1 for b in budgets):
        raise InvariantError("budgets must be >= 1")
    if args.seeds < 1:
        raise InvariantError("need at least one seed")
    qae.check_a_operator(problem, pred)
    # both curves are measured against the DP oracle's mass, computed once
    # after every check
    p_true = convergence.exact_predicate_probability(problem, pred)
    points = convergence.classical_curve(problem, pred, budgets, args.seeds, p_true)
    points += convergence.quantum_curve(
        problem, pred, schedule, args.shots_per_power, args.seeds, p_true
    )
    rows = ((p.method, p.budget, p.rmse) for p in points)
    _emit(_table(("method", "budget", "rmse"), rows), args.out)
    return 0


def cmd_dump_circuit(args) -> int:
    text = dump_circuit(build_transport_circuit(load_problem(args.problem)))
    _emit(lambda handle: handle.write(text), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qtransport",
        description="Simplified radiation-transport quantum-circuit toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, problem_required=True):
        p.add_argument("--problem", "-p", required=problem_required, help="problem JSON file")
        p.add_argument("--out", "-o", default=None, help="output file (default stdout)")

    p = sub.add_parser("exact", help="quantum position marginal (or DP oracle) as CSV")
    add_common(p)
    p.add_argument("--oracle", action="store_true", help="emit the DP oracle distribution instead")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("mc", help="Monte Carlo tally as CSV")
    add_common(p)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("flowchart", "circuit"), default="flowchart",
                   help="sample classical histories or the simulated circuit")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("qae", help="maximum-likelihood amplitude estimate as JSON")
    add_common(p)
    p.add_argument("--predicate", required=True, help="geq:K | eq:V | region2")
    p.add_argument("--schedule", default="exp:6", help="exp:K or m0,m1,...")
    p.add_argument("--shots-per-power", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_qae)

    p = sub.add_parser("resources", help="logical-qubit budget as JSON")
    add_common(p, problem_required=False)
    p.add_argument("--flights", type=int, default=None, help="use the closed-form practical budget")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("convergence", help="classical vs quantum RMSE scaling as CSV")
    add_common(p)
    p.add_argument("--predicate", required=True)
    p.add_argument("--budgets", default="100,1000,10000,100000", help="classical shot budgets")
    p.add_argument("--schedule", default="exp:6")
    p.add_argument("--shots-per-power", type=int, default=100)
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("dump-circuit", help="gate dump of the transport circuit")
    add_common(p)
    p.set_defaults(func=cmd_dump_circuit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except QTransportError as exc:
        for kind, code in EXIT_CODES.items():
            if isinstance(exc, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an array request refused outright (numpy's message names the
        # bytes); Python's own allocations raise it with no message
        print(f"error: {str(exc) or f'out of memory in {args.command}'}", file=sys.stderr)
        return EXIT_CODES[CapacityError]


if __name__ == "__main__":
    sys.exit(main())
