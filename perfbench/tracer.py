"""Per-layer spans recorded around calls into qtransport's public functions.

Nothing in the package is edited: `Tracer.install` replaces each listed
function by a timing wrapper in every qtransport module namespace that
holds it (so `qtransport.cli.build_transport_circuit` is wrapped along with
`qtransport.transport.build_transport_circuit`), and `uninstall` puts the
originals back. A span records its name, start, end, parent span, command
id, the tracemalloc peak above the traced bytes at its start, and counts
computed from the call's arguments or result. Spans stay in memory until
`write_jsonl`.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MIB = float(1 << 20)
AMP_BYTES = 16  # one complex128 amplitude


def _gates_x_states(circuit) -> int:
    return len(circuit.gates) << circuit.qubit_count


def _build_counts(call, result):
    return {"gates": len(result.circuit.gates), "qubits": result.circuit.qubit_count}


def _apply_counts(call, result):
    circuit = call.arguments["circuit"]
    return {"amp_updates": _gates_x_states(circuit), "qubits": circuit.qubit_count}


def _exact_amplitude_counts(call, result):
    a = call.arguments["a"]
    return {"amp_updates": _gates_x_states(a), "qubits": a.qubit_count}


def _grover_counts(call, result):
    a = call.arguments["a"]
    powers = list(call.arguments["powers"])
    q_applications = max(powers, default=0)
    # Q = S_chi A^-1 S0 A: 2|A| gates plus one for S_chi and three for S0.
    q_gates = 2 * len(a.gates) + 4
    applied = len(a.gates) + q_applications * q_gates
    return {
        "q_applications": q_applications,
        "amp_updates": applied << a.qubit_count,
        "qubits": a.qubit_count,
    }


def _mle_counts(call, result):
    # A dense grid of grid_points + 1 thetas, then two refinements of 1001.
    return {"grid_points": call.arguments["grid_points"] + 1 + 2 * 1001}


def _mlqae_counts(call, result):
    return {"oracle_calls": result.total_oracle_calls}


def _tally_counts(call, result):
    return {"histories": call.arguments["shots"]}


# (module, function, span name, counts from the bound call and its result)
LAYER_FUNCTIONS = (
    ("cli", "load_problem", "cli.load_problem", None),
    ("transport", "build_transport_circuit", "transport.build", _build_counts),
    ("transport", "transport_distribution", "transport.distribution", None),
    ("sim", "zero_state", "sim.zero_state", None),
    ("sim", "apply", "sim.apply", _apply_counts),
    ("sim", "marginal", "sim.marginal", None),
    ("qae", "build_a_operator", "qae.build_a", None),
    ("qae", "exact_amplitude", "qae.exact_amplitude", _exact_amplitude_counts),
    ("qae", "mlqae_estimate", "qae.mlqae", _mlqae_counts),
    ("qae", "grover_flag_probabilities", "qae.grover", _grover_counts),
    ("qae", "build_grover_operator", "qae.build_grover", None),
    ("qae", "max_likelihood_theta", "qae.mle", _mle_counts),
    ("classical_mc", "run_tally", "classical_mc.tally", _tally_counts),
    ("classical_mc", "exact_distribution", "classical_mc.oracle", None),
)
# Class methods wrapped in place: (module, class, method, span name).
LAYER_METHODS = (
    ("sim", "CompiledCircuit", "__init__", "sim.compile"),
)


@dataclass
class Span:
    name: str
    command: int
    parent: int | None
    start: float
    end: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def peak_mib(self) -> float:
        return (self.peak_bytes - self.base_bytes) / MIB


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.command = -1

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.peak_bytes = max(parent.peak_bytes, peak)
        tracemalloc.reset_peak()
        span = Span(name, self.command, self._stack[-1] if self._stack else None,
                    time.perf_counter(), base_bytes=current, peak_bytes=current)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
        if counts:
            span.counts = counts
        self._stack.pop()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)
        tracemalloc.reset_peak()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, original, name: str, counter):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            index = self.open(name)
            counts = None
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    counts = counter(call, result)
                return result
            finally:
                self.close(index, counts)

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a qtransport module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "qtransport" or n.startswith("qtransport.")]
        for module_name, function, span_name, counter in LAYER_FUNCTIONS:
            home = sys.modules.get(f"qtransport.{module_name}")
            original = getattr(home, function, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for module_name, cls_name, method, span_name in LAYER_METHODS:
            cls = getattr(sys.modules.get(f"qtransport.{module_name}"), cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is not None:
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span_name, None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        own = self_seconds(self.spans)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "command": span.command,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "self_s": own[index],
                    "peak_mib": span.peak_mib,
                    **span.counts,
                }) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own
