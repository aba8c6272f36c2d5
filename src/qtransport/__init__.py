"""Simplified radiation transport as a quantum circuit, simulated exactly.

Build the transport circuit for a two-region problem, compute its final
state exactly at register level (`transport.transport_branches`),
check it against the classical dynamic-programming oracle and Monte Carlo,
estimate position probabilities by maximum-likelihood amplitude estimation,
and reproduce the logical-qubit budget arithmetic for practical instances.
"""

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    add_controls,
    compose,
    dump_circuit,
    inverse,
    parse_circuit,
)
from .classical_mc import (
    exact_distribution,
    expected_flights,
    run_history,
    run_tally,
)
from .errors import (
    CapacityError,
    InvariantError,
    PredicateError,
    ProblemFormatError,
    QTransportError,
)
from .qae import (
    Predicate,
    QaeEstimate,
    build_a_operator,
    build_flag_oracle,
    build_grover_operator,
    mlqae_estimate,
    predicate_probability,
)
from .resources import ResourceEstimate, circuit_budget, practical_estimate
from .transport import (
    RegionSpec,
    TransportProblem,
    build_controlled_adder,
    build_distribution_loader,
    build_region_flag,
    build_reaction_rotation,
    build_transport_circuit,
    sample,
    transport_branches,
    transport_distribution,
    transport_registers,
    transport_widths,
)

__version__ = "0.1.0"
