"""Watchdog-projection simulator for Boolean networks deployed in space.

A network of logically reversible gates is encoded as a diagonal constraint
projector and penalty Hamiltonian over qubit assignments; a continuous
projection ("watchdog") drive rotates a prepared ground state toward the
assignments that satisfy every constraint.  Subpackages:

- hilbert: state vectors stored on basis codes, basis indexing, a node's
  drive sectors
- network: the gate/pin DSL, parsing, and a brute-force oracle
- statics: the support as a join of the truth tables, and the constraint
  masks and penalty counts scattered from it
- fock: fermionic mode algebra, (anti)symmetrizers, the link Hamiltonian
- dynamics: the watchdog stepper, drive schedules, closed forms
- protocol: prepare / drive / measure / decide with repetition statistics
- cli: the `statnet` command-line entry point
- record: the frozen-record base of every value type, and `replace`
"""
from .errors import (
    DegenerateDynamicsError,
    ParseError,
    StatnetError,
    UnpreparableNetworkError,
)
from .hilbert import (
    StateVector,
    basis_index,
    basis_state,
    index_assignment,
    reduced_diag,
)
from .network import (
    Gate,
    Network,
    Pin,
    TruthTable,
    brute_force_solutions,
    builtin_fig1,
    builtin_fig1_unsat,
    parse_network,
    render,
)
from .statics import (
    ConstraintMask,
    PenaltyHamiltonian,
    gate_hamiltonian,
    gate_mask,
    ground_space,
    network_hamiltonian,
    network_mask,
    pin_mask,
    support,
)
from .dynamics import (
    DriveSchedule,
    Trajectory,
    closed_form_link,
    closed_form_triplet,
    evolve,
    q_rs_apply,
    triplet_watchdog_demo,
)
from .protocol import (
    Preparation,
    ProtocolResult,
    prepare_ground,
    repetition_bound,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintMask",
    "DegenerateDynamicsError",
    "DriveSchedule",
    "Gate",
    "Network",
    "ParseError",
    "PenaltyHamiltonian",
    "Pin",
    "Preparation",
    "ProtocolResult",
    "StateVector",
    "StatnetError",
    "Trajectory",
    "TruthTable",
    "UnpreparableNetworkError",
    "basis_index",
    "basis_state",
    "brute_force_solutions",
    "builtin_fig1",
    "builtin_fig1_unsat",
    "closed_form_link",
    "closed_form_triplet",
    "evolve",
    "gate_hamiltonian",
    "gate_mask",
    "ground_space",
    "index_assignment",
    "network_hamiltonian",
    "network_mask",
    "parse_network",
    "pin_mask",
    "prepare_ground",
    "q_rs_apply",
    "reduced_diag",
    "render",
    "repetition_bound",
    "run_protocol",
    "support",
    "triplet_watchdog_demo",
]
