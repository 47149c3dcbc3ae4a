"""Watchdog-projection simulator for Boolean networks deployed in space.

A network of logically reversible gates is encoded as a diagonal constraint
projector and penalty Hamiltonian over qubit assignments; a continuous
projection ("watchdog") drive rotates a prepared ground state toward the
assignments that satisfy every constraint.  Each name is imported from the
module that defines it (`from statnet.protocol import run_protocol`); the
package root imports none of them.  Modules:

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
- errors: `StatnetError` and its typed subclasses
"""

__version__ = "0.1.0"
