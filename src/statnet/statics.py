"""Diagonal constraint projectors, their support, and penalty Hamiltonians.

Every operator here is diagonal in the computational basis of the full
network, so products commute exactly and a projector is a boolean mask over
basis indices: true where the constraint allows the basis state.  `support`
is the one statement of which states a set of gates and pins allows: it
joins the gates' truth-table rows as int64 basis codes, filtered by the
pinned bits, one broadcast OR per value of the nodes a table shares with
the rows, and expands the nodes none of them touches, so its cost follows
the size of the support, not 2^n.  Every dense mask scatters those codes
onto the 2^n basis: a gate's or pin's mask is the support of it alone, the
network mask that of all of them, and a penalty Hamiltonian is `energy`
times the number of single-constraint masks false at each basis state.

The dense masks hold 2^n entries, so they refuse more than
`DEFAULT_NODE_LIMIT` nodes; `support` does not build them.
"""
from __future__ import annotations

import numpy as np

from .hilbert import node_bit
from .network import DEFAULT_NODE_LIMIT, Gate, Network, Pin, check_enumerable
from .record import Record

DEFAULT_PENALTY = 1.0
# Basis codes are int64 with the first declared node as the top bit.
MAX_CODE_NODES = 62


class ConstraintMask(Record):
    """Boolean diagonal indicator (a projector A_i), one entry per basis state.

    The masks built here cover all 2^n basis indices; a prepared state's
    mask covers only the states it stores, and `dim` counts those.
    """

    dim: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.shape != (self.dim,):
            raise ValueError(f"bits shape {bits.shape} != dim {self.dim}")
        mask = bits.astype(bool)
        if not np.array_equal(mask, bits):
            raise ValueError("mask entries must be 0 or 1")
        mask.setflags(write=False)
        object.__setattr__(self, "bits", mask)

    def support(self) -> list[int]:
        return [int(k) for k in np.flatnonzero(self.bits)]

    def support_size(self) -> int:
        return int(self.bits.sum())


class PenaltyHamiltonian(Record):
    """Nonnegative diagonal energy array (an H_i)."""

    dim: int
    energies: np.ndarray

    def __post_init__(self):
        energies = np.array(self.energies, dtype=float)
        if energies.shape != (self.dim,):
            raise ValueError(f"energies shape {energies.shape} != dim {self.dim}")
        if (energies < 0).any():
            raise ValueError("penalty energies must be nonnegative")
        energies.setflags(write=False)
        object.__setattr__(self, "energies", energies)


def _chosen_pins(net: Network, include_output_pins: bool) -> tuple[Pin, ...]:
    """The input pins, and the output pins too if `include_output_pins`."""
    return tuple(p for p in net.pins
                 if p.kind == "input" or include_output_pins)


def _allowed(net: Network, gates: tuple[Gate, ...] = (),
             pins: tuple[Pin, ...] = ()) -> np.ndarray:
    """True at each basis state that all `gates` and `pins` allow: the codes
    of their `support`, scattered onto the 2^n basis."""
    check_enumerable(net)
    bits = np.zeros(net.dim, dtype=bool)
    bits[support(Network(net.nodes, gates, pins))] = True
    return bits


def _penalty(net: Network, gates: tuple[Gate, ...], pins: tuple[Pin, ...],
             energy: float) -> PenaltyHamiltonian:
    """`energy` times the number of `gates` and `pins` each state violates."""
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    check_enumerable(net)
    violated = np.zeros(net.dim, np.min_scalar_type(len(gates) + len(pins)))
    for gate in gates:
        violated += ~_allowed(net, (gate,))
    for pin in pins:
        violated += ~_allowed(net, pins=(pin,))
    return PenaltyHamiltonian(net.dim, energy * violated)


def gate_mask(net: Network, gate: Gate) -> ConstraintMask:
    """True where the gate's nodes carry a truth-table row."""
    return ConstraintMask(net.dim, _allowed(net, (gate,)))


def pin_mask(net: Network, pin: Pin) -> ConstraintMask:
    """True where the pinned node carries the pinned value."""
    return ConstraintMask(net.dim, _allowed(net, pins=(pin,)))


def network_mask(net: Network, include_output_pins: bool = True) -> ConstraintMask:
    """Conjunction of all gate masks, input-pin masks, and optionally output
    pins: the codes of `support`, scattered onto the 2^n basis."""
    return ConstraintMask(net.dim, _allowed(
        net, net.gates, _chosen_pins(net, include_output_pins)))


def gate_hamiltonian(net: Network, gate: Gate,
                     energy: float = DEFAULT_PENALTY) -> PenaltyHamiltonian:
    """Penalty `energy` on every basis state that violates the gate's table."""
    return _penalty(net, (gate,), (), energy)


def network_hamiltonian(net: Network, energy: float = DEFAULT_PENALTY,
                        include_output_pins: bool = False) -> PenaltyHamiltonian:
    """H_N: `energy` per gate and pin violated (output pins optional)."""
    return _penalty(net, net.gates, _chosen_pins(net, include_output_pins),
                    energy)


def ground_space(h: PenaltyHamiltonian) -> list[int]:
    """Sorted basis indices with zero energy."""
    return [int(k) for k in np.flatnonzero(h.energies == 0)]


def _enumerable_rows(rows: int) -> None:
    """Raise before a join or expansion materializes more rows than the limit."""
    if rows > 2 ** DEFAULT_NODE_LIMIT:
        raise ValueError(f"constrained support exceeds enumeration limit "
                         f"2^{DEFAULT_NODE_LIMIT} states")


def _join(rows: np.ndarray, table: np.ndarray, shared: int) -> np.ndarray:
    """Every `rows | t` for a table row t that agrees with the row on `shared`
    bits, one broadcast per distinct `shared` value of the table: each such
    group is a pass over `rows`, and the limit is checked before it is built."""
    keys, table_keys, parts, total = rows & shared, table & shared, [], 0
    for key in set(table_keys.tolist()):
        agrees, matches = rows[keys == key], table[table_keys == key]
        total += agrees.size * matches.size
        _enumerable_rows(total)
        parts.append((agrees[:, None] | matches).ravel())
    return np.concatenate(parts)


def support(net: Network, include_output_pins: bool = True) -> np.ndarray:
    """Ascending int64 basis codes of the states `network_mask` allows, read-only.

    The pins come first, as the one starting row of pinned bits: every join
    matches on them, so they filter each gate's truth-table rows.  The table
    sharing the most unpinned nodes with those joined (ties in declaration
    order) is joined next, one pass over the rows per value of the shared
    nodes; nodes that no gate or pin touches are expanded last.  No 2^n
    array is built: the limit is checked before each join group and the
    expansion are built, and int64 codes hold at most 62 nodes.
    """
    n = net.n_nodes
    if n > MAX_CODE_NODES:
        raise ValueError(f"{n} nodes exceeds basis-code limit {MAX_CODE_NODES}")
    weight = {node: node_bit(net.nodes, node) for node in net.nodes}
    pins = _chosen_pins(net, include_output_pins)
    pinned = sum(weight[p.node] for p in pins)
    pinned_code = sum(weight[p.node] for p in pins if p.value)

    tables = []
    for g in net.gates:
        nodes_mask = sum(weight[node] for node in g.nodes)
        codes = [sum(weight[node] for node, bit in zip(g.nodes, ins + outs)
                     if bit == "1") for ins, outs in g.table.rows]
        tables.append((nodes_mask, np.array(codes, dtype=np.int64)))

    rows, joined = np.array([pinned_code], dtype=np.int64), pinned
    while tables and rows.size:
        best = max(range(len(tables)), key=lambda i: (
            (tables[i][0] & joined & ~pinned).bit_count(), -i))
        nodes_mask, table = tables.pop(best)
        rows = _join(rows, table, joined & nodes_mask)
        joined |= nodes_mask

    free = [w for w in weight.values() if not w & joined]
    _enumerable_rows(rows.size << len(free))
    for w in free:
        rows = np.concatenate([rows, rows | w])
    rows = np.sort(rows)
    rows.setflags(write=False)
    return rows
