"""Diagonal constraint projectors, their support, and penalty Hamiltonians.

Every operator here is diagonal in the computational basis of the full
network, so products commute exactly and a projector is a boolean mask over
basis indices: true where the constraint allows the basis state.  A gate's
constraint is its `(2,)*m` truth table over its nodes, broadcast along their
axes of the `(2,)*n` basis tensor; a pin's is the one-node table of its value.
These broadcast tables are the whole constraint: a mask is their conjunction,
and a penalty Hamiltonian is `energy` times the number of them that are false
at each basis state.

The dense masks hold 2^n entries, so they refuse more than
`DEFAULT_NODE_LIMIT` nodes.  `support` lists the same allowed states without
them: it joins the gates' truth-table rows as int64 basis codes, so its cost
follows the size of the support, not 2^n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import node_bit
from .network import DEFAULT_NODE_LIMIT, Gate, Network, Pin, check_enumerable

DEFAULT_PENALTY = 1.0
# Basis codes are int64 with the first declared node as the top bit.
MAX_CODE_NODES = 62


@dataclass(frozen=True)
class ConstraintMask:
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


@dataclass(frozen=True)
class PenaltyHamiltonian:
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


def _broadcast(net: Network, nodes: tuple[str, ...],
               table: np.ndarray) -> np.ndarray:
    """`table` over `nodes`, with its axes moved to theirs in the basis tensor."""
    axes = [net.nodes.index(n) for n in nodes]
    shape = [2 if axis in axes else 1 for axis in range(net.n_nodes)]
    return table.transpose(np.argsort(axes)).reshape(shape)


def _gate_table(net: Network, gate: Gate) -> np.ndarray:
    """The gate's truth table, true on each row, broadcast over the network."""
    table = np.zeros((2,) * len(gate.nodes), dtype=bool)
    for ins, outs in gate.table.rows:
        table[tuple(map(int, ins + outs))] = True
    return _broadcast(net, gate.nodes, table)


def _pin_table(net: Network, pin: Pin) -> np.ndarray:
    """The pinned node's one-node table, true on its value, broadcast."""
    return _broadcast(net, (pin.node,), np.arange(2) == pin.value)


def _tables(net: Network, include_output_pins: bool) -> list[np.ndarray]:
    """Every gate's and input pin's broadcast table, and optionally output pins'."""
    tables = [_gate_table(net, g) for g in net.gates]
    tables += [_pin_table(net, p) for p in net.pins
               if p.kind == "input" or include_output_pins]
    return tables


def _conjunction(net: Network, tables: list[np.ndarray]) -> ConstraintMask:
    """True on each basis state that every broadcast table allows."""
    check_enumerable(net)
    bits = np.ones((2,) * net.n_nodes, dtype=bool)
    for table in tables:
        bits &= table
    return ConstraintMask(net.dim, bits.ravel())


def _penalty(net: Network, tables: list[np.ndarray],
             energy: float) -> PenaltyHamiltonian:
    """`energy` times the number of broadcast tables false at each state."""
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    check_enumerable(net)
    violated = np.zeros((2,) * net.n_nodes, np.min_scalar_type(len(tables)))
    for table in tables:
        violated += ~table
    return PenaltyHamiltonian(net.dim, energy * violated.ravel())


def gate_mask(net: Network, gate: Gate) -> ConstraintMask:
    """True where the gate's nodes carry a truth-table row."""
    return _conjunction(net, [_gate_table(net, gate)])


def pin_mask(net: Network, pin: Pin) -> ConstraintMask:
    """True where the pinned node carries the pinned value."""
    return _conjunction(net, [_pin_table(net, pin)])


def network_mask(net: Network, include_output_pins: bool = True) -> ConstraintMask:
    """Conjunction of all gate masks, input-pin masks, and optionally output pins."""
    return _conjunction(net, _tables(net, include_output_pins))


def gate_hamiltonian(net: Network, gate: Gate,
                     energy: float = DEFAULT_PENALTY) -> PenaltyHamiltonian:
    """Penalty `energy` on every basis state that violates the gate's table."""
    return _penalty(net, [_gate_table(net, gate)], energy)


def network_hamiltonian(net: Network, energy: float = DEFAULT_PENALTY,
                        include_output_pins: bool = False) -> PenaltyHamiltonian:
    """H_N: `energy` per gate and pin violated (output pins optional)."""
    return _penalty(net, _tables(net, include_output_pins), energy)


def ground_space(h: PenaltyHamiltonian) -> list[int]:
    """Sorted basis indices with zero energy."""
    return [int(k) for k in np.flatnonzero(h.energies == 0)]


def _enumerable_rows(rows: int) -> None:
    """Raise before a join or expansion materializes more rows than the limit."""
    if rows > 2 ** DEFAULT_NODE_LIMIT:
        raise ValueError(f"constrained support exceeds enumeration limit "
                         f"2^{DEFAULT_NODE_LIMIT} states")


def _join(rows: np.ndarray, table: np.ndarray, shared: int) -> np.ndarray:
    """Every `rows | t` for a table row t that agrees with the row on `shared` bits."""
    keys = table & shared
    order = np.argsort(keys)
    table, keys = table[order], keys[order]
    row_keys = rows & shared
    first = np.searchsorted(keys, row_keys, "left")
    counts = np.searchsorted(keys, row_keys, "right") - first
    total = int(counts.sum())
    _enumerable_rows(total)
    # The matching table rows of row i are table[first[i]:first[i] + counts[i]].
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(rows, counts) | table[np.repeat(first, counts) + offsets]


def support(net: Network, include_output_pins: bool = True) -> np.ndarray:
    """Ascending int64 basis codes of the states `network_mask` allows, read-only.

    The pins come first, as the one starting row, which holds the pinned
    bits: every join matches on them, so they filter each gate's truth-table
    rows.  The gate tables are joined one at a time, each time the one
    sharing the most unpinned nodes with those already joined (ties in
    declaration order); nodes that no gate or pin touches are expanded last.  No 2^n array is built: the limit is on the rows of each
    join and of the expansion, and on the 62 nodes that int64 codes hold.
    """
    n = net.n_nodes
    if n > MAX_CODE_NODES:
        raise ValueError(f"{n} nodes exceeds basis-code limit {MAX_CODE_NODES}")
    weight = {node: node_bit(net.nodes, node) for node in net.nodes}
    pins = [p for p in net.pins if p.kind == "input" or include_output_pins]
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
