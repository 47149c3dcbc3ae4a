"""Diagonal constraint projectors and the penalty Hamiltonians read from them.

Every operator here is diagonal in the computational basis of the full
network, so products commute exactly and a projector is a boolean mask over
basis indices: true where the constraint allows the basis state.  A gate's
mask is its `(2,)*m` truth table over its nodes, broadcast along their axes
of the `(2,)*n` basis tensor; a pin's is the one-node table of its value.  A
mask is the whole constraint; every penalty Hamiltonian is derived from one
by `mask_to_hamiltonian`, with its energy on the states the mask forbids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector
from .network import Gate, Network, Pin, check_enumerable

DEFAULT_PENALTY = 1.0


@dataclass(frozen=True)
class ConstraintMask:
    """Boolean diagonal indicator over basis indices (a projector A_i)."""

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


def _conjunction(net: Network, tables: list[np.ndarray]) -> ConstraintMask:
    """True on each basis state that every broadcast table allows."""
    check_enumerable(net)
    bits = np.ones((2,) * net.n_nodes, dtype=bool)
    for table in tables:
        bits &= table
    return ConstraintMask(net.dim, bits.ravel())


def gate_mask(net: Network, gate: Gate) -> ConstraintMask:
    """True where the gate's nodes carry a truth-table row."""
    return _conjunction(net, [_gate_table(net, gate)])


def pin_mask(net: Network, pin: Pin) -> ConstraintMask:
    """True where the pinned node carries the pinned value."""
    return _conjunction(net, [_pin_table(net, pin)])


def network_mask(net: Network, include_output_pins: bool = True) -> ConstraintMask:
    """Conjunction of all gate masks, input-pin masks, and optionally output pins."""
    tables = [_gate_table(net, g) for g in net.gates]
    tables += [_pin_table(net, p) for p in net.pins
               if p.kind == "input" or include_output_pins]
    return _conjunction(net, tables)


def gate_hamiltonian(net: Network, gate: Gate,
                     energy: float = DEFAULT_PENALTY) -> PenaltyHamiltonian:
    """Penalty `energy` on every basis state that violates the gate's table."""
    return mask_to_hamiltonian(gate_mask(net, gate), energy)


def pin_hamiltonian(net: Network, pin: Pin,
                    energy: float = DEFAULT_PENALTY) -> PenaltyHamiltonian:
    """Penalty `energy` wherever the pinned node disagrees with the pin."""
    return mask_to_hamiltonian(pin_mask(net, pin), energy)


def total_hamiltonian(hamiltonians: list[PenaltyHamiltonian],
                      dim: int | None = None) -> PenaltyHamiltonian:
    """Pointwise sum; the zero set is the intersection of the zero sets."""
    if not hamiltonians:
        if dim is None:
            raise ValueError("dim required for an empty sum")
        return PenaltyHamiltonian(dim, np.zeros(dim))
    d = hamiltonians[0].dim
    for h in hamiltonians:
        if h.dim != d:
            raise ValueError("Hamiltonian dimensions differ")
    return PenaltyHamiltonian(d, sum(h.energies for h in hamiltonians))


def expected_energy(v: StateVector, h: PenaltyHamiltonian) -> float:
    """<v|H|v> for a diagonal H."""
    if v.dim != h.dim:
        raise ValueError(f"state dim {v.dim} != Hamiltonian dim {h.dim}")
    return float(np.sum(h.energies * np.abs(v.amps) ** 2))


def ground_space(h: PenaltyHamiltonian) -> list[int]:
    """Sorted basis indices with zero energy."""
    return [int(k) for k in np.flatnonzero(h.energies == 0)]


def mask_to_hamiltonian(mask: ConstraintMask,
                        energy: float = DEFAULT_PENALTY) -> PenaltyHamiltonian:
    """The penalty Hamiltonian of a mask: `energy` off its support, zero on it."""
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    return PenaltyHamiltonian(mask.dim, np.where(mask.bits, 0.0, energy))


def network_hamiltonian(net: Network, energy: float = DEFAULT_PENALTY,
                        include_output_pins: bool = False) -> PenaltyHamiltonian:
    """H_N: sum of all gate and pin Hamiltonians (output pins optional)."""
    parts = [gate_hamiltonian(net, g, energy) for g in net.gates]
    parts += [pin_hamiltonian(net, p, energy) for p in net.pins
              if p.kind == "input" or include_output_pins]
    return total_hamiltonian(parts, dim=net.dim)
