"""Diagonal constraint projectors and the penalty Hamiltonians read from them.

Every operator here is diagonal in the computational basis of the full
network, so products commute exactly and a projector is a boolean mask over
basis indices: true where the constraint allows the basis state.  A mask is
the whole constraint; every penalty Hamiltonian is derived from one by
`mask_to_hamiltonian`, which puts a strictly positive energy on each state
the mask forbids and zero on each one it allows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, node_bit_values
from .network import Gate, Network, Pin

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


def _local_indices(net: Network, nodes: tuple[str, ...]) -> np.ndarray:
    """For every basis index, the sub-index formed by the given nodes' bits."""
    pos = {n: i for i, n in enumerate(net.nodes)}
    m = len(nodes)
    local = np.zeros(net.dim, dtype=np.int64)
    for j, node in enumerate(nodes):
        local |= node_bit_values(net.n_nodes, pos[node]) << (m - 1 - j)
    return local


def gate_mask(net: Network, gate: Gate) -> ConstraintMask:
    """True where the gate's nodes carry a truth-table row."""
    local = _local_indices(net, gate.nodes)
    allowed = {int(ins + outs, 2) for ins, outs in gate.table.rows}
    return ConstraintMask(net.dim, np.isin(local, sorted(allowed)))


def pin_mask(net: Network, pin: Pin) -> ConstraintMask:
    """True where the pinned node carries the pinned value."""
    pos = net.nodes.index(pin.node)
    return ConstraintMask(net.dim, node_bit_values(net.n_nodes, pos) == pin.value)


def network_mask(net: Network, include_output_pins: bool = True) -> ConstraintMask:
    """Conjunction of all gate masks, input-pin masks, and optionally output pins."""
    bits = np.ones(net.dim, dtype=bool)
    for g in net.gates:
        bits &= gate_mask(net, g).bits
    for p in net.pins:
        if p.kind == "output" and not include_output_pins:
            continue
        bits &= pin_mask(net, p).bits
    return ConstraintMask(net.dim, bits)


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
