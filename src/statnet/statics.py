"""Diagonal constraint projectors and penalty Hamiltonians.

Every operator here is diagonal in the computational basis of the full
network, so products commute exactly and a projector is just a 0/1 indicator
array.  A constraint Hamiltonian assigns a strictly positive penalty to each
basis state its mask forbids and zero to each one it allows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, node_bit_values
from .network import Gate, Network, Pin

DEFAULT_PENALTY = 1.0


@dataclass(frozen=True)
class ConstraintMask:
    """0/1 diagonal indicator over basis indices (a projector A_i)."""

    dim: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.shape != (self.dim,):
            raise ValueError(f"bits shape {bits.shape} != dim {self.dim}")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        bits = bits.astype(float)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

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
        local |= node_bit_values(net.n_nodes, pos[node], net.dim) << (m - 1 - j)
    return local


def gate_mask(net: Network, gate: Gate) -> ConstraintMask:
    """1 where the gate's nodes carry a truth-table row, 0 elsewhere."""
    local = _local_indices(net, gate.nodes)
    allowed = {int(ins + outs, 2) for ins, outs in gate.table.rows}
    bits = np.isin(local, sorted(allowed)).astype(float)
    return ConstraintMask(net.dim, bits)


def pin_mask(net: Network, pin: Pin) -> ConstraintMask:
    """1 where the pinned node carries the pinned value."""
    pos = net.nodes.index(pin.node)
    bits = (node_bit_values(net.n_nodes, pos, net.dim) == pin.value).astype(float)
    return ConstraintMask(net.dim, bits)


def network_mask(net: Network, include_output_pins: bool = True) -> ConstraintMask:
    """Conjunction of all gate masks, input-pin masks, and optionally output pins."""
    bits = np.ones(net.dim)
    for g in net.gates:
        bits = bits * gate_mask(net, g).bits
    for p in net.pins:
        if p.kind == "output" and not include_output_pins:
            continue
        bits = bits * pin_mask(net, p).bits
    return ConstraintMask(net.dim, bits)


def gate_hamiltonian(net: Network, gate: Gate, energy: float = DEFAULT_PENALTY,
                     overrides: dict[str, float] | None = None) -> PenaltyHamiltonian:
    """Penalty `energy` on every violating basis state, zero on table rows.

    `overrides` maps a violating local bit pattern over the gate's nodes
    (inputs then outputs) to its own penalty, mirroring per-state constants.
    """
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    overrides = overrides or {}
    for pattern, e in overrides.items():
        if e <= 0:
            raise ValueError(f"penalty for pattern {pattern!r} must be > 0")
    local = _local_indices(net, gate.nodes)
    mask = gate_mask(net, gate)
    m = len(gate.nodes)
    penalties = np.full(2 ** m, energy)
    for pattern, e in overrides.items():
        penalties[int(pattern, 2)] = e
    energies = np.where(mask.bits == 1, 0.0, penalties[local])
    return PenaltyHamiltonian(net.dim, energies)


def pin_hamiltonian(net: Network, pin: Pin,
                    energy: float = DEFAULT_PENALTY) -> PenaltyHamiltonian:
    """One-qubit pin Hamiltonian: excited when the node disagrees with the pin."""
    return one_qubit_hamiltonian(net.nodes, pin.node, excited_value=1 - pin.value,
                                 energy=energy)


def one_qubit_hamiltonian(node_order: tuple[str, ...], node: str,
                          excited_value: int, energy: float) -> PenaltyHamiltonian:
    """`energy` where the node bit equals `excited_value`, zero elsewhere."""
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    if excited_value not in (0, 1):
        raise ValueError("excited_value must be 0 or 1")
    pos = tuple(node_order).index(node)
    n = len(node_order)
    bits = node_bit_values(n, pos)
    energies = np.where(bits == excited_value, energy, 0.0)
    return PenaltyHamiltonian(2 ** n, energies)


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
    """The canonical penalty pairing of a mask: E on the complement of the support."""
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    return PenaltyHamiltonian(mask.dim, energy * (1.0 - mask.bits))


def network_hamiltonian(net: Network, energy: float = DEFAULT_PENALTY,
                        include_output_pins: bool = False) -> PenaltyHamiltonian:
    """H_N: sum of all gate and pin Hamiltonians (output pins optional)."""
    parts = [gate_hamiltonian(net, g, energy) for g in net.gates]
    parts += [pin_hamiltonian(net, p, energy) for p in net.pins
              if p.kind == "input" or include_output_pins]
    return total_hamiltonian(parts, dim=net.dim)
