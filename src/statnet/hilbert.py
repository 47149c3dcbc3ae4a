"""Dense state vectors over an ordered-qubit tensor basis.

Bit convention, shared by every module: a flat basis index is the C-order
ravel of the `(2,)*n` basis tensor whose axis i is the i-th declared node, so
the first declared node is the most significant bit.  `node_sectors` is the
one place that turns a node into basis indices.  All values are immutable
after construction and all operations are pure functions.  Constructors copy
the caller's array and freeze the copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of the named nodes."""

    node_order: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        if len(set(self.node_order)) != len(self.node_order):
            raise ValueError(f"duplicate nodes in {self.node_order}")
        amps = np.array(self.amps, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if amps.shape != (2 ** len(self.node_order),):
            raise ValueError(
                f"amplitude array of shape {amps.shape} does not match "
                f"{len(self.node_order)} nodes"
            )

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.node_order)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def node_position(self, node: str) -> int:
        try:
            return self.node_order.index(node)
        except ValueError:
            raise ValueError(f"unknown node {node!r}") from None


@dataclass(frozen=True)
class SectorDiag:
    """Diagonal of one node's reduced density matrix."""

    node: str
    p0: float
    p1: float


def basis_index(node_order: tuple[str, ...], assignment: str) -> int:
    """Basis index of a bitstring assignment (first node = MSB)."""
    if len(assignment) != len(node_order):
        raise ValueError(
            f"assignment {assignment!r} has length {len(assignment)}, "
            f"expected {len(node_order)}"
        )
    if not set(assignment) <= {"0", "1"}:
        raise ValueError(f"assignment {assignment!r} is not binary")
    return int(assignment, 2)


def index_assignment(node_order: tuple[str, ...], index: int) -> str:
    """Inverse of basis_index."""
    return format(index, f"0{len(node_order)}b")


def basis_state(node_order: tuple[str, ...], assignment: str) -> StateVector:
    """Unit amplitude on one computational basis vector."""
    amps = np.zeros(2 ** len(node_order), dtype=complex)
    amps[basis_index(node_order, assignment)] = 1.0
    return StateVector(tuple(node_order), amps)


def node_sectors(n_nodes: int, position: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending basis indices where the node at `position` reads 0, and 1."""
    axes = np.arange(2 ** n_nodes).reshape(2 ** position, 2, -1)
    return axes[:, 0].ravel(), axes[:, 1].ravel()


def reduced_diag(v: StateVector, node: str) -> SectorDiag:
    """Diagonal of the partial trace over all nodes but `node`."""
    sector0, sector1 = node_sectors(v.n_nodes, v.node_position(node))
    probs = np.abs(v.amps) ** 2
    p1 = float(probs[sector1].sum())
    p0 = float(probs[sector0].sum())
    return SectorDiag(node, p0, p1)
