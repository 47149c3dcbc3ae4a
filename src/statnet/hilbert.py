"""State vectors over an ordered-qubit tensor basis, stored on a set of basis codes.

Bit convention, shared by every module: a flat basis index (a basis code) is
the C-order ravel of the `(2,)*n` basis tensor whose axis i is the i-th
declared node, so the first declared node is the most significant bit.  A
state stores its amplitudes only on its `codes`, the ascending basis codes
outside which it is zero; by default that is all 2^n of them.
`StateVector.sectors` is the one place that turns a node into positions.
All values are immutable after construction and all operations are pure
functions.  Constructors copy the caller's array and freeze the copy.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

# Code arrays already checked and frozen here, by id: a state built on
# another state's codes (each point of a recorded trajectory) shares them
# instead of copying and checking them again.  Entries go with their arrays.
_CHECKED_CODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=8)
def _all_codes(n_nodes: int) -> np.ndarray:
    """Every basis code of n nodes, read-only, shared by the states that store all."""
    codes = np.arange(2 ** n_nodes, dtype=np.int64)
    codes.setflags(write=False)
    _CHECKED_CODES[id(codes)] = codes
    return codes


def _checked_codes(codes, n_nodes: int) -> np.ndarray:
    """A frozen copy of `codes`, which must be ascending basis codes of n nodes."""
    out = np.array(codes, dtype=np.int64)
    if out.ndim != 1 or (out.size and (out[0] < 0 or out[-1] >> n_nodes)) \
            or (np.diff(out) <= 0).any():
        raise ValueError(f"codes must be ascending basis codes of {n_nodes} nodes")
    out.setflags(write=False)
    _CHECKED_CODES[id(out)] = out
    return out


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of the named nodes.

    `amps[i]` is the amplitude of basis code `codes[i]`; every other basis
    state has amplitude zero.  `codes` defaults to all 2^n codes.
    """

    node_order: tuple[str, ...]
    amps: np.ndarray
    codes: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.node_order)
        if len(set(self.node_order)) != n:
            raise ValueError(f"duplicate nodes in {self.node_order}")
        codes = self.codes
        if codes is None:
            codes = _all_codes(n)
            object.__setattr__(self, "codes", codes)
        elif _CHECKED_CODES.get(id(codes)) is not codes:
            codes = _checked_codes(codes, n)
            object.__setattr__(self, "codes", codes)
        amps = np.array(self.amps, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if amps.shape != codes.shape:
            raise ValueError(
                f"amplitude array of shape {amps.shape} does not match "
                f"{codes.size} basis codes of {n} nodes"
            )

    @property
    def dim(self) -> int:
        """The dimension of the full space, 2^n, stored or not."""
        return 2 ** self.n_nodes

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

    def sectors(self, node: str) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions in `amps` of the codes where `node` reads 0, and 1."""
        bit = (self.codes >> (self.n_nodes - 1 - self.node_position(node))) & 1
        return np.flatnonzero(bit == 0), np.flatnonzero(bit)


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


def reduced_diag(v: StateVector, node: str) -> SectorDiag:
    """Diagonal of the partial trace over all nodes but `node`."""
    sector0, sector1 = v.sectors(node)
    probs = np.abs(v.amps) ** 2
    p1 = float(probs[sector1].sum())
    p0 = float(probs[sector0].sum())
    return SectorDiag(node, p0, p1)
