"""State vectors over an ordered-qubit tensor basis, stored on a set of basis codes.

Bit convention, shared by every module: a flat basis index (a basis code) is
the C-order ravel of the `(2,)*n` basis tensor whose axis i is the i-th
declared node, so the first declared node is the most significant bit.  A
state stores its amplitudes only on its `codes`, the ascending basis codes
outside which it is zero; by default that is all 2^n of them.  Amplitudes
are float64: the prepared ground state, every projection, drive factor and
rotation, the closed forms, and `fock`'s states and operators are real, so
no state needs a phase.  `node_bit` is the one place that turns a node (a
`fock` mode too) into its bit of a code, `probabilities` the one place that
turns amplitudes into probabilities, and `sum_probs` (with `sum_sq`/`norm`
on it) the one place where a mass or a norm of an array is summed.  The only
other sums are the short in-place sums of squares of the `dynamics` steppers
(a drive sector of fewer than 8 entries, the triplet's four amplitudes):
they run `sum_probs`'s left-to-right order on Python floats.
All values are immutable after construction and all operations are pure
functions.  Constructors always copy the caller's arrays and freeze the
copies, so no two states share an array.
"""
from __future__ import annotations

import math

import numpy as np

from .record import Record


def node_bit(node_order: tuple[str, ...], node: str) -> int:
    """The bit that `node` sets in a basis code of `node_order` (first = MSB)."""
    try:
        index = node_order.index(node)
    except ValueError:
        raise ValueError(f"unknown node {node!r}") from None
    return 1 << (len(node_order) - 1 - index)


def probabilities(amps: np.ndarray) -> np.ndarray:
    """a*a of each amplitude, for any shape."""
    return amps * amps


def sum_probs(probs: np.ndarray) -> np.ndarray:
    """The sum of probabilities along the last axis.

    `np.add.reduce` adds the terms in numpy's pairwise order: left to right
    below 8 terms, in eight interleaved partial sums up to 128, and by
    halves beyond.  That order is numpy's own on every build, where a BLAS
    dot product's is not.
    """
    return np.add.reduce(probs, axis=-1)


def sum_sq(x: np.ndarray) -> np.ndarray:
    """The sum of `probabilities(x)` along the last axis, by `sum_probs`."""
    return sum_probs(probabilities(x))


def norm(x: np.ndarray) -> float:
    """The 2-norm of a vector, the square root of `sum_sq`."""
    return math.sqrt(sum_sq(x))


def _checked_codes(codes, n_nodes: int) -> np.ndarray:
    """A copy of `codes`, which must be ascending basis codes of n nodes."""
    out = np.array(codes, dtype=np.int64)
    if out.ndim != 1 or (out.size and (out[0] < 0 or out[-1] >> n_nodes)) \
            or (np.diff(out) <= 0).any():
        raise ValueError(f"codes must be ascending basis codes of {n_nodes} nodes")
    return out


class StateVector(Record):
    """Amplitudes over the computational basis of the named nodes.

    `amps[i]` is the amplitude of basis code `codes[i]`; every other basis
    state has amplitude zero.  `codes` defaults to all 2^n codes.  Real
    amplitudes (float, int or bool) are stored as float64; complex ones are
    refused, as the cast would drop their imaginary parts.
    """

    node_order: tuple[str, ...]
    amps: np.ndarray
    codes: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.node_order)
        if len(set(self.node_order)) != n:
            raise ValueError(f"duplicate nodes in {self.node_order}")
        if self.codes is None:
            codes = np.arange(2 ** n, dtype=np.int64)
        else:
            codes = _checked_codes(self.codes, n)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        if np.iscomplexobj(self.amps):
            raise ValueError("amplitudes must be real")
        amps = np.array(self.amps, dtype=np.float64)
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
        return norm(self.amps)

    def sectors(self, node: str) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions in `amps` of the codes where `node` reads 0, and 1."""
        bit = self.codes & node_bit(self.node_order, node)
        return np.flatnonzero(bit == 0), np.flatnonzero(bit)


class SectorDiag(Record):
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
    amps = np.zeros(2 ** len(node_order))
    amps[basis_index(node_order, assignment)] = 1.0
    return StateVector(tuple(node_order), amps)


def reduced_diag(v: StateVector, node: str) -> SectorDiag:
    """Diagonal of the partial trace over all nodes but `node`."""
    sector0, sector1 = v.sectors(node)
    return SectorDiag(node, float(sum_sq(v.amps[sector0])),
                      float(sum_sq(v.amps[sector1])))
