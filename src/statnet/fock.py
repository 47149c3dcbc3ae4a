"""Identical particles: mode algebra, (anti)symmetrizers, the link Hamiltonian.

Each particle carries a binary internal degree of freedom ("spin" 0/1) and a
lattice-site label.  The canonical mode order is site-major with spin 0
before spin 1 inside each site; that order fixes every fermionic sign.
Every state has `hilbert`'s one layout, a C-order basis tensor.  A Fock
state's axes are `ModeBasis.mode_nodes`, last mode first: mode m is bit m.
A first-quantized state has one axis per particle, over the modes.  Both
projectors are the one sum (1/n!) sum_sigma sgn(sigma)^k P_sigma, with k = 0
for the symmetrizer and k = 1 for the antisymmetrizer.  With one particle
per site the spins behave as qubits (`qubit_first_quantized`).  The link
Hamiltonian is given by its diagonal over the six two-fermion states and
checked against its normal-ordered operator form.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .hilbert import StateVector, node_bit
from .record import Record

PROJECTOR_TOL = 1e-12


class ModeBasis(Record):
    """Ordered single-particle modes (spin, site) of distinct lattice sites."""

    sites: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites):
            raise ValueError(f"duplicate sites in {self.sites}")

    @property
    def n_modes(self) -> int:
        return 2 * len(self.sites)

    @property
    def mode_nodes(self) -> tuple[str, ...]:
        """Each mode's label f"{chi}{site}", last mode first: as the node
        order of a `StateVector`, mode m is bit m."""
        return tuple(f"{chi}{site}" for site in reversed(self.sites)
                     for chi in (1, 0))

    def mode_bit(self, chi: int, site: str) -> int:
        """The bit that mode (chi, site) sets in a configuration's code."""
        return node_bit(self.mode_nodes, f"{chi}{site}")

    def mode_index(self, chi: int, site: str) -> int:
        return self.mode_bit(chi, site).bit_length() - 1


def occupation_state(basis: ModeBasis,
                     modes: tuple[tuple[int, str], ...]) -> StateVector:
    """Basis configuration with the given modes occupied (canonical sign);
    the zero state if a mode is listed twice, as a†a† on it gives."""
    amps = np.zeros(2 ** basis.n_modes)
    bits = {basis.mode_bit(chi, site) for chi, site in modes}
    if len(bits) == len(modes):
        amps[sum(bits)] = 1.0
    return StateVector(basis.mode_nodes, amps)


def creation_matrix(basis: ModeBasis, chi: int, site: str) -> np.ndarray:
    """a†_(chi,site) as a matrix over the full occupation space.

    Jordan-Wigner: the sign is -1 to the number of occupied lower modes.
    """
    dim = 2 ** basis.n_modes
    bit = basis.mode_bit(chi, site)
    mat = np.zeros((dim, dim))
    for config in range(dim):
        if not config & bit:
            below = config & (bit - 1)
            mat[config | bit, config] = (-1) ** below.bit_count()
    return mat


class PermutationProjector(Record):
    """Symmetrizer or antisymmetrizer over an n-particle tensor basis."""

    matrix: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def trace(self) -> float:
        return float(np.trace(self.matrix))


def permutation_matrix(d: int, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """P_sigma on n d-state particles: particle slot i takes slot perm[i]."""
    dim = d ** n
    # Entry k of the transposed index tensor is the index whose digit i is
    # digit perm[i] of k.
    permuted = np.arange(dim).reshape((d,) * n).transpose(np.argsort(perm))
    mat = np.zeros((dim, dim))
    mat[permuted.ravel(), np.arange(dim)] = 1.0
    return mat


def _perm_sign(values: tuple[int, ...]) -> int:
    """The Levi-Civita symbol of `values`: the sign of the permutation that
    sorts them, which is -1 to the number of inversions, or 0 on a repeat."""
    return math.prod((a < b) - (a > b)
                     for a, b in itertools.combinations(values, 2))


def _projector(d: int, n: int, k: int) -> PermutationProjector:
    """(1/n!) sum_sigma sgn(sigma)^k P_sigma on n d-state particles."""
    mat = sum(_perm_sign(perm) ** k * permutation_matrix(d, n, perm)
              for perm in itertools.permutations(range(n)))
    return PermutationProjector(mat / math.factorial(n))


def symmetrizer_two() -> PermutationProjector:
    """(1 + P_12)/2 on two two-state particles (the triplet-state demo space)."""
    return _projector(2, 2, 0)


def antisymmetrizer(n: int) -> PermutationProjector:
    """Antisymmetrization projector for n particles on n sites (2n modes each)."""
    if n not in (2, 3):
        raise ValueError("only 2- and 3-particle antisymmetrizers are supported")
    return _projector(2 * n, n, 1)


def slater_vector(basis: ModeBasis, modes_ascending: tuple[int, ...]) -> np.ndarray:
    """First-quantization Slater determinant of the given mode indices."""
    shape = (basis.n_modes,) * len(modes_ascending)
    vec = np.zeros(math.prod(shape))
    norm = 1.0 / math.sqrt(math.factorial(len(shape)))
    for slots in itertools.permutations(modes_ascending):
        vec[np.ravel_multi_index(slots, shape)] += _perm_sign(slots) * norm
    return vec


def qubit_first_quantized(basis: ModeBasis, assignment: str) -> np.ndarray:
    """First-quantized state of one particle per site with the given spins."""
    modes = tuple(basis.mode_index(int(chi), site)
                  for chi, site in zip(assignment, basis.sites))
    return slater_vector(basis, modes)


_TWO_SITE_BASIS = ModeBasis(("r", "s"))
# (spin, site) pairs of the penalized states a..d, and of the number-operator
# products that penalize them.
_HRS_TERMS = (((0, "r"), (1, "r")), ((0, "s"), (1, "s")),
              ((0, "r"), (0, "s")), ((1, "r"), (1, "s")))


def fock_basis_two() -> dict[str, StateVector]:
    """The six antisymmetric two-fermion states on sites r, s."""
    b = _TWO_SITE_BASIS
    states = {x: occupation_state(b, pair) for x, pair in zip("abcd", _HRS_TERMS)}
    up, down = (occupation_state(b, ((chi, "r"), (1 - chi, "s"))).amps
                * (1 / math.sqrt(2)) for chi in (0, 1))
    states["e"] = StateVector(b.mode_nodes, up + down)
    states["f"] = StateVector(b.mode_nodes, up - down)
    return states


HRS_ORDER = ("a", "b", "c", "d", "e", "f")


def hrs_fock() -> np.ndarray:
    """Diagonal of the two-fermion link Hamiltonian in the (a..f) basis.

    Each of the four states a..d costs unit energy; e and f are its ground
    space.
    """
    return np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def second_quantized_hrs(sign: float = -1.0) -> np.ndarray:
    """The normal-ordered operator -sum a†a†aa as a matrix over Fock space.

    `sign` is the overall prefactor; -1 is the physical convention that makes
    the penalized states cost positive energy.
    """
    b = _TWO_SITE_BASIS
    dim = 2 ** b.n_modes
    h = np.zeros((dim, dim))
    for (chi_i, site_i), (chi_j, site_j) in _HRS_TERMS:
        ci = creation_matrix(b, chi_i, site_i)
        cj = creation_matrix(b, chi_j, site_j)
        h += sign * (ci @ cj @ ci.T @ cj.T)
    return h


def verify_second_quantization(sign: float = -1.0) -> bool:
    """Check the operator form reproduces the (a..f) diagonal exactly."""
    h = second_quantized_hrs(sign=sign)
    states = fock_basis_two()
    rep = np.array([[np.vdot(states[x].amps, h @ states[y].amps)
                     for y in HRS_ORDER] for x in HRS_ORDER])
    return bool(np.allclose(rep, np.diag(hrs_fock()), atol=PROJECTOR_TOL))
