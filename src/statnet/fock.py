"""Identical particles: mode algebra, (anti)symmetrizers, the link Hamiltonian.

Each particle carries a binary internal degree of freedom ("spin" 0/1) and a
lattice-site label.  The canonical mode order is site-major with spin 0
before spin 1 inside each site; that order fixes every fermionic sign in the
occupation-number representation.  With one particle per site the spins
behave as qubits (`qubit_first_quantized`).  The link Hamiltonian is given by
its diagonal over the six two-fermion states and checked against its
normal-ordered operator form.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .record import Record

PROJECTOR_TOL = 1e-12


class ModeBasis(Record):
    """Ordered single-particle modes (spin, site) for a list of lattice sites."""

    sites: tuple[str, ...]

    @property
    def n_modes(self) -> int:
        return 2 * len(self.sites)

    def mode_index(self, chi: int, site: str) -> int:
        return 2 * self.sites.index(site) + chi


class FockVector(Record):
    """Superposition over occupation configurations (bit m = mode m occupied)."""

    basis: ModeBasis
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (2 ** self.basis.n_modes,):
            raise ValueError(f"amps shape {amps.shape} does not match "
                             f"{self.basis.n_modes} modes")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def occupation_state(basis: ModeBasis, modes: tuple[tuple[int, str], ...],
                     amp: complex = 1.0) -> FockVector:
    """Basis configuration with the given modes occupied (canonical sign)."""
    amps = np.zeros(2 ** basis.n_modes, dtype=complex)
    config = 0
    for chi, site in modes:
        config |= 1 << basis.mode_index(chi, site)
    amps[config] = amp
    return FockVector(basis, amps)


def _parity_below(config: int, mode: int) -> int:
    """(-1)^(number of occupied modes with index < mode)."""
    return -1 if bin(config & ((1 << mode) - 1)).count("1") % 2 else 1


def creation_matrix(basis: ModeBasis, chi: int, site: str) -> np.ndarray:
    """a†_(chi,site) as a matrix over the full occupation space."""
    dim = 2 ** basis.n_modes
    m = basis.mode_index(chi, site)
    mat = np.zeros((dim, dim))
    for config in range(dim):
        if not config >> m & 1:
            mat[config | (1 << m), config] = _parity_below(config, m)
    return mat


class PermutationProjector(Record):
    """Symmetrizer or antisymmetrizer over an n-particle tensor basis."""

    matrix: np.ndarray

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def permutation_matrix(d: int, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """P_sigma on n d-state particles: particle slot i takes slot perm[i]."""
    dim = d ** n
    mat = np.zeros((dim, dim))
    strides = [d ** (n - 1 - i) for i in range(n)]
    for idx in range(dim):
        digits = [(idx // strides[i]) % d for i in range(n)]
        permuted = sum(digits[perm[i]] * strides[i] for i in range(n))
        mat[permuted, idx] = 1.0
    return mat


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symmetrizer_two() -> PermutationProjector:
    """(1 + P_12)/2 on two two-state particles (the triplet-state demo space)."""
    p12 = permutation_matrix(2, 2, (1, 0))
    return PermutationProjector(0.5 * (np.eye(4) + p12))


def antisymmetrizer(n: int) -> PermutationProjector:
    """Antisymmetrization projector for n particles on n sites (2n modes each)."""
    if n not in (2, 3):
        raise ValueError("only 2- and 3-particle antisymmetrizers are supported")
    d = 2 * n
    dim = d ** n
    mat = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        mat += _perm_sign(perm) * permutation_matrix(d, n, perm)
    mat /= math.factorial(n)
    return PermutationProjector(mat)


def slater_vector(basis: ModeBasis, modes_ascending: tuple[int, ...]) -> np.ndarray:
    """First-quantization Slater determinant of the given mode indices."""
    n = len(modes_ascending)
    d = basis.n_modes
    dim = d ** n
    vec = np.zeros(dim, dtype=complex)
    strides = [d ** (n - 1 - i) for i in range(n)]
    norm = 1.0 / math.sqrt(math.factorial(n))
    for perm in itertools.permutations(range(n)):
        idx = sum(modes_ascending[perm[i]] * strides[i] for i in range(n))
        vec[idx] += _perm_sign(perm) * norm
    return vec


def qubit_first_quantized(basis: ModeBasis, assignment: str) -> np.ndarray:
    """First-quantized state of one particle per site with the given spins."""
    modes = tuple(basis.mode_index(int(chi), site)
                  for chi, site in zip(assignment, basis.sites))
    return slater_vector(basis, modes)


_TWO_SITE_BASIS = ModeBasis(("r", "s"))


def fock_basis_two() -> dict[str, FockVector]:
    """The six antisymmetric two-fermion states on sites r, s."""
    b = _TWO_SITE_BASIS
    sqrt2 = np.sqrt(2.0)
    states = {
        "a": occupation_state(b, ((0, "r"), (1, "r"))),
        "b": occupation_state(b, ((0, "s"), (1, "s"))),
        "c": occupation_state(b, ((0, "r"), (0, "s"))),
        "d": occupation_state(b, ((1, "r"), (1, "s"))),
        "e": FockVector(b, (occupation_state(b, ((0, "r"), (1, "s"))).amps
                            + occupation_state(b, ((1, "r"), (0, "s"))).amps) / sqrt2),
        "f": FockVector(b, (occupation_state(b, ((0, "r"), (1, "s"))).amps
                            - occupation_state(b, ((1, "r"), (0, "s"))).amps) / sqrt2),
    }
    return states


HRS_ORDER = ("a", "b", "c", "d", "e", "f")


def hrs_fock() -> np.ndarray:
    """Diagonal of the two-fermion link Hamiltonian in the (a..f) basis.

    Each of the four states a..d costs unit energy; e and f are its ground
    space.
    """
    return np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


# (spin, site) pairs of the number-operator products, one per penalized state.
_HRS_TERMS = (((0, "r"), (1, "r")), ((0, "s"), (1, "s")),
              ((0, "r"), (0, "s")), ((1, "r"), (1, "s")))


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
