"""Identical-particle picture: mode algebra, (anti)symmetrizers, qubit embedding.

Each particle carries a binary internal degree of freedom ("spin" 0/1) and a
lattice-site label.  The canonical mode order is site-major with spin 0
before spin 1 inside each site; that order fixes every fermionic sign in the
occupation-number representation.  When each site hosts exactly one particle
the spins behave as qubits, which is the bridge to the diagonal projectors of
the statics module.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

PROJECTOR_TOL = 1e-12


@dataclass(frozen=True)
class ModeBasis:
    """Ordered single-particle modes (spin, site) for a list of lattice sites."""

    sites: tuple[str, ...]

    @property
    def modes(self) -> tuple[tuple[int, str], ...]:
        return tuple((chi, site) for site in self.sites for chi in (0, 1))

    @property
    def n_modes(self) -> int:
        return 2 * len(self.sites)

    def mode_index(self, chi: int, site: str) -> int:
        return 2 * self.sites.index(site) + chi


@dataclass(frozen=True)
class FockVector:
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

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def vacuum(basis: ModeBasis) -> FockVector:
    amps = np.zeros(2 ** basis.n_modes, dtype=complex)
    amps[0] = 1.0
    return FockVector(basis, amps)


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


def create(basis: ModeBasis, chi: int, site: str, state: FockVector) -> FockVector:
    """Fermionic a†_(chi,site); doubly occupied creations vanish."""
    m = basis.mode_index(chi, site)
    out = np.zeros_like(state.amps)
    for config in np.flatnonzero(state.amps):
        config = int(config)
        if config >> m & 1:
            continue
        out[config | (1 << m)] += _parity_below(config, m) * state.amps[config]
    return FockVector(basis, out)


def creation_matrix(basis: ModeBasis, chi: int, site: str) -> np.ndarray:
    """a†_(chi,site) as a matrix over the full occupation space."""
    dim = 2 ** basis.n_modes
    m = basis.mode_index(chi, site)
    mat = np.zeros((dim, dim))
    for config in range(dim):
        if not config >> m & 1:
            mat[config | (1 << m), config] = _parity_below(config, m)
    return mat


@dataclass(frozen=True)
class PermutationProjector:
    """Symmetrizer or antisymmetrizer over an n-particle tensor basis."""

    n_particles: int
    dim_single: int
    matrix: np.ndarray
    kind: str  # "symmetrizer" | "antisymmetrizer"

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def permutation_matrix(dim_single: int, n_particles: int,
                       perm: tuple[int, ...]) -> np.ndarray:
    """P_sigma on the n-particle tensor basis: particle slot i takes slot perm[i]."""
    dim = dim_single ** n_particles
    mat = np.zeros((dim, dim))
    strides = [dim_single ** (n_particles - 1 - i) for i in range(n_particles)]
    for idx in range(dim):
        digits = [(idx // strides[i]) % dim_single for i in range(n_particles)]
        permuted = sum(digits[perm[i]] * strides[i] for i in range(n_particles))
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
    return PermutationProjector(2, 2, 0.5 * (np.eye(4) + p12), "symmetrizer")


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
    return PermutationProjector(n, d, mat, "antisymmetrizer")


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


def first_quantized(fv: FockVector, n_particles: int) -> np.ndarray:
    """Occupation-number superposition as an n-particle tensor-basis vector."""
    d = fv.basis.n_modes
    out = np.zeros(d ** n_particles, dtype=complex)
    for config in np.flatnonzero(fv.amps):
        config = int(config)
        occupied = tuple(m for m in range(d) if config >> m & 1)
        if len(occupied) != n_particles:
            raise ValueError(f"configuration {config:b} does not hold "
                             f"{n_particles} particles")
        out += fv.amps[config] * slater_vector(fv.basis, occupied)
    return out


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


def embed_qubit(basis: ModeBasis, config: int) -> str | None:
    """Qubit assignment of one occupation configuration, or None.

    Defined only when each site holds exactly one particle; the assignment
    maps each site to the spin of its particle.
    """
    spins = []
    for i, _site in enumerate(basis.sites):
        occ0 = config >> (2 * i) & 1
        occ1 = config >> (2 * i + 1) & 1
        if occ0 + occ1 != 1:
            return None
        spins.append("1" if occ1 else "0")
    if bin(config).count("1") != len(basis.sites):
        return None
    return "".join(spins)


def embed_state(fv: FockVector) -> np.ndarray | None:
    """Linear isometry from the one-particle-per-site sector to qubit amplitudes.

    Returns amplitudes over the 2^n_sites qubit basis (first site = MSB), or
    None if the state has support outside that sector.
    """
    n = len(fv.basis.sites)
    out = np.zeros(2 ** n, dtype=complex)
    for config in np.flatnonzero(fv.amps):
        assignment = embed_qubit(fv.basis, int(config))
        if assignment is None:
            return None
        out[int(assignment, 2)] += fv.amps[int(config)]
    return out


DEFAULT_HRS_PARAMS = {"E_a": 1.0, "E_b": 1.0, "E_c": 1.0, "E_d": 1.0}

HRS_ORDER = ("a", "b", "c", "d", "e", "f")


def hrs_fock(params: dict[str, float] | None = None) -> np.ndarray:
    """Diagonal of the two-fermion link Hamiltonian in the (a..f) basis."""
    p = dict(DEFAULT_HRS_PARAMS, **(params or {}))
    for key in ("E_a", "E_b", "E_c", "E_d"):
        if p[key] <= 0:
            raise ValueError(f"{key} must be > 0")
    return np.array([p["E_a"], p["E_b"], p["E_c"], p["E_d"], 0.0, 0.0])


# (spin, site) pairs of the number-operator products, one per penalized state.
_HRS_TERMS = {"E_a": ((0, "r"), (1, "r")), "E_b": ((0, "s"), (1, "s")),
              "E_c": ((0, "r"), (0, "s")), "E_d": ((1, "r"), (1, "s"))}


def second_quantized_hrs(params: dict[str, float] | None = None,
                         sign: float = -1.0) -> np.ndarray:
    """The normal-ordered operator -sum E a†a†aa as a matrix over Fock space.

    `sign` is the overall prefactor; -1 is the physical convention that makes
    the penalized states cost positive energy.
    """
    p = dict(DEFAULT_HRS_PARAMS, **(params or {}))
    b = _TWO_SITE_BASIS
    dim = 2 ** b.n_modes
    h = np.zeros((dim, dim))
    for key, ((chi_i, site_i), (chi_j, site_j)) in _HRS_TERMS.items():
        ci = creation_matrix(b, chi_i, site_i)
        cj = creation_matrix(b, chi_j, site_j)
        h += sign * p[key] * (ci @ cj @ ci.T @ cj.T)
    return h


def verify_second_quantization(params: dict[str, float] | None = None,
                               sign: float = -1.0) -> bool:
    """Check the operator form reproduces the (a..f) diagonal exactly."""
    h = second_quantized_hrs(params, sign=sign)
    states = fock_basis_two()
    diag = hrs_fock(params)
    rep = np.array([[np.vdot(states[x].amps, h @ states[y].amps)
                     for y in HRS_ORDER] for x in HRS_ORDER])
    return bool(np.allclose(rep, np.diag(diag), atol=PROJECTOR_TOL))


def gate_fock_hamiltonian(sites: tuple[str, ...],
                          rows: tuple[str, ...],
                          energy: float = 1.0) -> dict[int, float]:
    """Diagonal of a gate Hamiltonian over fixed-particle-number configurations.

    Every configuration without exactly one particle per site is penalized,
    as is every one-per-site configuration whose spin pattern is not a truth
    table row.  Keys are occupation bitmasks with popcount == number of sites.
    """
    if energy <= 0:
        raise ValueError("penalty energy must be > 0")
    basis = ModeBasis(sites)
    n = len(sites)
    diag = {}
    for occupied in itertools.combinations(range(basis.n_modes), n):
        config = sum(1 << m for m in occupied)
        assignment = embed_qubit(basis, config)
        if assignment is not None and assignment in rows:
            diag[config] = 0.0
        else:
            diag[config] = energy
    return diag
