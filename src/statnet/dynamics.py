"""Discrete-time watchdog evolution and its closed-form references.

Each step projects the previous state onto the constrained subspace, splits
it by the drive node's bit, and rescales the two components to the scheduled
sector masses with positive real factors.  For diagonal masks that rescale is
the unique maximizer of |<new|prev>| among admissible states, so the phase
structure of the initial state is frozen exactly, and the link evolution
reproduces its closed form to machine precision at any step size.

The two-identical-particle demo replaces the mask with the symmetrizer.  The
symmetrizer does not commute with the sector projectors, so the step iterates
projection and rescale to their joint fixed point.  The drive target is
imposed on the reduced diagonals of both particles, whichever particle the
caller names as driven: a symmetric state has equal marginals, so the two
targets agree.  Rescaling only the named particle and leaving the other to
the symmetrizer lags the closed form by O(dt).

Both evolutions walk the grid in one loop (`_walk_grid`) and rescale the two
drive sectors in one routine (`_rescale`); they differ only in the projection
and in their diagnostics.  A `Trajectory` is a set of columns: the walk fills
one amplitude matrix, one row per grid point, and each diagnostic is computed
once over that matrix.  Per-row objects (`Trajectory.points`,
`final_state`) are built only when a caller asks for them.  A decision needs
only the final state of the diagonal-mask evolution; `final_amps` computes
it from the stepper's invariant, without a trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDynamicsError
from .fock import symmetrizer_two
from .hilbert import StateVector
from .statics import ConstraintMask

SCHEDULE_KINDS = ("linear-ramp", "cosine-ramp", "exponential-relax")

# Empty-sector threshold: below this the previous sector mass counts as zero.
_MASS_EPS = 1e-14
# The closed-form scan re-checks a numpy target exactly within this factor of
# _MASS_EPS, and every target once |theta0| + |phi_final| exceeds the limit:
# beyond it a few ulps of the angle are no longer far below the band's width
# in cos (about 5e-8).
_BAND = 4.0
_SCAN_ANGLE_LIMIT = 1e6
# Inner fixed-point iteration for non-diagonal projectors.
_FIXPOINT_TOL = 1e-15
_FIXPOINT_MAX_ITER = 500


@dataclass(frozen=True)
class DriveSchedule:
    """Rotation profile phi(t) applied on top of the initial angle theta0."""

    kind: str = "linear-ramp"
    theta0: float = 0.0
    phi_final: float = 0.0
    tau: float = 1.0
    dt: float = 1e-3

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("theta0", "phi_final", "tau", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.tau < self.dt:
            raise ValueError("tau must be >= dt")
        if not math.isfinite(self.tau / self.dt):
            raise ValueError("tau / dt must be finite")

    def phi(self, t: float) -> float:
        if not 0 <= t <= self.tau * (1 + 1e-9):
            raise ValueError(f"t={t} outside [0, {self.tau}]")
        return self._ramp(min(t / self.tau, 1.0), math)

    def _ramp(self, x, lib):
        """phi at the fractions x = t/tau, with the cos and exp of `lib`.

        `lib` is `math` for one time and numpy for an array of them.
        """
        if self.kind == "linear-ramp":
            return self.phi_final * x
        if self.kind == "cosine-ramp":
            return self.phi_final * 0.5 * (1.0 - lib.cos(math.pi * x))
        return self.phi_final * (1.0 - lib.exp(-5.0 * x))

    def n_steps(self) -> int:
        return max(1, round(self.tau / self.dt))


def schedule_targets(schedule: DriveSchedule, t: float) -> tuple[float, float]:
    """Target (p0, p1) sector masses for the drive node at time t."""
    return _targets_at(schedule.theta0 + schedule.phi(t))


def _targets_at(angle: float) -> tuple[float, float]:
    return math.cos(angle) ** 2, math.sin(angle) ** 2


@dataclass(frozen=True)
class TrajectoryPoint:
    """One row of a `Trajectory`, as Python objects."""

    t: float
    state: StateVector
    p0: float
    p1: float
    alpha_sq: float
    beta_sq: float
    energy: float
    step_overlap: float


@dataclass(frozen=True)
class Trajectory:
    """A recorded evolution as read-only columns; row k is the state at `t[k]`.

    `amps` is the (rows, stored states) amplitude matrix over `codes` of
    `node_order`.  `p0`/`p1` are the drive sector masses, `alpha_sq` the mass
    the watchdog allows, `beta_sq` the rest and `energy` its penalty;
    `step_overlap[k]` is |<row k|row k-1>| (1 at row 0).  `points` and
    `final_state` build per-row objects on demand.
    """

    schedule: DriveSchedule
    node_order: tuple[str, ...]
    codes: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    amps: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    alpha_sq: np.ndarray
    energy: np.ndarray
    step_overlap: np.ndarray
    beta_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "beta_sq", 1.0 - self.alpha_sq)
        for name in ("t", "phi", "amps", "p0", "p1", "alpha_sq", "energy",
                     "step_overlap", "beta_sq"):
            getattr(self, name).setflags(write=False)

    def state(self, k: int) -> StateVector:
        """The state at row k, as a new `StateVector` on a copy of `codes`."""
        return StateVector(self.node_order, self.amps[k], self.codes)

    @property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        columns = (self.t, self.p0, self.p1, self.alpha_sq, self.beta_sq,
                   self.energy, self.step_overlap)
        return tuple(
            TrajectoryPoint(t, self.state(k), p0, p1, a, b, e, o)
            for k, (t, p0, p1, a, b, e, o)
            in enumerate(zip(*(c.tolist() for c in columns))))

    @property
    def final_state(self) -> StateVector:
        return self.state(-1)


def _norm(x: np.ndarray) -> float:
    """`np.linalg.norm` of a complex vector: its operations, without its wrapper."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _refill_indices(idx: np.ndarray, allowed: np.ndarray,
                    leak_model: str) -> np.ndarray:
    """Where a drive sector that carries no mass is refilled, uniformly.

    The refill is an equal-phase superposition over the sector's allowed
    states; with the uniform-excited leak model, over every stored state of
    the sector when it has none (a prepared network stores the whole sector
    for this).  A sector that stores no state cannot be refilled.
    """
    constrained = idx[allowed[idx]]
    if constrained.size:
        return constrained
    if leak_model == "uniform-excited" and idx.size:
        return idx
    raise DegenerateDynamicsError(
        "drive demands mass in a sector that holds none and has no allowed "
        "state to refill")


def _rescale(amps: np.ndarray, sectors: tuple[np.ndarray, np.ndarray],
             targets: tuple[float, float], allowed: np.ndarray,
             leak_model: str) -> np.ndarray:
    """Place each target mass on its drive sector, preserving direction and phase.

    `sectors` holds the two sectors' positions in `amps`; `allowed` is the
    boolean constraint mask over the same positions.  A demanded sector that
    carries no mass is refilled at `_refill_indices`, which raises when there
    is nowhere to refill.
    """
    out = np.zeros(amps.size, dtype=complex)
    for idx, target in zip(sectors, targets):
        if target <= _MASS_EPS:
            continue
        component = amps[idx]
        norm = _norm(component)
        if norm > _MASS_EPS:
            out[idx] = math.sqrt(target) * component / norm
        else:
            refill = _refill_indices(idx, allowed, leak_model)
            out[refill] = math.sqrt(target / refill.size)
    return out


def _grid_times(schedule: DriveSchedule) -> np.ndarray:
    """The times after steps 1..n: k*dt, except that the last step ends at tau."""
    t = np.arange(1, schedule.n_steps() + 1) * schedule.dt
    t[-1] = schedule.tau
    return t


def _walk_grid(amps: np.ndarray, schedule: DriveSchedule, step):
    """Step over the schedule's grid from `amps`, keeping every row.

    `step(prev, targets)` returns the next amplitudes for the sector targets
    at the step's end time.  Returns the columns t, phi, the amplitude matrix
    (row 0 is `amps`) and step_overlap.
    """
    t = [0.0] + _grid_times(schedule).tolist()
    phi = [schedule.phi(x) for x in t]
    rows = np.empty((len(t), amps.size), dtype=complex)
    rows[0] = amps
    overlap = np.ones(len(t))
    for k in range(1, len(t)):
        prev = rows[k - 1]
        rows[k] = new = step(prev, _targets_at(schedule.theta0 + phi[k]))
        overlap[k] = abs(np.vdot(new, prev))
    return np.array(t), np.array(phi), rows, overlap


def evolve(psi0: StateVector, mask: ConstraintMask, drive_node: str,
           schedule: DriveSchedule, leak_model: str = "none",
           enforce_mask: bool = True) -> Trajectory:
    """Step the watchdog over the schedule's uniform time grid, keeping every row.

    The evolution acts on psi0's stored basis states (`psi0.codes`), and
    `mask` holds one entry per stored state.  Every projection and rescale
    is diagonal, so no amplitude leaves them; a caller that needs a refill
    outside the constrained states (the uniform-excited leak) stores them.
    `mask` always gives the diagnostics: `alpha_sq` is the mass on the states
    it allows and `energy` the mass on those it forbids, its penalty at unit
    energy.  Condition (i), the projection onto the mask, is only enforced
    when `enforce_mask` is set (the no-mask variant exists to demonstrate
    when the projection is and is not redundant).  A caller that needs only
    the final state computes it with `final_amps`, without stepping.
    """
    if mask.bits.shape != psi0.amps.shape:
        raise ValueError("mask dimension mismatch")
    sectors = psi0.sectors(drive_node)
    allowed = mask.bits if enforce_mask else np.ones(psi0.amps.size, dtype=bool)

    def step(prev, targets):
        return _rescale(prev * allowed, sectors, targets, allowed, leak_model)

    t, phi, amps, overlap = _walk_grid(psi0.amps, schedule, step)
    # Each column reduces a contiguous copy of its entries row by row, as a
    # one-dimensional sum of one row would.
    probs = np.abs(amps) ** 2
    return Trajectory(
        schedule, psi0.node_order, psi0.codes, t, phi, amps,
        p0=probs.take(sectors[0], axis=1).sum(axis=1),
        p1=probs.take(sectors[1], axis=1).sum(axis=1),
        alpha_sq=probs.compress(mask.bits, axis=1).sum(axis=1),
        energy=probs.compress(~mask.bits, axis=1).sum(axis=1),
        step_overlap=overlap)


def _grid_targets(schedule: DriveSchedule) -> np.ndarray:
    """The sector targets after steps 1..n as a (2, n) array, from arrays.

    Every entry lies on the same side of _MASS_EPS as `schedule_targets` at
    that step, and the last step holds its exact value.  numpy's cos and
    exp may differ from `math`'s in the last bits, so an entry within a factor
    of _BAND of _MASS_EPS is replaced by the exact scalar value.  That band is
    wide only while the angle rounds far below sqrt(_MASS_EPS); past
    _SCAN_ANGLE_LIMIT every step is evaluated exactly.
    """
    t = _grid_times(schedule)
    x = np.minimum(t / schedule.tau, 1.0)
    angle = schedule.theta0 + schedule._ramp(x, np)
    mass = np.stack([np.cos(angle) ** 2, np.sin(angle) ** 2])
    near = (mass > _MASS_EPS / _BAND) & (mass < _MASS_EPS * _BAND)
    near = near.any(axis=0)
    near[-1] = True
    if abs(schedule.theta0) + abs(schedule.phi_final) > _SCAN_ANGLE_LIMIT:
        near[:] = True
    for k in np.flatnonzero(near).tolist():
        mass[:, k] = schedule_targets(schedule, float(t[k]))
    return mass


def final_amps(psi0: np.ndarray, allowed: np.ndarray,
               sectors: tuple[np.ndarray, np.ndarray],
               schedule: DriveSchedule, leak_model: str) -> np.ndarray:
    """The amplitudes `evolve` reaches after its last step, without stepping.

    The arguments are those of the stepper: the initial amplitudes, the
    boolean mask it projects onto (all true without the projection), and
    the drive sectors' positions.  For diagonal masks each step multiplies a
    drive sector by a positive factor, so the sector keeps the direction of
    its component c_s of the projected psi0, and after step k the state is
    the sum over sectors of sqrt(p_s(t_k)) * c_s/|c_s|, until the sector's
    target first falls to at most _MASS_EPS.  From then on, or from the
    start when c_s is empty, the sector holds the uniform refill; a step
    that needs that refill where there is none raises
    `DegenerateDynamicsError`, as the stepper would.  Only the sector
    targets are scanned over the grid, as arrays (`_grid_targets`), so the
    cost does not grow with the step count beyond a few array passes.
    """
    mass = _grid_targets(schedule)
    empty = mass <= _MASS_EPS
    n = mass.shape[1]
    projected = psi0 * allowed
    final = np.zeros_like(psi0)
    for s, idx in enumerate(sectors):
        component = projected[idx]
        norm = _norm(component)
        # Grid position (0-based) from which the sector holds the refill.
        emptied = -1
        if norm > _MASS_EPS:
            emptied = int(empty[s].argmax()) if empty[s].any() else n
        # A later step refills the sector: raise where the stepper would,
        # even if the last step leaves it empty.
        if not empty[s, emptied + 1:].all():
            refill = _refill_indices(idx, allowed, leak_model)
        if empty[s, -1]:
            continue
        if emptied == n:
            final[idx] = math.sqrt(mass[s, -1]) * component / norm
        else:
            final[refill] = math.sqrt(mass[s, -1] / refill.size)
    return final


def link_amps(angle: float) -> list[float]:
    """Amplitudes of the link's closed form at total angle theta+phi."""
    return [0.0, math.cos(angle), math.sin(angle), 0.0]


def triplet_amps(angle: float) -> list[float]:
    """Amplitudes of the triplet's closed form at total angle theta+phi."""
    c, s = math.cos(angle), math.sin(angle)
    return [c * c, s * c, s * c, s * s]


def closed_form_link(theta: float, phi: float) -> StateVector:
    """cos(theta+phi)|01> + sin(theta+phi)|10> on nodes (r, s)."""
    return StateVector(("r", "s"),
                       np.array(link_amps(theta + phi), dtype=complex))


def closed_form_triplet(theta: float, phi: float) -> StateVector:
    """The rotated symmetric two-particle state (a product state)."""
    return StateVector(("p1", "p2"),
                       np.array(triplet_amps(theta + phi), dtype=complex))


def q_rs_apply(phi: float, v: StateVector) -> StateVector:
    """Unitary rotation by phi in the (|01>, |10>) plane, identity elsewhere."""
    if (v.dim, v.amps.size) != (4, 4):
        raise ValueError("q_rs_apply acts on 2-qubit states")
    c, s = math.cos(phi), math.sin(phi)
    q = np.array([[1, 0, 0, 0],
                  [0, c, -s, 0],
                  [0, s, c, 0],
                  [0, 0, 0, 1]], dtype=complex)
    return StateVector(v.node_order, q @ v.amps)


def triplet_watchdog_demo(theta: float, schedule: DriveSchedule,
                          drive: str = "p1") -> Trajectory:
    """Two identical two-state particles under the symmetrizer watchdog.

    `drive` names the driven particle: "p1", "p2", or "both".  It is checked
    and otherwise unused: every step imposes the schedule's sector targets on
    the reduced diagonals of both particles, so the three choices produce one
    and the same trajectory.  A sector that loses all its mass while its
    target is positive raises `DegenerateDynamicsError`; the demo space has no
    constraint to refill it from.
    """
    if drive not in ("p1", "p2", "both"):
        raise ValueError("drive must be 'p1', 'p2', or 'both'")
    if not 0 < theta < math.pi / 2:
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    schedule = replace(schedule, theta0=theta)
    sym = symmetrizer_two().matrix
    psi0 = closed_form_triplet(theta, 0.0)
    # The drive sectors of p1 and of p2; nothing is allowed as a refill.
    particles = (psi0.sectors("p1"), psi0.sectors("p2"))
    no_refill = np.zeros(4, dtype=bool)

    def step(prev: np.ndarray, targets: tuple[float, float]) -> np.ndarray:
        current = prev
        for _ in range(_FIXPOINT_MAX_ITER):
            nxt = sym @ current
            nxt = nxt / _norm(nxt)
            for sectors in particles:
                nxt = _rescale(nxt, sectors, targets, no_refill, "none")
            if _norm(nxt - current) < _FIXPOINT_TOL:
                return nxt
            current = nxt
        raise DegenerateDynamicsError(
            f"symmetrizer fixed point did not converge in "
            f"{_FIXPOINT_MAX_ITER} iterations")

    t, phi, amps, overlap = _walk_grid(psi0.amps, schedule, step)
    probs = np.abs(amps) ** 2
    alpha_sq = np.array([min(_norm(sym @ row) ** 2, 1.0) for row in amps])
    return Trajectory(
        schedule, psi0.node_order, psi0.codes, t, phi, amps,
        p0=probs.take(particles[0][0], axis=1).sum(axis=1),
        p1=probs.take(particles[0][1], axis=1).sum(axis=1),
        alpha_sq=alpha_sq, energy=1.0 - alpha_sq, step_overlap=overlap)


def singlet_amplitude(state: StateVector) -> complex:
    """Amplitude of the antisymmetric channel (|01> - |10>)/sqrt(2)."""
    return complex((state.amps[1] - state.amps[2]) / math.sqrt(2.0))
