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

Both evolutions walk the grid in one loop (`_walk_grid`), one list of Python
numbers per row, and repeat numpy's arithmetic operation for operation, so
they give a numpy step's bits.  `evolve` rescales the drive sectors of Python
complex numbers (`_rescale`).  The triplet's start and every coefficient of
its step are real, so its fixed point is written out over the four amplitudes
as Python floats, which carry the real parts of the complex iteration: the
imaginary parts it would add are zero.  A `Trajectory` is a set of columns:
the walk's rows become one amplitude matrix, and each diagnostic is computed
once over that matrix.  Per-row objects (`Trajectory.points`, `final_state`)
are built only when a caller asks for them.  A decision needs only the final
state of the diagonal-mask evolution; `final_amps` computes it from the
stepper's invariant, on numpy arrays, without a trajectory.

No reduction goes to BLAS, whose summation order depends on the build and
the CPU: every norm and mass is `hilbert.sum_sq`/`hilbert.norm`, a sum of
re*re + im*im in numpy's pairwise order, and every inner product a sum of
real products in that order (`_step_overlaps`).  numpy adds fewer than 8
terms left to right, so the stepper's short sums run that loop in place on
Python numbers.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDynamicsError
from .hilbert import StateVector, norm, sum_sq
from .record import Record, replace
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
# numpy adds fewer terms than this left to right (`hilbert.sum_sq`).
_PAIRWISE_FROM = 8
_LOST_SECTOR = ("drive demands mass in a sector that holds none and has no "
                "allowed state to refill")


class DriveSchedule(Record):
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


class TrajectoryPoint(Record):
    """One row of a `Trajectory`, as Python objects."""

    t: float
    state: StateVector
    p0: float
    p1: float
    alpha_sq: float
    beta_sq: float
    energy: float
    step_overlap: float


class Trajectory(Record):
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

    def __post_init__(self):
        # `beta_sq` is derived from `alpha_sq`, so it is not a field.
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
    raise DegenerateDynamicsError(_LOST_SECTOR)


def _rescale(amps: list[complex], sectors: tuple[list[int], list[int]],
             live: tuple[list[int], list[int]], targets: tuple[float, float],
             allowed: np.ndarray, leak_model: str) -> list[complex]:
    """Project onto `allowed`, and place each target mass on its drive sector,
    preserving direction and phase.

    `amps` and the result are lists of Python complex numbers; `sectors`
    holds the two sectors' positions in `amps`, `live` the allowed ones
    among them, and `allowed` is the boolean constraint mask.  A sector is
    scaled as numpy scales its projected component,
    `sqrt(target) * component / norm`: numpy divides a complex number by a
    real one as a product with the reciprocal, and a product with a real
    number, in numpy and in Python alike, adds only products with zero to
    each part, so a projected-out entry stays zero and only the live ones
    are scaled.  A demanded sector that carries no mass is refilled at
    `_refill_indices`, which raises when there is nowhere to refill.
    """
    out = [0j] * len(amps)
    for idx, positions, target in zip(sectors, live, targets):
        if target <= _MASS_EPS:
            continue
        if len(idx) < _PAIRWISE_FROM:
            # `sum_sq` adds so few terms left to right, as this loop does
            # (Python's `sum` compensates rounding from 3.12 on); a
            # projected-out entry would add a zero.
            total = 0.0
            for i in positions:
                z = amps[i]
                total += z.real * z.real + z.imag * z.imag
        else:
            # numpy's pairwise order groups the terms by position, zeros too.
            total = float(sum_sq(np.array(
                [amps[i] if allowed[i] else 0j for i in idx], dtype=complex)))
        length = math.sqrt(total)
        if length > _MASS_EPS:
            scale, inverse = math.sqrt(target), 1 / length
            for i in positions:
                out[i] = amps[i] * scale * inverse
        else:
            refill = _refill_indices(np.array(idx, dtype=np.int64), allowed,
                                     leak_model).tolist()
            value = complex(math.sqrt(target / len(refill)))
            for i in refill:
                out[i] = value
    return out


def _grid_times(schedule: DriveSchedule) -> np.ndarray:
    """The times after steps 1..n: k*dt, except that the last step ends at tau."""
    t = np.arange(1, schedule.n_steps() + 1) * schedule.dt
    t[-1] = schedule.tau
    return t


def _walk_grid(amps: np.ndarray, schedule: DriveSchedule, step):
    """Step over the schedule's grid from `amps`, keeping every row.

    `step(prev, targets)` takes the previous row as a list of Python numbers
    and returns the next one as such a list, for the sector targets at the
    step's end time: complex numbers, or floats when `amps` is real.  Returns
    the columns t, phi, the complex amplitude matrix (row 0 is `amps`) and
    step_overlap.
    """
    t = [0.0] + _grid_times(schedule).tolist()
    # `schedule.phi` without its range check: the grid lies in [0, tau].
    phi = [schedule._ramp(min(x / schedule.tau, 1.0), math) for x in t]
    rows, theta0 = [amps.tolist()], schedule.theta0
    for angle in phi[1:]:
        rows.append(step(rows[-1], _targets_at(theta0 + angle)))
    matrix = np.array(rows, dtype=complex)
    return np.array(t), np.array(phi), matrix, _step_overlaps(matrix)


def _step_overlaps(amps: np.ndarray) -> np.ndarray:
    """|<row k|row k-1>| for each row k of an amplitude matrix, and 1 at row 0.

    Term i of the inner product is conj(new_i) * prev_i, written out as real
    products (numpy's complex product may fuse them into one FMA on one CPU
    and not on another); each part is added in numpy's pairwise order, left
    to right below 8 entries, and the modulus is `hypot`, as Python's `abs`
    of a complex number takes it.
    """
    re, im = amps.real, amps.imag
    new_re, new_im, prev_re, prev_im = re[1:], im[1:], re[:-1], im[:-1]
    dot_re = np.add.reduce(new_re * prev_re + new_im * prev_im, axis=-1)
    dot_im = np.add.reduce(new_re * prev_im - new_im * prev_re, axis=-1)
    return np.concatenate(([1.0], np.hypot(dot_re, dot_im)))


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
    when the projection is and is not redundant).  The steps run on Python
    complex numbers and give the bits of the same steps on numpy arrays.  A
    caller that needs only the final state computes it with `final_amps`,
    without stepping.
    """
    if mask.bits.shape != psi0.amps.shape:
        raise ValueError("mask dimension mismatch")
    allowed = mask.bits if enforce_mask else np.ones(psi0.amps.size, dtype=bool)
    positions = psi0.sectors(drive_node)
    sectors = tuple(idx.tolist() for idx in positions)
    live = tuple(idx[allowed[idx]].tolist() for idx in positions)

    def step(prev, targets):
        return _rescale(prev, sectors, live, targets, allowed, leak_model)

    t, phi, amps, overlap = _walk_grid(psi0.amps, schedule, step)
    # Each column reduces a contiguous copy of its entries row by row, as a
    # one-dimensional sum of one row would.
    return Trajectory(
        schedule, psi0.node_order, psi0.codes, t, phi, amps,
        p0=sum_sq(amps.take(sectors[0], axis=1)),
        p1=sum_sq(amps.take(sectors[1], axis=1)),
        alpha_sq=sum_sq(amps.compress(mask.bits, axis=1)),
        energy=sum_sq(amps.compress(~mask.bits, axis=1)),
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
        length = norm(component)
        # Grid position (0-based) from which the sector holds the refill.
        emptied = -1
        if length > _MASS_EPS:
            emptied = int(empty[s].argmax()) if empty[s].any() else n
        # A later step refills the sector: raise where the stepper would,
        # even if the last step leaves it empty.
        if not empty[s, emptied + 1:].all():
            refill = _refill_indices(idx, allowed, leak_model)
        if empty[s, -1]:
            continue
        if emptied == n:
            final[idx] = math.sqrt(mass[s, -1]) * component / length
        else:
            final[refill] = math.sqrt(mass[s, -1] / refill.size)
    return final


# The closed forms' real amplitudes over |00>, |01>, |10>, |11>, from the
# cos c and sin s of the total angle theta+phi: floats, or arrays of one
# entry per angle, beside which the 0.0 entries broadcast.
def link_amps(c, s) -> list:
    """The link's closed form: c|01> + s|10>."""
    return [0.0, c, s, 0.0]


def triplet_amps(c, s) -> list:
    """The triplet's closed form, the product state (c|0> + s|1>)^(x)2."""
    return [c * c, s * c, s * c, s * s]


def closed_form_link(theta: float, phi: float) -> StateVector:
    """cos(theta+phi)|01> + sin(theta+phi)|10> on nodes (r, s)."""
    angle = theta + phi
    return StateVector(("r", "s"), np.array(
        link_amps(math.cos(angle), math.sin(angle)), dtype=complex))


def closed_form_triplet(theta: float, phi: float) -> StateVector:
    """The rotated symmetric two-particle state (a product state)."""
    angle = theta + phi
    return StateVector(("p1", "p2"), np.array(
        triplet_amps(math.cos(angle), math.sin(angle)), dtype=complex))


def q_rs_apply(phi: float, v: StateVector) -> StateVector:
    """Unitary rotation by phi in the (|01>, |10>) plane, identity elsewhere."""
    if (v.dim, v.amps.size) != (4, 4):
        raise ValueError("q_rs_apply acts on 2-qubit states")
    c, s = math.cos(phi), math.sin(phi)
    a00, a01, a10, a11 = v.amps.tolist()
    return StateVector(v.node_order,
                       [a00, c * a01 - s * a10, s * a01 + c * a10, a11])


def triplet_watchdog_demo(theta: float, schedule: DriveSchedule,
                          drive: str = "p1") -> Trajectory:
    """Two identical two-state particles under the symmetrizer watchdog.

    `drive` names the driven particle: "p1", "p2", or "both".  It is checked
    and otherwise unused: every step imposes the sector targets on the reduced
    diagonals of both particles, so the three choices give one trajectory.
    A sector that loses all its mass while its target is positive raises
    `DegenerateDynamicsError`; the demo space has no constraint to refill it
    from.  The fixed point runs, until a change below `_FIXPOINT_TOL`, on
    the four amplitudes as Python floats, in straight-line arithmetic with
    the operations of the same iteration on complex numpy arrays and so with
    its bits: every imaginary part stays zero.  It raises after
    `_FIXPOINT_MAX_ITER` iterations.  `alpha_sq` is min(|S row|^2, 1) for
    the symmetrizer S, the norm squared as a product.
    """
    if drive not in ("p1", "p2", "both"):
        raise ValueError("drive must be 'p1', 'p2', or 'both'")
    if not 0 < theta < math.pi / 2:
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    schedule = replace(schedule, theta0=theta)
    psi0 = closed_form_triplet(theta, 0.0)

    def step(current, targets):
        # The amplitudes of |00>, |01>, |10>, |11> as real floats: c is the
        # current iterate, u its symmetrized and normalised image, v after
        # the rescale of p1's sectors (0, 1) and (2, 3), w after p2's (0, 2)
        # and (1, 3).  Each sector becomes z * sqrt(target) * (1/norm), or
        # zero where its target is at most _MASS_EPS; every norm is a left
        # to right sum from 0.0, as `sum_sq` adds four entries.
        (t0, t1), (c00, c01, c10, c11) = targets, current
        on0, on1 = t0 > _MASS_EPS, t1 > _MASS_EPS
        root0, root1 = math.sqrt(t0), math.sqrt(t1)
        for _ in range(_FIXPOINT_MAX_ITER):
            mean = 0.5 * c01 + 0.5 * c10
            inverse = 1 / math.sqrt(0.0 + c00 * c00 + mean * mean
                                    + mean * mean + c11 * c11)
            u00, u01, u11 = c00 * inverse, mean * inverse, c11 * inverse
            u10 = u01
            v00 = v01 = v10 = v11 = w00 = w01 = w10 = w11 = 0.0
            if on0:
                length = math.sqrt(0.0 + u00 * u00 + u01 * u01)
                if not length > _MASS_EPS:
                    raise DegenerateDynamicsError(_LOST_SECTOR)
                inverse = 1 / length
                v00, v01 = u00 * root0 * inverse, u01 * root0 * inverse
            if on1:
                length = math.sqrt(0.0 + u10 * u10 + u11 * u11)
                if not length > _MASS_EPS:
                    raise DegenerateDynamicsError(_LOST_SECTOR)
                inverse = 1 / length
                v10, v11 = u10 * root1 * inverse, u11 * root1 * inverse
            if on0:
                length = math.sqrt(0.0 + v00 * v00 + v10 * v10)
                if not length > _MASS_EPS:
                    raise DegenerateDynamicsError(_LOST_SECTOR)
                inverse = 1 / length
                w00, w10 = v00 * root0 * inverse, v10 * root0 * inverse
            if on1:
                length = math.sqrt(0.0 + v01 * v01 + v11 * v11)
                if not length > _MASS_EPS:
                    raise DegenerateDynamicsError(_LOST_SECTOR)
                inverse = 1 / length
                w01, w11 = v01 * root1 * inverse, v11 * root1 * inverse
            d00, d01, d10, d11 = w00 - c00, w01 - c01, w10 - c10, w11 - c11
            if math.sqrt(0.0 + d00 * d00 + d01 * d01 + d10 * d10
                         + d11 * d11) < _FIXPOINT_TOL:
                return [w00, w01, w10, w11]
            c00, c01, c10, c11 = w00, w01, w10, w11
        raise DegenerateDynamicsError(
            f"symmetrizer fixed point did not converge in "
            f"{_FIXPOINT_MAX_ITER} iterations")

    # The rows stay real: closed_form_triplet is real, and so is every
    # coefficient of the step.
    t, phi, amps, overlap = _walk_grid(psi0.amps.real, schedule, step)
    # The symmetrizer (1 + P_12)/2 keeps |00> and |11> and gives |01> and
    # |10> the mean of the two: halving is exact above the subnormal range,
    # so the mean is the matrix product's value in any summation order.
    a00, a01, a10, a11 = amps.T
    mean = 0.5 * a01 + 0.5 * a10
    norms = np.sqrt(sum_sq(np.stack([a00, mean, mean, a11], axis=-1)))
    # Python's x ** 2 calls C pow, which is not always correctly rounded.
    alpha_sq = np.minimum(norms * norms, 1.0)
    sectors = psi0.sectors("p1")
    return Trajectory(
        schedule, psi0.node_order, psi0.codes, t, phi, amps,
        p0=sum_sq(amps.take(sectors[0], axis=1)),
        p1=sum_sq(amps.take(sectors[1], axis=1)),
        alpha_sq=alpha_sq, energy=1.0 - alpha_sq, step_overlap=overlap)


def singlet_amplitude(state: StateVector) -> complex:
    """Amplitude of the antisymmetric channel (|01> - |10>)/sqrt(2)."""
    return complex((state.amps[1] - state.amps[2]) / math.sqrt(2.0))
