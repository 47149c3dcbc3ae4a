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

Both evolutions read one grid (`_grid`: t, phi, libm's cos and sin, and
the targets, one pass each) and repeat numpy's arithmetic operation for
operation on Python floats, so they give a numpy step's bits.  Every factor
of a step is real, so the amplitudes are float64 throughout.  Under a
diagonal mask a drive sector's next amplitudes depend only on its own
previous ones and its own target, so `evolve` walks each sector over all
steps on its own (`_walk_sector`) and writes its columns into the amplitude
matrix; a sector with one allowed state, as in the link, is a scalar
recurrence over one list of floats.  The symmetrizer couples the triplet's
four amplitudes, so its walk keeps one list per row and writes its fixed
point out over the four.  A `Trajectory` is a set of columns: each
diagnostic is computed once over the amplitude matrix.
Per-row objects (`Trajectory.points`, `final_state`) are built only when a
caller asks for them.  A decision needs only the final state of the
diagonal-mask evolution; `final_amps` computes it from the stepper's
invariant, on numpy arrays, without a trajectory.

No reduction goes to BLAS, whose summation order depends on the build and
the CPU: every norm and mass is `hilbert.sum_sq`/`hilbert.norm`, a sum of
squares in numpy's pairwise order, and every inner product a sum of
products in that order (`_step_overlaps`).  numpy adds fewer than 8
terms left to right, so the stepper's short sums run that loop in place on
Python numbers.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateDynamicsError
from .hilbert import StateVector, norm, sum_sq
from .record import Record, replace
from .statics import ConstraintMask

SCHEDULE_KINDS = ("linear-ramp", "cosine-ramp", "exponential-relax")
LEAK_MODELS = ("none", "uniform-excited")
DRIVES = ("p1", "p2", "both")

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

        `lib` is `math` for one time, and numpy or libm entry by entry
        (`_LIBM`) for an array of them.
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


def _libm(f):
    """`f` of `math` applied to each entry of an array, as a float array."""
    entrywise = np.frompyfunc(f, 1, 1)
    return lambda x: entrywise(x).astype(float)


# `DriveSchedule._ramp`'s `lib` for an array of times with libm's values:
# numpy's vector loops may round cos and exp differently.
_LIBM = SimpleNamespace(cos=_libm(math.cos), exp=_libm(math.exp))


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
    `node_order`.  `cos`/`sin` are libm's cos and sin of the total angle
    theta0 + phi.  `p0`/`p1` are the drive sector masses, `alpha_sq` the mass
    the watchdog allows, `beta_sq` the rest and `energy` its penalty;
    `step_overlap[k]` is |<row k|row k-1>| (1 at row 0).  `points` and
    `final_state` build per-row objects on demand.
    """

    schedule: DriveSchedule
    node_order: tuple[str, ...]
    codes: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    amps: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    alpha_sq: np.ndarray
    energy: np.ndarray
    step_overlap: np.ndarray

    def __post_init__(self):
        # `beta_sq` is derived from `alpha_sq`, so it is not a field.
        object.__setattr__(self, "beta_sq", 1.0 - self.alpha_sq)
        for name in ("t", "phi", "cos", "sin", "amps", "p0", "p1",
                     "alpha_sq", "energy", "step_overlap", "beta_sq"):
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


def check_leak_model(leak_model: str) -> None:
    """Raise unless `leak_model` is one of LEAK_MODELS."""
    if leak_model not in LEAK_MODELS:
        raise ValueError(f"unknown leak model {leak_model!r}")


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


def _walk_sector(first: np.ndarray, idx: np.ndarray, allowed: np.ndarray,
                 leak_model: str, targets: list) -> tuple:
    """One drive sector's amplitudes after steps 1..n, as (positions, values).

    `first` is row 0, `idx` the sector's positions in it, `allowed` the
    boolean constraint mask and `targets` the sector's target mass after
    each step.  Each step projects the previous row onto `allowed` and
    scales it as numpy scales the projected component,
    `component * sqrt(target) * (1 / norm)`, or to 0.0 where the target is
    at most _MASS_EPS; a component without mass is refilled at
    `_refill_indices`, which raises when there is nowhere to refill.  The
    sector's other entries are zero after step 1, and `values` is the
    (n, positions) block of the amplitude matrix: a flat list when one
    state is allowed, which makes the step a scalar recurrence.
    """
    live = idx[allowed[idx]]
    if not live.size:
        # No mass to keep: every step that demands some refills the sector.
        mass = np.array(targets)
        demanded = mass > _MASS_EPS
        if not demanded.any():
            return live, 0.0
        refill = _refill_indices(idx, allowed, leak_model)
        column = np.where(demanded, np.sqrt(mass / refill.size), 0.0)
        return refill, column[:, None]
    roots = np.sqrt(targets).tolist()
    if live.size == 1:
        # The norm of one entry is sqrt(z * z) whatever the sector's length:
        # the pairwise sum of a single square and zeros is that square.
        z, column = float(first[live[0]]), []
        for target, root in zip(targets, roots):
            if target <= _MASS_EPS:
                z = 0.0
            else:
                length = math.sqrt(z * z)
                # The refill is sqrt(target / 1).
                z = z * root * (1 / length) if length > _MASS_EPS else root
            column.append(z)
        return live[0], column
    values, rows = first[live].tolist(), []
    pairwise = idx.size >= _PAIRWISE_FROM
    if pairwise:
        # numpy's pairwise order groups the terms by position, zeros too.
        padded, where = np.zeros(idx.size), np.flatnonzero(allowed[idx])
    for target, root in zip(targets, roots):
        if target <= _MASS_EPS:
            values = [0.0] * live.size
        else:
            if pairwise:
                padded[where] = values
                total = float(sum_sq(padded))
            else:
                # `sum_sq` adds so few terms left to right, as this loop
                # does (Python's `sum` compensates rounding from 3.12 on); a
                # projected-out entry would add a zero.
                total = 0.0
                for z in values:
                    total += z * z
            length = math.sqrt(total)
            if length > _MASS_EPS:
                inverse = 1 / length
                values = [z * root * inverse for z in values]
            else:
                values = [math.sqrt(target / live.size)] * live.size
        rows.append(values)
    return live, rows


def _grid_times(schedule: DriveSchedule) -> np.ndarray:
    """The times after steps 1..n: k*dt, except that the last step ends at tau."""
    t = np.arange(1, schedule.n_steps() + 1) * schedule.dt
    t[-1] = schedule.tau
    return t


def _grid(schedule: DriveSchedule) -> tuple:
    """The schedule's grid: the columns t, phi, cos and sin of rows 0..n, and
    the sector targets after steps 1..n as two lists of floats.

    phi, cos, sin and the targets are computed in one pass each, with libm's
    cos, sin and exp per entry and C pow for the squares, so they are the
    values `schedule.phi` and `schedule_targets` give one time at a time.
    """
    t = np.concatenate(([0.0], _grid_times(schedule)))
    # `schedule.phi` without its range check: the grid lies in [0, tau].
    phi = schedule._ramp(np.minimum(t / schedule.tau, 1.0), _LIBM)
    angles = (schedule.theta0 + phi).tolist()
    cos, sin = (np.fromiter(map(f, angles), float, len(angles))
                for f in (math.cos, math.sin))
    # Python's x ** 2 calls C pow, which is not always x * x, as numpy's is.
    targets = ([c ** 2 for c in cos[1:].tolist()],
               [s ** 2 for s in sin[1:].tolist()])
    return t, phi, cos, sin, targets


def _step_overlaps(amps: np.ndarray) -> np.ndarray:
    """|<row k|row k-1>| for each row k of an amplitude matrix, and 1 at row 0.

    The products new_i * prev_i are added in numpy's pairwise order, left to
    right below 8 entries.
    """
    total = np.add.reduce(amps[1:] * amps[:-1], axis=-1)
    return np.concatenate(([1.0], np.fabs(total)))


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
    when the projection is and is not redundant).  Each drive sector is
    walked over all steps on its own (`_walk_sector`), on Python floats,
    and its columns are written into the (rows, stored states) amplitude
    matrix; the rows have the bits of the same steps on numpy arrays.  A
    caller that needs only the final state computes it with `final_amps`,
    without stepping.
    """
    check_leak_model(leak_model)
    if mask.bits.shape != psi0.amps.shape:
        raise ValueError("mask dimension mismatch")
    allowed = mask.bits if enforce_mask else np.ones(psi0.amps.size, dtype=bool)
    sectors = psi0.sectors(drive_node)
    t, phi, cos, sin, targets = _grid(schedule)
    amps = np.zeros((t.size, psi0.amps.size))
    amps[0] = psi0.amps
    for idx, sector_targets in zip(sectors, targets):
        positions, values = _walk_sector(psi0.amps, idx, allowed, leak_model,
                                         sector_targets)
        amps[1:, positions] = values
    # Each column reduces a contiguous copy of its entries row by row, as a
    # one-dimensional sum of one row would.
    return Trajectory(
        schedule, psi0.node_order, psi0.codes, t, phi, cos, sin, amps,
        p0=sum_sq(amps.take(sectors[0], axis=1)),
        p1=sum_sq(amps.take(sectors[1], axis=1)),
        alpha_sq=sum_sq(amps.compress(mask.bits, axis=1)),
        energy=sum_sq(amps.compress(~mask.bits, axis=1)),
        step_overlap=_step_overlaps(amps))


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
    boolean mask it projects onto (all true without the projection), and the
    drive sectors' positions.  For diagonal masks each step multiplies a
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
    check_leak_model(leak_model)
    mass = _grid_targets(schedule)
    empty = mass <= _MASS_EPS
    n = mass.shape[1]
    final = np.zeros_like(psi0)
    for s, idx in enumerate(sectors):
        component = psi0[idx] * allowed[idx]
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
            # The stepper's product with the reciprocal: a quotient by
            # `length` may round otherwise.
            final[idx] = math.sqrt(mass[s, -1]) * component * (1 / length)
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
    return StateVector(("r", "s"), link_amps(math.cos(angle), math.sin(angle)))


def closed_form_triplet(theta: float, phi: float) -> StateVector:
    """The rotated symmetric two-particle state (a product state)."""
    angle = theta + phi
    return StateVector(("p1", "p2"),
                       triplet_amps(math.cos(angle), math.sin(angle)))


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

    `drive` names the driven particle, one of `DRIVES`.  It is checked
    and otherwise unused: every step imposes the sector targets on the reduced
    diagonals of both particles, so the three choices give one trajectory.
    A sector that loses all its mass while its target is positive raises
    `DegenerateDynamicsError`; the demo space has no constraint to refill it
    from.  The fixed point runs, until a change below `_FIXPOINT_TOL`, on
    the four amplitudes as Python floats, in straight-line arithmetic with
    the operations of the same iteration on numpy arrays and so with its
    bits.  It raises after `_FIXPOINT_MAX_ITER` iterations.  `alpha_sq` is
    min(|S row|^2, 1) for the symmetrizer S, the norm squared as a product.
    """
    if drive not in DRIVES:
        raise ValueError("drive must be 'p1', 'p2', or 'both'")
    if not 0 < theta < math.pi / 2:
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    schedule = replace(schedule, theta0=theta)
    psi0 = closed_form_triplet(theta, 0.0)

    def step(current, targets):
        # The amplitudes of |00>, |01>, |10>, |11> as floats: c is the
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

    t, phi, cos, sin, targets = _grid(schedule)
    rows = [psi0.amps.tolist()]
    for row_targets in zip(*targets):
        rows.append(step(rows[-1], row_targets))
    amps = np.array(rows)
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
        schedule, psi0.node_order, psi0.codes, t, phi, cos, sin, amps,
        p0=sum_sq(amps.take(sectors[0], axis=1)),
        p1=sum_sq(amps.take(sectors[1], axis=1)),
        alpha_sq=alpha_sq, energy=1.0 - alpha_sq,
        step_overlap=_step_overlaps(amps))


def singlet_amplitude(state: StateVector) -> float:
    """Amplitude of the antisymmetric channel (|01> - |10>)/sqrt(2)."""
    return float((state.amps[1] - state.amps[2]) / math.sqrt(2.0))
