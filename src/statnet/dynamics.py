"""Discrete-time watchdog evolution and its closed-form references.

Each step projects the previous state onto the constrained subspace, splits
it by the drive node's bit, and rescales the two components to the scheduled
sector masses with positive real factors.  For diagonal masks that rescale is
the unique maximizer of |<new|prev>| among admissible states, so the phase
structure of the initial state is frozen exactly, and the link evolution
reproduces its closed form to machine precision at any step size.

The two-identical-particle demo replaces the mask with the symmetrizer.  The
symmetrizer does not commute with the sector projectors, so the step iterates
projection and rescale to their joint fixed point; the drive target is applied
to both particles because a symmetric state has equal marginals (driving one
particle drags the other through the symmetry).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDynamicsError
from .fock import symmetrizer_two
from .hilbert import StateVector, node_bit_values
from .statics import ConstraintMask, PenaltyHamiltonian

SCHEDULE_KINDS = ("linear-ramp", "cosine-ramp", "exponential-relax")

# Empty-sector threshold: below this the previous sector mass counts as zero.
_MASS_EPS = 1e-14
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
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.tau < self.dt:
            raise ValueError("tau must be >= dt")

    def phi(self, t: float) -> float:
        if not 0 <= t <= self.tau * (1 + 1e-9):
            raise ValueError(f"t={t} outside [0, {self.tau}]")
        x = min(t / self.tau, 1.0)
        if self.kind == "linear-ramp":
            return self.phi_final * x
        if self.kind == "cosine-ramp":
            return self.phi_final * 0.5 * (1.0 - math.cos(math.pi * x))
        return self.phi_final * (1.0 - math.exp(-5.0 * x))

    def n_steps(self) -> int:
        return max(1, round(self.tau / self.dt))


def schedule_targets(schedule: DriveSchedule, t: float) -> tuple[float, float]:
    """Target (p0, p1) sector masses for the drive node at time t."""
    angle = schedule.theta0 + schedule.phi(t)
    return math.cos(angle) ** 2, math.sin(angle) ** 2


@dataclass(frozen=True)
class TrajectoryPoint:
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
    schedule: DriveSchedule
    points: tuple[TrajectoryPoint, ...]
    leak_model: str = "none"

    @property
    def final_state(self) -> StateVector:
        return self.points[-1].state


def _rescale_sector(amps: np.ndarray, idx: np.ndarray, target: float,
                    allowed: np.ndarray, leak_model: str) -> np.ndarray:
    """Place mass `target` on one drive sector, preserving direction and phase.

    `idx` selects the sector's basis indices; `allowed` is the constraint
    indicator over the whole space (all ones when condition (i) is off).
    """
    out = np.zeros_like(amps)
    if target <= _MASS_EPS:
        return out
    component = amps[idx]
    norm = np.linalg.norm(component)
    if norm > _MASS_EPS:
        out[idx] = math.sqrt(target) * component / norm
        return out
    refill = _refill_indices(idx, allowed, leak_model)
    out[refill] = math.sqrt(target / refill.size)
    return out


def _refill_indices(idx: np.ndarray, allowed: np.ndarray,
                    leak_model: str) -> np.ndarray:
    """Where a drive sector that carries no mass is refilled, uniformly.

    The refill is an equal-phase superposition over the constrained part of
    the sector; with the uniform-excited leak model, over its excited part
    when the constrained part is empty.
    """
    constrained = idx[allowed[idx] > 0]
    if constrained.size:
        return constrained
    if leak_model == "uniform-excited":
        excited = idx[allowed[idx] == 0]
        if excited.size:
            return excited
        raise DegenerateDynamicsError("drive sector is empty")
    raise DegenerateDynamicsError(
        "drive demands mass in a sector outside the constrained subspace")


def _step_amps(prev: np.ndarray, bits: np.ndarray | None,
               idx0: np.ndarray, idx1: np.ndarray,
               targets: tuple[float, float], leak_model: str) -> np.ndarray:
    """One watchdog step on raw amplitudes (diagonal constraint)."""
    projected = prev * bits if bits is not None else prev
    allowed = bits if bits is not None else np.ones_like(prev, dtype=float)
    new = (_rescale_sector(projected, idx0, targets[0], allowed, leak_model)
           + _rescale_sector(projected, idx1, targets[1], allowed, leak_model))
    return new


def watchdog_step(prev: StateVector, mask: ConstraintMask | None, drive_node: str,
                  targets: tuple[float, float],
                  leak_model: str = "none") -> StateVector:
    """Project onto the mask, then rescale the drive node's sectors to `targets`."""
    if abs(targets[0] + targets[1] - 1.0) > 1e-9:
        raise ValueError("sector targets must sum to 1")
    bits = None
    if mask is not None:
        if mask.dim != prev.dim:
            raise ValueError("mask dimension mismatch")
        bits = mask.bits
    node_bits = node_bit_values(prev.n_nodes, prev.node_position(drive_node))
    idx0 = np.flatnonzero(node_bits == 0)
    idx1 = np.flatnonzero(node_bits == 1)
    new = _step_amps(prev.amps, bits, idx0, idx1, targets, leak_model)
    return StateVector(prev.node_order, new)


def evolve(psi0: StateVector, mask: ConstraintMask | None, drive_node: str,
           schedule: DriveSchedule, leak_model: str = "none",
           hamiltonian: PenaltyHamiltonian | None = None,
           enforce_mask: bool = True, record: bool = True) -> Trajectory:
    """Run the watchdog stepping over the schedule's uniform time grid.

    `mask` is always used for the good/bad-universe diagnostics; condition (i)
    is only enforced when `enforce_mask` is set (the no-mask variant exists to
    demonstrate when the projection is and is not redundant).

    With `record` set, every grid point is stepped and kept.  Otherwise only
    the start and the end are kept, and the end is computed without stepping
    (see `_closed_form_last_steps`).  That rests on the stepper's invariant
    for diagonal masks: each step multiplies a drive sector by a positive
    factor, so the sector keeps the direction of its component c_s of the
    projected psi0 and the state after step k is the sum over sectors of
    sqrt(p_s(t_k)) * c_s/|c_s|, until the sector's target first falls to
    zero.  From then on, or from the start when c_s is empty, the sector is
    the uniform refill.  The final point's `step_overlap` compares the states
    after steps n-1 and n, as when stepping.
    """
    pos = psi0.node_position(drive_node)
    node_bits = node_bit_values(psi0.n_nodes, pos)
    idx0 = np.flatnonzero(node_bits == 0)
    idx1 = np.flatnonzero(node_bits == 1)
    bits = mask.bits if (mask is not None and enforce_mask) else None
    diag_bits = mask.bits if mask is not None else None
    energies = hamiltonian.energies if hamiltonian is not None else None

    def diagnostics(t, amps, overlap):
        probs = np.abs(amps) ** 2
        alpha_sq = float(probs[diag_bits > 0].sum()) if diag_bits is not None else 1.0
        energy = float(np.sum(energies * probs)) if energies is not None else 0.0
        return TrajectoryPoint(
            t=t, state=StateVector(psi0.node_order, amps),
            p0=float(probs[idx0].sum()), p1=float(probs[idx1].sum()),
            alpha_sq=alpha_sq, beta_sq=1.0 - alpha_sq,
            energy=energy, step_overlap=overlap)

    amps = psi0.amps
    points = [diagnostics(0.0, amps, 1.0)]
    n = schedule.n_steps()
    if not record:
        prev, final = _closed_form_last_steps(amps, bits, (idx0, idx1),
                                              schedule, leak_model)
        points.append(diagnostics(schedule.tau, final,
                                  float(abs(np.vdot(final, prev)))))
        return Trajectory(schedule, tuple(points), leak_model)
    for k in range(1, n + 1):
        t = k * schedule.dt if k < n else schedule.tau
        new = _step_amps(amps, bits, idx0, idx1, schedule_targets(schedule, t),
                         leak_model)
        overlap = float(abs(np.vdot(new, amps)))
        amps = new
        points.append(diagnostics(t, amps, overlap))
    return Trajectory(schedule, tuple(points), leak_model)


def _closed_form_last_steps(psi0: np.ndarray, bits: np.ndarray | None,
                            sectors: tuple[np.ndarray, np.ndarray],
                            schedule: DriveSchedule,
                            leak_model: str) -> tuple[np.ndarray, np.ndarray]:
    """The stepper's amplitudes after steps n-1 and n, without stepping.

    Only the sector targets are scanned over the grid.  A sector is refilled
    at a step whose target is above _MASS_EPS if its component of the
    projected psi0 is empty or its target was at most _MASS_EPS at an earlier
    step; such a step raises `DegenerateDynamicsError` where the stepper
    would.  With a single step, the state before it is psi0, unprojected.
    """
    n = schedule.n_steps()
    targets = [schedule_targets(schedule,
                                k * schedule.dt if k < n else schedule.tau)
               for k in range(1, n + 1)]
    projected = psi0 * bits if bits is not None else psi0
    allowed = bits if bits is not None else np.ones_like(psi0, dtype=float)
    prev, final = np.zeros_like(psi0), np.zeros_like(psi0)
    for s, idx in enumerate(sectors):
        mass = [p[s] for p in targets]
        component = projected[idx]
        norm = np.linalg.norm(component)
        # Grid position (0-based) from which the sector holds the refill.
        emptied = -1
        if norm > _MASS_EPS:
            emptied = next((k for k, p in enumerate(mass) if p <= _MASS_EPS), n)
        if any(p > _MASS_EPS for p in mass[emptied + 1:]):
            refill = _refill_indices(idx, allowed, leak_model)
        for out, k in ((prev, n - 2), (final, n - 1)):
            if k < 0 or mass[k] <= _MASS_EPS:
                continue
            if k < emptied:
                out[idx] = math.sqrt(mass[k]) * component / norm
            else:
                out[refill] = math.sqrt(mass[k] / refill.size)
    return (psi0 if n == 1 else prev), final


def closed_form_link(theta: float, phi: float) -> StateVector:
    """cos(theta+phi)|01> + sin(theta+phi)|10> on nodes (r, s)."""
    angle = theta + phi
    amps = np.array([0.0, math.cos(angle), math.sin(angle), 0.0], dtype=complex)
    return StateVector(("r", "s"), amps)


def closed_form_triplet(theta: float, phi: float) -> StateVector:
    """The rotated symmetric two-particle state (a product state)."""
    angle = theta + phi
    c, s = math.cos(angle), math.sin(angle)
    amps = np.array([c * c, s * c, s * c, s * s], dtype=complex)
    return StateVector(("p1", "p2"), amps)


def q_rs_apply(phi: float, v: StateVector) -> StateVector:
    """Unitary rotation by phi in the (|01>, |10>) plane, identity elsewhere."""
    if v.dim != 4:
        raise ValueError("q_rs_apply acts on 2-qubit states")
    c, s = math.cos(phi), math.sin(phi)
    q = np.array([[1, 0, 0, 0],
                  [0, c, -s, 0],
                  [0, s, c, 0],
                  [0, 0, 0, 1]], dtype=complex)
    return StateVector(v.node_order, q @ v.amps)


def _rescale_particle(amps: np.ndarray, idx0: np.ndarray, idx1: np.ndarray,
                      targets: tuple[float, float]) -> np.ndarray:
    """Sector rescale without constraint bookkeeping (demo space is unmasked)."""
    out = np.zeros_like(amps)
    for idx, target in ((idx0, targets[0]), (idx1, targets[1])):
        if target <= _MASS_EPS:
            continue
        norm = np.linalg.norm(amps[idx])
        if norm <= _MASS_EPS:
            raise DegenerateDynamicsError("drive sector lost all mass")
        out[idx] = math.sqrt(target) * amps[idx] / norm
    return out


def triplet_watchdog_demo(theta: float, schedule: DriveSchedule,
                          drive: str = "p1") -> Trajectory:
    """Two identical two-state particles under the symmetrizer watchdog.

    `drive` selects whose reduced diagonal carries the schedule: "p1", "p2",
    or "both".  A symmetric state has identical marginals, so the symmetry
    constraint propagates the drive target to the undriven particle; the
    three choices produce one and the same trajectory.
    """
    if drive not in ("p1", "p2", "both"):
        raise ValueError("drive must be 'p1', 'p2', or 'both'")
    if not 0 < theta < math.pi / 2:
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    schedule = replace(schedule, theta0=theta)
    sym = symmetrizer_two().matrix
    node_order = ("p1", "p2")
    splits = {"p1": (np.array([0, 1]), np.array([2, 3])),
              "p2": (np.array([0, 2]), np.array([1, 3]))}

    def step(prev: np.ndarray, targets: tuple[float, float]) -> np.ndarray:
        current = prev
        for _ in range(_FIXPOINT_MAX_ITER):
            nxt = sym @ current
            nxt = nxt / np.linalg.norm(nxt)
            for particle in ("p1", "p2"):
                nxt = _rescale_particle(nxt, *splits[particle], targets)
            if np.linalg.norm(nxt - current) < _FIXPOINT_TOL:
                return nxt
            current = nxt
        raise DegenerateDynamicsError(
            f"symmetrizer fixed point did not converge in "
            f"{_FIXPOINT_MAX_ITER} iterations")

    def diagnostics(t, amps, overlap):
        probs = np.abs(amps) ** 2
        sym_part = sym @ amps
        alpha_sq = min(float(np.linalg.norm(sym_part) ** 2), 1.0)
        return TrajectoryPoint(
            t=t, state=StateVector(node_order, amps),
            p0=float(probs[[0, 1]].sum()), p1=float(probs[[2, 3]].sum()),
            alpha_sq=alpha_sq, beta_sq=1.0 - alpha_sq,
            energy=1.0 - alpha_sq, step_overlap=overlap)

    amps = closed_form_triplet(theta, 0.0).amps
    points = [diagnostics(0.0, amps, 1.0)]
    n = schedule.n_steps()
    for k in range(1, n + 1):
        t = k * schedule.dt if k < n else schedule.tau
        new = step(amps, schedule_targets(schedule, t))
        overlap = float(abs(np.vdot(new, amps)))
        amps = new
        points.append(diagnostics(t, amps, overlap))
    return Trajectory(schedule, tuple(points))


def singlet_amplitude(state: StateVector) -> complex:
    """Amplitude of the antisymmetric channel (|01> - |10>)/sqrt(2)."""
    return complex((state.amps[1] - state.amps[2]) / math.sqrt(2.0))
