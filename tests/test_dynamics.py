"""Watchdog stepping, drive schedules, and the two closed-form references."""
import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statnet import dynamics, hilbert
from statnet.dynamics import (
    DriveSchedule,
    closed_form_link,
    closed_form_triplet,
    evolve,
    final_amps,
    q_rs_apply,
    schedule_targets,
    singlet_amplitude,
    triplet_watchdog_demo,
)
from statnet.errors import DegenerateDynamicsError
from statnet.fock import symmetrizer_two
from statnet.hilbert import StateVector, basis_state, probabilities
from statnet.network import builtin_fig1, parse_network
from statnet.protocol import prepare_ground
from statnet.record import replace
from statnet.statics import ConstraintMask, gate_mask

LINK_NET = parse_network("nodes r s\nlink r -> s\n")
LINK_MASK = gate_mask(LINK_NET, LINK_NET.gates[0])


def linear(theta, phi_final, tau=1.0, dt=1e-3):
    return DriveSchedule(kind="linear-ramp", theta0=theta,
                         phi_final=phi_final, tau=tau, dt=dt)


def one_step(prev, mask, angle, leak_model="none", enforce_mask=True):
    """One evolve step of drive node r from `prev` to the targets of `angle`."""
    sched = DriveSchedule(theta0=angle, phi_final=0.0, tau=1e-3, dt=1e-3)
    return evolve(prev, mask, "r", sched, leak_model=leak_model,
                  enforce_mask=enforce_mask).final_state


# --- schedules ---------------------------------------------------------------

def test_schedule_targets_at_zero():
    theta = 0.4
    sched = linear(theta, 1.0)
    p0, p1 = schedule_targets(sched, 0.0)
    assert (p0, p1) == pytest.approx((math.cos(theta) ** 2,
                                      math.sin(theta) ** 2))


def test_schedule_targets_reach_one():
    sched = linear(math.pi / 6, math.pi / 3)
    assert schedule_targets(sched, 1.0) == pytest.approx((0.0, 1.0))


def test_schedule_targets_balanced():
    sched = linear(math.pi / 4, 1.0)
    assert schedule_targets(sched, 0.0) == pytest.approx((0.5, 0.5))


def test_schedule_kinds_share_endpoints():
    for kind in ("linear-ramp", "cosine-ramp"):
        s = DriveSchedule(kind=kind, theta0=0.1, phi_final=0.7)
        assert s.phi(0.0) == 0.0
        assert s.phi(s.tau) == pytest.approx(0.7)


def test_exponential_relax_saturates():
    s = DriveSchedule(kind="exponential-relax", theta0=0.0, phi_final=1.0)
    assert s.phi(0.0) == 0.0
    assert s.phi(s.tau) == pytest.approx(1.0 - math.exp(-5.0))


def test_schedule_monotone_ramps():
    for kind in ("linear-ramp", "cosine-ramp", "exponential-relax"):
        s = DriveSchedule(kind=kind, theta0=0.0, phi_final=1.0)
        values = [s.phi(t) for t in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_schedule_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DriveSchedule(kind="staircase")


def test_schedule_rejects_bad_grid():
    with pytest.raises(ValueError):
        DriveSchedule(dt=0.0)
    with pytest.raises(ValueError):
        DriveSchedule(tau=0.5, dt=1.0)


# --- single steps ------------------------------------------------------------

def test_step_rotates_link_state():
    theta, delta = 0.5, 0.02
    prev = closed_form_link(theta, 0.0)
    new = one_step(prev, LINK_MASK, theta + delta)
    assert np.allclose(new.amps, closed_form_link(theta, delta).amps,
                       atol=1e-15)


def test_step_fixed_point():
    prev = closed_form_link(0.3, 0.0)
    new = one_step(prev, LINK_MASK, 0.3)
    assert np.allclose(new.amps, prev.amps, atol=1e-15)


def test_step_masked_never_populates_forbidden_state():
    # theta = 0: all mass starts on |01>; the |11> channel stays empty.
    prev = basis_state(("r", "s"), "01")
    new = one_step(prev, LINK_MASK, 0.01)
    assert new.amps[3] == 0.0
    assert abs(new.amps[2]) > 0  # revived uniformly inside the constraint


def test_step_unmasked_populates_forbidden_state():
    prev = basis_state(("r", "s"), "01")
    new = one_step(prev, LINK_MASK, 0.01, enforce_mask=False)
    assert abs(new.amps[3]) > 0


def test_step_empty_constrained_sector_raises():
    # Mask allows only r=0 states; demanding r=1 mass has nowhere to go.
    mask = ConstraintMask(4, np.array([1, 1, 0, 0]))
    with pytest.raises(DegenerateDynamicsError):
        one_step(basis_state(("r", "s"), "00"), mask, math.pi / 4)


def test_step_leak_model_uses_excited_states():
    mask = ConstraintMask(4, np.array([1, 1, 0, 0]))
    new = one_step(basis_state(("r", "s"), "00"), mask, math.pi / 4,
                   leak_model="uniform-excited")
    assert np.abs(new.amps[2]) ** 2 + np.abs(new.amps[3]) ** 2 == pytest.approx(0.5)


@pytest.mark.parametrize("enforce_mask", [True, False])
def test_evolve_rejects_mask_of_another_dimension(enforce_mask):
    mask = ConstraintMask(8, np.ones(8))
    with pytest.raises(ValueError, match="mask dimension mismatch"):
        evolve(closed_form_link(0.3, 0.0), mask, "r", linear(0.3, 0.1),
               enforce_mask=enforce_mask)


# --- link evolution ----------------------------------------------------------

@pytest.mark.parametrize("kind", ["linear-ramp", "cosine-ramp",
                                  "exponential-relax"])
def test_link_tracks_closed_form(kind):
    theta = math.pi / 6
    sched = DriveSchedule(kind=kind, theta0=theta, phi_final=math.pi / 3,
                          tau=1.0, dt=1e-3)
    traj = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched)
    for p in traj.points:
        ref = closed_form_link(theta, sched.phi(p.t))
        assert np.abs(p.state.amps - ref.amps).max() < 1e-9


def test_link_dt_halving_does_not_worsen():
    theta = math.pi / 6

    def max_dev(dt):
        sched = linear(theta, math.pi / 3, dt=dt)
        traj = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched)
        return max(np.abs(p.state.amps
                          - closed_form_link(theta, sched.phi(p.t)).amps).max()
                   for p in traj.points)

    assert max_dev(5e-4) <= max_dev(1e-3) + 1e-12


def test_link_energy_identically_zero():
    traj = evolve(closed_form_link(0.2, 0.0), LINK_MASK, "r",
                  linear(0.2, 1.0, dt=1e-2))
    assert all(p.energy == 0.0 for p in traj.points)


def test_unmasked_energy_is_mass_off_the_mask():
    # From |01> at theta = 0 the unmasked refill of the r=1 sector puts mass
    # on |11>, which the link forbids; the energy is that forbidden mass.
    traj = evolve(basis_state(("r", "s"), "01"), LINK_MASK, "r",
                  linear(0.0, 1.0, dt=1e-2), enforce_mask=False)
    for p in traj.points:
        probs = np.abs(p.state.amps) ** 2
        assert p.energy == pytest.approx(probs[0] + probs[3], abs=1e-15)
    assert traj.points[-1].energy > 0


def test_link_norm_preserved():
    traj = evolve(closed_form_link(0.2, 0.0), LINK_MASK, "r",
                  linear(0.2, 1.0, dt=1e-2))
    assert all(p.state.norm() == pytest.approx(1.0) for p in traj.points)


def test_zero_length_schedule_constant():
    sched = linear(0.4, 0.0, tau=1e-3, dt=1e-3)
    traj = evolve(closed_form_link(0.4, 0.0), LINK_MASK, "r", sched)
    assert len(traj.points) == 2
    assert np.allclose(traj.points[0].state.amps, traj.points[1].state.amps,
                       atol=1e-15)


def test_redundancy_masked_vs_unmasked_interior_theta():
    # With both channels populated the projection never acts: identical runs.
    theta = math.pi / 5
    sched = linear(theta, 1.0, dt=1e-3)
    with_mask = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched)
    without = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched,
                     enforce_mask=False)
    for pm, pu in zip(with_mask.points, without.points):
        assert np.abs(pm.state.amps - pu.state.amps).max() < 1e-9


def test_redundancy_breaks_at_theta_zero():
    sched = linear(0.0, 1.0, dt=1e-3)
    masked = evolve(basis_state(("r", "s"), "01"), LINK_MASK, "r", sched)
    assert all(p.state.amps[3] == 0.0 for p in masked.points)
    unmasked = evolve(basis_state(("r", "s"), "01"), LINK_MASK, "r", sched,
                      enforce_mask=False)
    assert any(abs(p.state.amps[3]) > 0 for p in unmasked.points)


def test_q_rs_matches_watchdog_trajectory():
    theta = math.pi / 6
    sched = linear(theta, math.pi / 3, dt=1e-3)
    psi0 = closed_form_link(theta, 0.0)
    traj = evolve(psi0, LINK_MASK, "r", sched)
    for p in traj.points:
        ref = q_rs_apply(sched.phi(p.t), psi0)
        assert np.abs(p.state.amps - ref.amps).max() < 1e-9


# --- closed forms and the rotation -------------------------------------------

def test_closed_form_link_endpoints():
    assert np.array_equal(closed_form_link(0.0, 0.0).amps, [0, 1, 0, 0])
    assert np.allclose(closed_form_link(0.0, math.pi / 2).amps, [0, 0, 1, 0],
                       atol=1e-15)


def test_closed_form_link_balanced():
    v = closed_form_link(math.pi / 4, 0.0)
    assert np.allclose(v.amps, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])


def test_closed_form_triplet_endpoints():
    assert np.allclose(closed_form_triplet(0.0, 0.0).amps, [1, 0, 0, 0])
    assert np.allclose(closed_form_triplet(0.0, math.pi / 2).amps, [0, 0, 0, 1],
                       atol=1e-15)


def test_closed_form_triplet_balanced():
    v = closed_form_triplet(math.pi / 8, math.pi / 8)
    assert np.allclose(v.amps, [0.5, 0.5, 0.5, 0.5])


def test_closed_form_triplet_is_product_state():
    amps = closed_form_triplet(0.3, 0.2).amps.reshape(2, 2)
    assert np.linalg.matrix_rank(amps, tol=1e-12) == 1


def float_bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("kind", dynamics.SCHEDULE_KINDS)
@pytest.mark.parametrize("dt", (1e-2, 1e-3))
def test_closed_forms_on_arrays_have_the_scalar_bits(kind, dt):
    """`link_amps`/`triplet_amps` on arrays of libm cos and sin, as the trace
    writer builds its reference, give the bits of the scalar closed forms at
    every grid angle; those keep the bits of their per-angle formulas."""
    theta = 0.3
    sched = DriveSchedule(kind=kind, theta0=theta, phi_final=math.pi / 3,
                          dt=dt)
    traj = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched)
    phis = traj.phi.tolist()
    angles = [theta + phi for phi in phis]
    cos, sin = traj.cos, traj.sin
    assert cos.tolist() == list(map(math.cos, angles))
    assert sin.tolist() == list(map(math.sin, angles))

    def link_at(angle):
        return [0.0, math.cos(angle), math.sin(angle), 0.0]

    def triplet_at(angle):
        c, s = math.cos(angle), math.sin(angle)
        return [c * c, s * c, s * c, s * s]

    for amps_of, closed_form, formula in (
            (dynamics.link_amps, closed_form_link, link_at),
            (dynamics.triplet_amps, closed_form_triplet, triplet_at)):
        rows = np.stack(np.broadcast_arrays(*amps_of(cos, sin)), axis=1)
        scalar = np.array([closed_form(theta, phi).amps for phi in phis])
        assert np.array_equal(float_bits(rows), float_bits(scalar))
        assert np.array_equal(float_bits(scalar),
                              float_bits([formula(a) for a in angles]))


def test_q_rs_swaps_at_right_angle():
    out = q_rs_apply(math.pi / 2, basis_state(("r", "s"), "01"))
    assert np.allclose(out.amps, [0, 0, 1, 0], atol=1e-15)


def test_q_rs_identity_at_zero():
    v = StateVector(("r", "s"), np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(q_rs_apply(0.0, v).amps, v.amps)


def test_q_rs_inverse():
    v = StateVector(("r", "s"), np.array([0.5, 0.5, 0.5, 0.5]))
    assert np.allclose(q_rs_apply(-0.7, q_rs_apply(0.7, v)).amps, v.amps,
                       atol=1e-15)


# --- two-identical-particle demo ---------------------------------------------

def test_triplet_tracks_closed_form():
    theta = math.pi / 6
    sched = linear(theta, math.pi / 3, dt=1e-3)
    traj = triplet_watchdog_demo(theta, sched)
    for p in traj.points:
        ref = closed_form_triplet(theta, sched.phi(p.t))
        assert np.abs(p.state.amps - ref.amps).max() < 1e-9


def test_triplet_drive_choices_identical():
    theta = math.pi / 6
    sched = linear(theta, math.pi / 3, dt=1e-2)
    runs = {d: triplet_watchdog_demo(theta, sched, drive=d)
            for d in ("p1", "p2", "both")}
    for d in ("p2", "both"):
        for pa, pb in zip(runs["p1"].points, runs[d].points):
            assert np.abs(pa.state.amps - pb.state.amps).max() < 1e-12


def test_triplet_singlet_channel_empty():
    traj = triplet_watchdog_demo(math.pi / 6, linear(math.pi / 6, math.pi / 3,
                                                     dt=1e-2))
    assert all(abs(singlet_amplitude(p.state)) < 1e-12 for p in traj.points)


def test_triplet_constant_when_undriven():
    theta = math.pi / 4
    traj = triplet_watchdog_demo(theta, linear(theta, 0.0, dt=1e-2))
    ref = closed_form_triplet(theta, 0.0).amps
    assert all(np.abs(p.state.amps - ref).max() < 1e-12 for p in traj.points)


def test_triplet_rejects_boundary_theta():
    with pytest.raises(ValueError):
        triplet_watchdog_demo(0.0, linear(0.0, 0.1))


def test_triplet_rejects_unknown_drive():
    with pytest.raises(ValueError):
        triplet_watchdog_demo(0.3, linear(0.3, 0.1), drive="p3")


def test_triplet_lost_sector_raises():
    # From theta = pi/4 the p0 target falls to zero at t=0.5 and is demanded
    # again after it: the demo has no constraint to refill the sector from.
    with pytest.raises(DegenerateDynamicsError,
                       match="holds none and has no allowed state to refill"):
        triplet_watchdog_demo(math.pi / 4, linear(math.pi / 4, math.pi / 2,
                                                  dt=0.1))


def test_triplet_fixed_point_cap_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "_FIXPOINT_MAX_ITER", 1)
    with pytest.raises(DegenerateDynamicsError):
        triplet_watchdog_demo(0.3, linear(0.3, 0.1, dt=1e-2))


def test_rank_one_projection_freezes_evolution():
    """Documented negative variant: continuous projection onto the state itself.

    If each step projects onto the *previous state* (a rank-1 projector)
    instead of resolving to the scheduled sector masses, the drive freezes:
    the survival probability tends to 1 as the grid refines and the state
    never leaves its starting point.  This is why the stepper conditions on
    sector masses, not on the instantaneous state.
    """
    theta, phi_final = math.pi / 6, math.pi / 3
    init = closed_form_link(theta, 0.0).amps
    for n in (10, 100, 1000):
        v = init.copy()
        dphi = phi_final / n
        survival = 1.0
        for _ in range(n):
            w = q_rs_apply(dphi, StateVector(("r", "s"), v)).amps
            amp = np.vdot(v, w)
            survival *= abs(amp) ** 2
            v = (amp / abs(amp)) * v
        assert np.abs(v - init).max() < 1e-12
    # the survival defect shrinks with the grid: frozen in the limit
    assert survival > 0.998


# --- properties --------------------------------------------------------------

angles = st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05)


@given(angles, st.floats(min_value=0.0, max_value=0.05))
@settings(max_examples=25, deadline=None)
def test_step_is_overlap_optimal(theta, delta):
    """The rescale step maximizes overlap with the previous state.

    Among unit vectors in the constrained subspace with the scheduled sector
    masses, a numeric search over relative phases never beats the step.
    """
    prev = closed_form_link(theta, 0.0)
    targets = (math.cos(theta + delta) ** 2, math.sin(theta + delta) ** 2)
    new = one_step(prev, LINK_MASK, theta + delta)
    best = abs(np.vdot(new.amps, prev.amps))
    for phase in np.linspace(0, 2 * math.pi, 60):
        cand = np.array([0,
                         math.sqrt(targets[0]),
                         math.sqrt(targets[1]) * np.exp(1j * phase),
                         0])
        assert abs(np.vdot(cand, prev.amps)) <= best + 1e-12


@given(angles, angles)
@settings(max_examples=25, deadline=None)
def test_evolve_norm_preserved(theta, phi_final):
    sched = linear(theta, phi_final, dt=5e-2)
    traj = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched)
    for p in traj.points:
        assert p.state.norm() == pytest.approx(1.0, abs=1e-12)


@given(angles)
@settings(max_examples=15, deadline=None)
def test_evolve_endpoint_hits_target_angle(theta):
    phi_final = math.pi / 2 - theta
    sched = linear(theta, phi_final, dt=1e-2)
    traj = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r", sched)
    assert traj.points[-1].p1 == pytest.approx(1.0, abs=1e-12)


# Angles on which a sector target lands on zero at a grid point.
crossing_angles = st.sampled_from((0.0, math.pi / 4, math.pi / 2, math.pi,
                                   -math.pi / 2, 3 * math.pi / 2, 2 * math.pi))
# (theta0, phi_final) whose angle sits, at the start (c = 0) or halfway
# through a sweep of 2c, where a sector target lies near _MASS_EPS = 1e-14:
# inside or on the edges of the band the closed-form scan re-checks exactly.
band_angles = st.builds(lambda zero, d, c: (zero + d * 1e-7 - c, 2 * c),
                        st.sampled_from((0.0, math.pi / 2)),
                        st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)),
                        st.sampled_from((0.0, 0.3)))


# Drive durations: with tau != 1 the grid fraction t/tau is not t.
taus = st.sampled_from((1.0, 0.37, 3.0))


@st.composite
def closed_form_cases(draw, max_nodes=4):
    """Random stored codes (all 2^n, or a non-empty subset as `run` stores),
    a mask over them, a psi0 of signed amplitudes with mass off the mask,
    and a schedule."""
    n_nodes = draw(st.integers(2, max_nodes))
    dim = 2 ** n_nodes
    nodes = tuple("abcde"[:n_nodes])
    codes = draw(st.just(list(range(dim))) | st.sets(
        st.integers(0, dim - 1), min_size=1).map(sorted))
    size = len(codes)
    bits = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    parts = st.sampled_from((0.0, 1.0, -0.5)) | st.floats(-1.0, 1.0)
    amps = np.array([draw(parts) for _ in range(size)], dtype=float)
    if np.linalg.norm(amps) == 0:
        amps[draw(st.integers(0, size - 1))] = 1.0
    psi0 = StateVector(nodes, amps / np.linalg.norm(amps), codes)
    n_steps = draw(st.sampled_from((1, 2, 3, 4, 10, 40)))
    theta0, phi_final = draw(band_angles | st.tuples(
        crossing_angles | st.floats(-math.pi, math.pi),
        crossing_angles | st.floats(-2 * math.pi, 2 * math.pi)))
    tau = draw(taus)
    schedule = DriveSchedule(
        kind=draw(st.sampled_from(dynamics.SCHEDULE_KINDS)),
        theta0=theta0, phi_final=phi_final, tau=tau, dt=tau / n_steps)
    return (psi0, ConstraintMask(size, np.array(bits)),
            draw(st.sampled_from(nodes)), schedule,
            draw(st.sampled_from(("none", "uniform-excited"))),
            draw(st.booleans()))


@given(closed_form_cases())
@settings(max_examples=300, deadline=None)
# Past the scan's angle limit: where numpy's exp rounds one ulp away from
# math.exp, the first step's target of sector r=0 comes out at 8e-16 instead
# of the exact 1.5e-12, so only an exact scan keeps the sector's sign
# instead of refilling it.
@example((StateVector(("r", "s"), [0, -math.cos(0.3), math.sin(0.3), 0]),
          LINK_MASK, "r",
          DriveSchedule(kind="exponential-relax", theta0=2.684794813487374,
                        phi_final=1e10, tau=1.0, dt=1 / 40),
          "none", True))
# Sector r=0 holds no allowed state, and its target is positive at the first
# step and empty at the last: the stepper raises at the first step.
@example((closed_form_link(0.3, 0.0), ConstraintMask(4, np.array([0, 0, 1, 0])),
          "r", linear(0.0, math.pi / 2, dt=0.5), "none", True))
# The drive demands mass in sector r=1, which stores no state: under the
# uniform-excited leak there is nothing to refill, and both sides raise.
@example((StateVector(("r", "s"), [1.0], codes=[1]),
          ConstraintMask(1, np.array([True])), "r",
          DriveSchedule(theta0=0.0, phi_final=1.0, dt=0.1),
          "uniform-excited", True))
def test_closed_form_final_state_matches_stepper(case):
    psi0, mask, drive, schedule, leak_model, enforce_mask = case
    allowed = mask.bits if enforce_mask else np.ones(mask.dim, dtype=bool)

    def run(final_state):
        try:
            return final_state()
        except DegenerateDynamicsError:
            return None

    stepped = run(lambda: evolve(
        psi0, mask, drive, schedule, leak_model=leak_model,
        enforce_mask=enforce_mask).final_state.amps)
    closed = run(lambda: final_amps(psi0.amps, allowed, psi0.sectors(drive),
                                    schedule, leak_model))
    assert (stepped is None) == (closed is None)
    if stepped is None:
        return
    assert np.abs(closed - stepped).max() <= 1e-14


def test_closed_form_scan_calls_scalar_targets_a_constant_number_of_times(
        monkeypatch):
    calls = []

    def counted(schedule, t):
        calls.append(t)
        return schedule_targets(schedule, t)

    monkeypatch.setattr(dynamics, "schedule_targets", counted)
    sched = linear(0.3, 0.9, dt=1e-5)
    assert sched.n_steps() == 10 ** 5
    psi0 = closed_form_link(0.3, 0.0)
    final = final_amps(psi0.amps, LINK_MASK.bits, psi0.sectors("r"), sched,
                       "none")
    assert len(calls) <= 4
    assert np.abs(final - closed_form_link(0.3, 0.9).amps).max() <= 1e-14


# --- float64 amplitudes -----------------------------------------------------

def test_amplitudes_are_float64_everywhere_and_complex_ones_refused():
    net = builtin_fig1()
    prep = prepare_ground(net)
    schedule = linear(0.3, 0.9, dt=1e-2)
    sectors = prep.state.sectors(net.drive_node)
    link = evolve(closed_form_link(0.3, 0.0), LINK_MASK, "r", schedule)
    triplet = triplet_watchdog_demo(0.3, schedule)
    for amps in (prep.state.amps,
                 final_amps(prep.state.amps, prep.mask.bits, sectors,
                            schedule, "none"),
                 link.amps, link.final_state.amps, triplet.amps,
                 basis_state(("r", "s"), "01").amps):
        assert amps.dtype == np.float64
    assert type(singlet_amplitude(triplet.final_state)) is float
    for amps in ([0, 1j, 0, 0], np.zeros(4, dtype=complex)):
        with pytest.raises(ValueError, match="amplitudes must be real"):
            StateVector(("r", "s"), amps)


# The link at theta = 0.4: the quotient component / length of its final
# state rounds away from the product with the reciprocal that the stepper
# takes.
FLOAT_LINK_CASE = (closed_form_link(0.4, 0.0), LINK_MASK, "r",
                   linear(0.4, 0.5, dt=0.1), "none", True)


def test_float_link_final_state_has_the_recorded_bits():
    psi0, mask, drive, schedule, leak_model, _ = FLOAT_LINK_CASE
    final = final_amps(psi0.amps, mask.bits, psi0.sectors(drive), schedule,
                       leak_model)
    assert [x.hex() for x in final.tolist()] == [
        "0x0.0p+0", "0x1.3e43a9692e21bp-1", "0x1.91103985da841p-1",
        "0x0.0p+0"]


def test_walk_refills_an_empty_one_state_sector_with_floats():
    """The link from theta = 0: drive sector r=1 holds no mass, and the
    refill of its one allowed state is a float, as the float amplitude
    matrix needs."""
    psi0 = basis_state(("r", "s"), "01")
    position, column = dynamics._walk_sector(
        psi0.amps, psi0.sectors("r")[1], LINK_MASK.bits, "none", [0.5])
    assert position == 2
    assert [type(z) for z in column] == [float]
    assert column == [math.sqrt(0.5)]


# sha256 of `evolve(...).amps.tobytes()` for the link from
# closed_form_link(theta0, 0) at dt=1e-4: (theta0, kind, phi_final, digest).
LINK_WALK_DIGESTS = [
    (0.3, "linear-ramp", math.pi / 3,
     "71a54eb91a666986aef6583629072f1572499696a69361f1eb8038432593c33b"),
    (0.3, "cosine-ramp", math.pi / 3,
     "70bdad8329b0a1769212b02856080e766c592e4094132c457a5e545c8b7d484d"),
    (0.3, "exponential-relax", math.pi / 3,
     "882390453bf47fb7b62ead61c9d1ed96795bc3d44a2eb5fda2d4165a6fb37158"),
    # Sector r=0 is emptied at step 5000 (angle pi/2) and refilled at 5001.
    (math.pi / 4, "linear-ramp", math.pi / 2,
     "6c07b1134debe172bf0520a00c2591c56247acf92c07bc875d4d0cf9bd2327a2"),
]


def test_link_walk_has_the_recorded_bits():
    for theta, kind, phi_final, digest in LINK_WALK_DIGESTS:
        schedule = DriveSchedule(kind=kind, theta0=theta, phi_final=phi_final,
                                 dt=1e-4)
        amps = evolve(closed_form_link(theta, 0.0), LINK_MASK, "r",
                      schedule).amps
        assert hashlib.sha256(amps.tobytes()).hexdigest() == digest, kind


def test_evolve_rejects_unknown_leak_model():
    with pytest.raises(ValueError, match="'uniform_excited'"):
        evolve(closed_form_link(0.3, 0.0), LINK_MASK, "r", linear(0.3, 0.9),
               leak_model="uniform_excited")


def test_final_amps_rejects_unknown_leak_model():
    psi0 = closed_form_link(0.3, 0.0)
    with pytest.raises(ValueError, match="'uniform_excited'"):
        final_amps(psi0.amps, LINK_MASK.bits, psi0.sectors("r"),
                   linear(0.3, 0.9), "uniform_excited")


def row_overlap(new, prev):
    """|<new|prev>| of two rows: sum new_i * prev_i, added as numpy adds one
    row."""
    return abs(np.add.reduce(new * prev))


def assert_columns_are_row_formulas(traj, sectors, alpha_of, energy_of):
    """Every column equals, bit for bit, its formula applied to one row."""
    for k, amps in enumerate(traj.amps):
        probs = probabilities(amps)
        assert traj.phi[k] == traj.schedule.phi(traj.t[k])
        assert traj.p0[k] == probs[sectors[0]].sum()
        assert traj.p1[k] == probs[sectors[1]].sum()
        assert traj.alpha_sq[k] == alpha_of(amps, probs)
        assert traj.beta_sq[k] == 1.0 - traj.alpha_sq[k]
        assert traj.energy[k] == energy_of(amps, probs)
        overlap = row_overlap(amps, traj.amps[k - 1]) if k else 1.0
        assert traj.step_overlap[k] == overlap
    for column in (traj.amps, traj.t, traj.phi, traj.p0, traj.p1,
                   traj.alpha_sq, traj.beta_sq, traj.energy,
                   traj.step_overlap):
        assert not column.flags.writeable
    assert all(np.array_equal(p.state.codes, traj.codes)
               and not p.state.codes.flags.writeable for p in traj.points)


@given(closed_form_cases())
@settings(max_examples=150, deadline=None)
def test_recorded_columns_match_row_formulas(case):
    psi0, mask, drive, schedule, leak_model, enforce_mask = case
    try:
        traj = evolve(psi0, mask, drive, schedule, leak_model=leak_model,
                      enforce_mask=enforce_mask)
    except DegenerateDynamicsError:
        return
    assert traj.t.tolist() == [k * schedule.dt for k in
                               range(schedule.n_steps())] + [schedule.tau]
    assert_columns_are_row_formulas(
        traj, psi0.sectors(drive),
        alpha_of=lambda amps, probs: probs[mask.bits].sum(),
        energy_of=lambda amps, probs: probs[~mask.bits].sum())
    assert traj.codes is psi0.codes
    # The trajectory keeps no reference to the caller's amplitudes.
    before = traj.amps.copy()
    psi0.amps.setflags(write=True)
    psi0.amps[:] = 7.0
    assert (traj.amps == before).all()


@given(st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
       st.sampled_from(dynamics.SCHEDULE_KINDS),
       crossing_angles | st.floats(-2 * math.pi, 2 * math.pi),
       st.sampled_from((1, 2, 3, 10, 40)), taus)
@settings(max_examples=60, deadline=None)
def test_triplet_columns_match_row_formulas(theta, kind, phi_final, n_steps,
                                            tau):
    schedule = DriveSchedule(kind=kind, phi_final=phi_final, tau=tau,
                             dt=tau / n_steps)
    try:
        traj = triplet_watchdog_demo(theta, schedule)
    except DegenerateDynamicsError:
        return
    sym = real_symmetrizer()

    def alpha_of(amps, probs):
        norm = math.sqrt(left_to_right_sum_sq(sym @ amps))
        return min(norm * norm, 1.0)

    assert_columns_are_row_formulas(
        traj, traj.final_state.sectors("p1"), alpha_of,
        energy_of=lambda amps, probs: 1.0 - alpha_of(amps, probs))


# --- the float stepper against numpy steps, and no BLAS ----------------------

def left_to_right_sum_sq(amps):
    """The sum of the squares of floats, added left to right."""
    total = 0.0
    for z in amps:
        total += z * z
    return total


def reference_norm(x):
    """`hilbert.norm` as one numpy reduction: numpy's pairwise sum of
    squares."""
    return math.sqrt(np.add.reduce(x * x))


def real_symmetrizer():
    """The symmetrizer (1 + P_12)/2 of `fock`, whose entries are real."""
    sym = symmetrizer_two().matrix
    assert not sym.imag.any()
    return sym.real


def reference_rescale(amps, sectors, targets, allowed, leak_model):
    """The rescale on numpy arrays that the float stepper replaces."""
    out = np.zeros(amps.size)
    for idx, target in zip(sectors, targets):
        if target <= dynamics._MASS_EPS:
            continue
        component = amps[idx]
        norm = reference_norm(component)
        if norm > dynamics._MASS_EPS:
            out[idx] = math.sqrt(target) * component * (1 / norm)
        else:
            refill = dynamics._refill_indices(idx, allowed, leak_model)
            out[refill] = math.sqrt(target / refill.size)
    return out


def reference_rows(amps, schedule, step):
    """Step `amps` over the schedule's grid on numpy arrays, keeping every row."""
    rows = [amps]
    for t in dynamics._grid_times(schedule).tolist():
        rows.append(step(rows[-1], schedule_targets(schedule, t)))
    return np.array(rows)


def reference_evolve_rows(psi0, mask, drive, schedule, leak_model,
                          enforce_mask):
    sectors = psi0.sectors(drive)
    allowed = mask.bits if enforce_mask else np.ones(mask.dim, dtype=bool)
    return reference_rows(psi0.amps, schedule, lambda prev, targets:
                          reference_rescale(prev * allowed, sectors, targets,
                                            allowed, leak_model))


def reference_triplet_rows(theta, schedule):
    schedule = replace(schedule, theta0=theta)
    sym = real_symmetrizer()
    psi0 = closed_form_triplet(theta, 0.0)
    particles = (psi0.sectors("p1"), psi0.sectors("p2"))
    no_refill = np.zeros(4, dtype=bool)

    def step(prev, targets):
        current = prev
        for _ in range(dynamics._FIXPOINT_MAX_ITER):
            nxt = sym @ current
            nxt = nxt * (1 / reference_norm(nxt))
            for sectors in particles:
                nxt = reference_rescale(nxt, sectors, targets, no_refill,
                                        "none")
            if reference_norm(nxt - current) < dynamics._FIXPOINT_TOL:
                return nxt
            current = nxt
        raise DegenerateDynamicsError(
            f"symmetrizer fixed point did not converge in "
            f"{dynamics._FIXPOINT_MAX_ITER} iterations")

    return reference_rows(psi0.amps, schedule, step)


def assert_same_outcome(rows, reference_rows):
    """Equal rows bit for bit, or the same `DegenerateDynamicsError` message."""
    def outcome(compute):
        try:
            return compute()
        except DegenerateDynamicsError as exc:
            return str(exc)

    got, want = outcome(rows), outcome(reference_rows)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got, want)


# All 32 codes of five nodes: both drive sectors hold 16 entries, several of
# them allowed, so each norm is a pairwise sum.
PAIRWISE_SECTORS = (
    StateVector(tuple("abcde"), np.cos(np.arange(32)) / 4),
    ConstraintMask(32, np.arange(32) % 3 > 0), "c",
    DriveSchedule(kind="cosine-ramp", theta0=0.3, phi_final=2.0, tau=0.37,
                  dt=0.37 / 10), "none", True)
# All 16 codes of four nodes: each drive sector holds 8 entries and allows
# one, so its step is the scalar recurrence where numpy sums 8 squares
# pairwise.
ONE_STATE_LONG_SECTORS = (
    StateVector(tuple("abcd"), np.cos(np.arange(16)) / 3),
    ConstraintMask(16, np.arange(16) % 9 == 3), "a",
    DriveSchedule(kind="cosine-ramp", theta0=0.3, phi_final=2.0, dt=0.1),
    "none", True)
# Three nodes: sector a=0 holds 4 entries and allows 3.  At step 5 the angle
# is pi/2, so the sector is emptied, and step 6 refills it uniformly.
REFILLED_SHORT_SECTOR = (
    StateVector(tuple("abc"), np.cos(np.arange(8)) / 2),
    ConstraintMask(8, np.array([1, 1, 0, 1, 0, 1, 1, 0])), "a",
    linear(math.pi / 4, math.pi / 2, dt=0.1), "none", True)
# The link mask without the r=1 states: the uniform-excited leak refills
# both stored r=1 states at each step but step 5, where the angle is 0.
LEAK_INTO_EMPTY_SECTOR = (
    closed_form_link(0.3, 0.0), ConstraintMask(4, np.array([1, 1, 0, 0])),
    "r", linear(-math.pi / 4, math.pi / 2, dt=0.1), "uniform-excited", True)
# One case per branch of the sector walk.
WALK_BRANCH_CASES = (PAIRWISE_SECTORS, ONE_STATE_LONG_SECTORS,
                     REFILLED_SHORT_SECTOR, LEAK_INTO_EMPTY_SECTOR)


# Five nodes give drive sectors of 9-16 entries, whose norms are pairwise sums.
@given(closed_form_cases(max_nodes=5))
@settings(max_examples=200, deadline=None)
# Sector r=0 holds no allowed state and its target is positive: both raise.
@example((closed_form_link(0.3, 0.0), ConstraintMask(4, np.array([0, 0, 1, 0])),
          "r", linear(0.0, math.pi / 2, dt=0.5), "none", True))
@example(PAIRWISE_SECTORS)
@example(ONE_STATE_LONG_SECTORS)
@example(REFILLED_SHORT_SECTOR)
@example(LEAK_INTO_EMPTY_SECTOR)
# Three nodes: both drive sectors hold 4 entries, and the mask forbids some of
# each while psi0 carries mass there, so the stepper skips projected-out
# entries instead of summing their zeros.
@example((StateVector(tuple("abc"), np.cos(np.arange(8)) / 2),
          ConstraintMask(8, np.array([0, 1, 1, 0, 1, 0, 0, 1])), "b",
          DriveSchedule(kind="exponential-relax", theta0=0.3, phi_final=2.0,
                        dt=0.1), "none", True))
def test_evolve_rows_equal_numpy_reference_steps(case):
    psi0, mask, drive, schedule, leak_model, enforce_mask = case
    assert_same_outcome(
        lambda: evolve(psi0, mask, drive, schedule, leak_model=leak_model,
                       enforce_mask=enforce_mask).amps,
        lambda: reference_evolve_rows(psi0, mask, drive, schedule, leak_model,
                                      enforce_mask))


@given(st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
       st.sampled_from(dynamics.SCHEDULE_KINDS),
       crossing_angles | st.floats(-2 * math.pi, 2 * math.pi),
       st.integers(1, 40), taus)
@settings(max_examples=100, deadline=None)
# From pi/4 the p0 target falls to zero and is demanded again: both raise.
@example(math.pi / 4, "linear-ramp", math.pi / 2, 10, 1.0)
# The benchmark's shape at dt=1e-3.
@example(0.3, "linear-ramp", math.pi / 3, 1000, 1.0)
@example(0.3, "exponential-relax", math.pi / 3, 1000, 1.0)
def test_triplet_rows_equal_numpy_reference_steps(theta, kind, phi_final,
                                                  n_steps, tau):
    schedule = DriveSchedule(kind=kind, phi_final=phi_final, tau=tau,
                             dt=tau / n_steps)
    assert_same_outcome(
        lambda: triplet_watchdog_demo(theta, schedule).amps,
        lambda: reference_triplet_rows(theta, schedule))


def test_triplet_fixed_point_cap_message_equals_reference(monkeypatch):
    monkeypatch.setattr(dynamics, "_FIXPOINT_MAX_ITER", 1)
    schedule = linear(0.3, 0.1, dt=1e-2)
    assert_same_outcome(lambda: triplet_watchdog_demo(0.3, schedule).amps,
                        lambda: reference_triplet_rows(0.3, schedule))


# Amplitudes over many orders of magnitude, squares finite.
parts = st.sampled_from((0.0, 1.0, -0.5)) | st.floats(-1e100, 1e100)


@given(st.lists(parts, min_size=1, max_size=7))
@settings(max_examples=300, deadline=None)
def test_norm_is_a_left_to_right_sum_below_eight_entries(amps):
    x = np.array(amps, dtype=float)
    want = math.sqrt(left_to_right_sum_sq(amps))
    assert hilbert.norm(x) == want
    assert StateVector(("a", "b", "c"), x, range(len(amps))).norm() == want


@given(st.integers(1, 7).flatmap(lambda width: st.lists(
    st.lists(parts, min_size=width, max_size=width), min_size=2,
    max_size=5)))
@settings(max_examples=200, deadline=None)
def test_step_overlap_is_a_left_to_right_sum_below_eight_entries(rows):
    overlaps = dynamics._step_overlaps(np.array(rows, dtype=float))
    assert overlaps[0] == 1.0
    for k in range(1, len(rows)):
        dot = 0.0
        for new, prev in zip(rows[k], rows[k - 1]):
            dot += new * prev
        assert overlaps[k] == abs(dot)


# numpy names that reach BLAS (or its LAPACK) for float and complex arrays.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum",
              "linalg"}
# numpy's complex absolute value, a SIMD loop whose bits depend on the CPU.
# Only the attribute is forbidden: the builtin `abs` of a Python number is not.
ABS_NAMES = {"abs", "absolute"}


def blas_uses(source):
    """The `@` operators, BLAS names and numpy `abs` in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Attribute) \
                and node.attr in BLAS_NAMES | ABS_NAMES:
            found.append(f".{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            found += [f"import {name} at line {node.lineno}"
                      for name in names
                      if (BLAS_NAMES | ABS_NAMES) & set(name.split("."))]
    return found


def test_blas_uses_finds_each_form():
    source = ("import numpy.linalg\nfrom numpy import vdot\n"
              "a @ b\nc @= d\nx.dot(y)\nnp.matmul(a, b)\n"
              "np.abs(z)\nnumpy.absolute(z)\nfrom numpy import absolute\n")
    assert len(blas_uses(source)) == 9
    assert blas_uses("abs(x)\nmath.fabs(x)\n") == []


def test_dynamics_calls_no_blas():
    """No module but `fock` uses BLAS or np.abs.

    `fock` is the matrix algebra that acceptance criteria 6-7 check, and
    none of its values reaches the CLI.
    """
    package = Path(dynamics.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert {"cli", "dynamics", "hilbert", "network", "protocol",
            "statics"} <= set(modules)
    for name in modules:
        if name != "fock":
            assert blas_uses((package / f"{name}.py").read_text()) == [], name


def complex_path_uses(source):
    """Each name of a complex type (`complex`, `np.complex128`, ...), each
    `.imag` and `.real`, and each `dtype.kind` in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name, owner = node.id, None
        elif isinstance(node, ast.Attribute):
            name, owner = node.attr, getattr(node.value, "attr", None)
        else:
            continue
        if name.startswith("complex") or name in ("imag", "real"):
            found.append(f"{name} at line {node.lineno}")
        elif (owner, name) == ("dtype", "kind"):
            found.append(f"dtype.kind at line {node.lineno}")
    return found


def test_complex_path_uses_finds_each_form():
    source = ("complex(x)\nnp.complex128\nz.imag\nz.real\n"
              "if a.dtype.kind == 'c':\n    pass\n")
    assert len(complex_path_uses(source)) == 5
    assert complex_path_uses("np.iscomplexobj(x)\nkind = 1\n"
                             "schedule.kind\nreal_part = 0\n") == []


def test_no_module_has_a_complex_path():
    """Amplitudes and `fock`'s matrices are float64 everywhere: no module
    names a complex type or part, or branches on a dtype's kind.
    `hilbert.StateVector` refuses complex amplitudes with `np.iscomplexobj`."""
    package = Path(dynamics.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert complex_path_uses(path.read_text()) == [], path.stem


def rows_readers(source):
    """The top-level definitions of a source that read an attribute `.rows`,
    by name, or by line for a statement without one."""
    return {getattr(node, "name", f"line {node.lineno}")
            for node in ast.parse(source).body
            if any(isinstance(sub, ast.Attribute) and sub.attr == "rows"
                   for sub in ast.walk(node))}


def test_rows_readers_finds_each_form():
    source = ("def f(g):\n    return g.table.rows\n"
              "class C:\n    def m(self):\n        return [r for r in x.rows]\n"
              "ROWS = t.rows\n"
              "def h(rows):\n    return rows\n")
    assert rows_readers(source) == {"f", "C", "line 6"}


def test_only_support_reads_truth_table_rows():
    """`statics.support` is the one reading of which states a gate allows:
    every dense mask and penalty scatters its codes."""
    source = (Path(dynamics.__file__).parent / "statics.py").read_text()
    assert rows_readers(source) == {"support"}


def imported_modules(source):
    """The top-level package of each module a source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    """Every value type is a `record.Record`, the one record implementation."""
    assert imported_modules("import os, dataclasses.x\n"
                            "from dataclasses import replace\n"
                            "from . import network\n") == {"os", "dataclasses"}
    package = Path(dynamics.__file__).parent
    for path in package.glob("*.py"):
        assert "dataclasses" not in imported_modules(path.read_text()), path.name


# numpy's transcendental loops, which may round otherwise than libm.
NUMPY_TRANSCENDENTALS = {"cos", "sin", "exp"}


def numpy_transcendental_uses(source):
    """Each np.cos/np.sin/np.exp (or numpy.*) and import of one in a source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) \
                and node.attr in NUMPY_TRANSCENDENTALS \
                and getattr(node.value, "id", None) in ("np", "numpy"):
            found.append(f"{node.value.id}.{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"import {alias.name} at line {node.lineno}"
                      for alias in node.names
                      if alias.name in NUMPY_TRANSCENDENTALS]
    return found


def test_cli_calls_no_numpy_transcendentals():
    """The trace writer's closed-form reference takes cos and sin from libm,
    one angle at a time, as the scalar closed forms do."""
    assert len(numpy_transcendental_uses(
        "np.cos(x)\nnumpy.sin(x)\nfrom numpy import exp\n")) == 3
    assert numpy_transcendental_uses("math.cos(x)\nmap(math.sin, a)\n") == []
    source = (Path(dynamics.__file__).parent / "cli.py").read_text()
    assert numpy_transcendental_uses(source) == []


def probability_callers(source):
    """The function around each `probabilities(...)` call in a module's
    source, None at module level."""
    callers = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and "probabilities" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                callers.append(name)
            visit(child, name)

    visit(ast.parse(source), None)
    return callers


def test_probabilities_are_summed_only_in_hilbert():
    """Outside `hilbert`, whose `sum_sq` sums every mass and norm, only
    `protocol._draw` calls `probabilities`: the draw needs each term."""
    assert probability_callers(
        "probabilities(x)\ndef f():\n    hilbert.probabilities(y)\n") \
        == [None, "f"]
    package = Path(dynamics.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem != "hilbert":
            want = ["_draw"] if path.stem == "protocol" else []
            assert probability_callers(path.read_text()) == want, path.stem
