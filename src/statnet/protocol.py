"""End-to-end drive-relax-measure procedure with repetition statistics.

The ground state is constructed analytically as the uniform superposition of
every assignment satisfying the gates and the input pins (output pins are
withheld at preparation and enforced through the drive and the offline
check).  The evolution is deterministic, so a decision evolves that
preparation once, until the drive node's sector mass sits on the pinned
output value; each shot then measures the final state once in the
computational basis, and the sample is checked offline against the full
constraint set.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DriveSchedule, evolve
from .errors import DegenerateDynamicsError, UnpreparableNetworkError
from .hilbert import (StateVector, basis_index, index_assignment,
                      node_sectors, reduced_diag)
from .network import Network, render
from .statics import ConstraintMask, network_mask

# Reference per-shot success probability used for the stated confidence of a
# negative (unsatisfiable) decision: 1 - (1 - p_ref)^shots.  It is a fixed
# reference figure: the confidence does not depend on the measured
# good_universe_prob_final.
DEFAULT_P_GOOD_REF = 0.5


@dataclass(frozen=True)
class Preparation:
    """The prepared state and the input-constrained mask it is evolved under."""

    state: StateVector
    mask: ConstraintMask
    n_sector0: int
    n_sector1: int
    theta: float | None

    @property
    def support_size(self) -> int:
        return self.n_sector0 + self.n_sector1


@dataclass(frozen=True)
class ProtocolResult:
    shots: int
    samples: tuple[str | None, ...]
    n_solutions: int
    decision: str  # "satisfiable" | "unsatisfiable" | "inconclusive"
    confidence: float
    seed: int
    good_universe_prob_final: float
    network_hash: str
    schedule: DriveSchedule

    def to_json_dict(self) -> dict:
        return {
            "network_hash": self.network_hash,
            "shots": self.shots,
            "seed": self.seed,
            "schedule": {
                "kind": self.schedule.kind,
                "theta0": self.schedule.theta0,
                "phi_final": self.schedule.phi_final,
                "tau": self.schedule.tau,
                "dt": self.schedule.dt,
            },
            "decision": self.decision,
            "confidence": self.confidence,
            "n_solutions": self.n_solutions,
            "samples": list(self.samples),
            "good_universe_prob_final": self.good_universe_prob_final,
        }


def network_hash(net: Network) -> str:
    return hashlib.sha256(render(net).encode()).hexdigest()[:16]


def prepare_ground(net: Network) -> Preparation:
    """Equal-phase superposition over the input-constrained solution set."""
    mask = network_mask(net, include_output_pins=False)
    support = np.flatnonzero(mask.bits)
    if not support.size:
        raise UnpreparableNetworkError(
            "no assignment satisfies the gates and input pins")
    amps = np.zeros(net.dim, dtype=complex)
    amps[support] = 1 / math.sqrt(support.size)
    state = StateVector(net.nodes, amps)

    if net.drive_node is None:
        return Preparation(state, mask, support.size, 0, None)
    _, sector1 = node_sectors(net.n_nodes, net.nodes.index(net.drive_node))
    n1 = int(mask.bits[sector1].sum())
    p1 = reduced_diag(state, net.drive_node).p1
    theta = math.asin(math.sqrt(min(p1, 1.0)))
    return Preparation(state, mask, support.size - n1, n1, theta)


def _drive_schedule_for(net: Network, prep: Preparation,
                        schedule: DriveSchedule) -> DriveSchedule:
    """Fix theta0 from the preparation and phi_final from the output pin."""
    if net.drive_node is None:
        raise ValueError("network has no drive node")
    pin = net.pin(net.drive_node)
    target_angle = math.pi / 2 if pin.value == 1 else 0.0
    return replace(schedule, theta0=prep.theta,
                   phi_final=target_angle - prep.theta)


def measure_sample(v: StateVector, rng: np.random.Generator) -> str:
    """One projective measurement in the computational basis."""
    probs = np.abs(v.amps) ** 2
    probs = probs / probs.sum()
    k = int(rng.choice(v.dim, p=probs))
    return index_assignment(v.node_order, k)


def run_protocol(net: Network, schedule: DriveSchedule, shots: int, seed: int,
                 leak_model: str = "none") -> ProtocolResult:
    """Evolve once, measure each shot with its own derived rng, and decide.

    Shot i draws from `default_rng([seed, i])`.  If the evolution raises
    `DegenerateDynamicsError`, every shot's sample is None.  The result
    reports the driven schedule: theta0 and phi_final as fixed by the
    preparation and the drive node's output pin.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    prep = prepare_ground(net)
    schedule = _drive_schedule_for(net, prep, schedule)
    solutions = network_mask(net).bits
    try:
        final = evolve(prep.state, prep.mask, net.drive_node, schedule,
                       leak_model=leak_model, record=False).points[-1]
    except DegenerateDynamicsError:
        final = None
    samples = tuple(
        measure_sample(final.state, np.random.default_rng([int(seed), shot]))
        if final is not None else None
        for shot in range(shots))
    n_solutions = sum(1 for s in samples if s is not None
                      and solutions[basis_index(net.nodes, s)])

    if n_solutions > 0:
        decision, confidence = "satisfiable", 1.0
    elif final is not None:
        decision = "unsatisfiable"
        confidence = 1.0 - (1.0 - DEFAULT_P_GOOD_REF) ** shots
    else:
        decision, confidence = "inconclusive", 0.0

    return ProtocolResult(
        shots=shots, samples=samples, n_solutions=n_solutions,
        decision=decision, confidence=confidence, seed=int(seed),
        good_universe_prob_final=final.alpha_sq if final is not None else 0.0,
        network_hash=network_hash(net), schedule=schedule)


def repetition_bound(p_good: float, confidence: float) -> int:
    """Smallest n with 1 - (1 - p_good)^n >= confidence."""
    if not 0 < p_good <= 1:
        raise ValueError("p_good must lie in (0, 1]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    if p_good == 1.0:
        return 1
    n = math.ceil(math.log(1.0 - confidence) / math.log(1.0 - p_good))
    # Guard against floating point sitting exactly on the boundary.
    while 1.0 - (1.0 - p_good) ** n < confidence:
        n += 1
    while n > 1 and 1.0 - (1.0 - p_good) ** (n - 1) >= confidence:
        n -= 1
    return n
