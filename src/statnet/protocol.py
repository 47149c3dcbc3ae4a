"""End-to-end drive-relax-measure procedure with repetition statistics.

The ground state is constructed analytically as the uniform superposition of
every assignment satisfying the gates and the input pins (output pins are
withheld at preparation and enforced through the drive and the offline
check).  The state stores only those assignments, the support that
`statics.support` enumerates, so a decision never builds a 2^n array.  The
drive is diagonal and keeps the state on them; the one exception is the
uniform-excited leak into a drive sector with no support state that the
drive node's output pin asks for, for which preparation stores that whole
sector as well.  The evolution is deterministic and only its end is
measured, so a decision computes the final state once, without stepping
(`dynamics.final_amps`): the drive has moved the drive node's sector mass
onto the pinned output value.  Measuring is one cumulative distribution over
the final state's stored amplitudes, built once, and one seeded uniform per
shot searched against it; each sample is checked offline against the full
constraint set by its stored position.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DriveSchedule, final_amps
from .errors import DegenerateDynamicsError, UnpreparableNetworkError
from .hilbert import StateVector, index_assignment, node_bit, reduced_diag
from .network import Network, check_enumerable, render
from .statics import ConstraintMask, support

# Reference per-shot success probability used for the stated confidence of a
# negative (unsatisfiable) decision: 1 - (1 - p_ref)^shots.  It is a fixed
# reference figure: the confidence does not depend on the measured
# good_universe_prob_final.
DEFAULT_P_GOOD_REF = 0.5


@dataclass(frozen=True)
class Preparation:
    """The prepared state and the input-constrained mask it is evolved under.

    `mask` has one entry per stored state of `state`: true on the support,
    false on the leak sector stored beside it.
    """

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


def prepare_ground(net: Network, leak_model: str = "none") -> Preparation:
    """Equal-phase superposition over the input-constrained solution set.

    The state stores the support only.  Under the uniform-excited leak, a
    drive sector that holds no support state is stored whole, at amplitude
    zero and outside the mask, when the drive node's output pin asks for it,
    because the drive into it refills it all; that sector has 2^(n-1)
    states, so the node limit applies.  When the pin asks for the other
    sector, the drive never demands mass in the empty one, and it is not
    stored.
    """
    codes = support(net, include_output_pins=False)
    if not codes.size:
        raise UnpreparableNetworkError(
            "no assignment satisfies the gates and input pins")
    size, n1, in_support = codes.size, 0, np.ones(codes.size, dtype=bool)
    if net.drive_node is not None:
        bit = node_bit(net.nodes, net.drive_node)
        n1 = int(np.count_nonzero(codes & bit))
        # One drive sector holds no support state, and the pin asks for it.
        if leak_model == "uniform-excited" and n1 in (0, size) \
                and net.pin(net.drive_node).value == int(n1 == 0):
            check_enumerable(net)
            empty = 0 if n1 else bit
            # Every code of the other n-1 nodes, with the drive bit inserted.
            rest = np.arange(net.dim // 2, dtype=np.int64)
            sector = ((rest & -bit) << 1) | (rest & (bit - 1)) | empty
            # Two disjoint ascending runs: a stable sort merges them.
            codes = np.sort(np.concatenate([codes, sector]), kind="stable")
            in_support = codes & bit != empty
    amps = np.where(in_support, 1 / math.sqrt(size), 0).astype(complex)
    state = StateVector(net.nodes, amps, codes)
    mask = ConstraintMask(codes.size, in_support)
    if net.drive_node is None:
        return Preparation(state, mask, size, 0, None)
    p1 = reduced_diag(state, net.drive_node).p1
    theta = math.asin(math.sqrt(min(p1, 1.0)))
    return Preparation(state, mask, size - n1, n1, theta)


def _drive_schedule_for(net: Network, prep: Preparation,
                        schedule: DriveSchedule) -> DriveSchedule:
    """Fix theta0 from the preparation and phi_final from the output pin."""
    if net.drive_node is None:
        raise ValueError("network has no drive node")
    pin = net.pin(net.drive_node)
    target_angle = math.pi / 2 if pin.value == 1 else 0.0
    return replace(schedule, theta0=prep.theta,
                   phi_final=target_angle - prep.theta)


def _draw(amps: np.ndarray, uniforms: float | list[float]):
    """Positions in `amps` that `Generator.choice` draws for these uniforms.

    `rng.choice(amps.size, p=probs / probs.sum())` normalises the
    probabilities, accumulates them, scales the cumulative sum to end at 1
    and searches it for one `rng.random()`; this does the same, once for any
    number of uniforms.  Like `choice`, it raises `ValueError` unless the
    total probability is finite and positive.
    """
    probs = np.abs(amps) ** 2
    total = probs.sum()
    if not (math.isfinite(total) and total > 0):
        raise ValueError("cannot measure a state whose total probability "
                         f"is {total}")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def measure_sample(v: StateVector, rng: np.random.Generator) -> str:
    """One projective measurement in the computational basis.

    The draw is over the stored states only.  Their probabilities are the
    full space's with the zeros left out, and the draw accumulates them in
    order, as `rng.choice` does, so it lands on the same basis state as
    `rng.choice` over all 2^n would.
    """
    k = int(v.codes[_draw(v.amps, rng.random())])
    return index_assignment(v.node_order, k)


def run_protocol(net: Network, schedule: DriveSchedule, shots: int, seed: int,
                 leak_model: str = "none") -> ProtocolResult:
    """Compute the final state once, measure each shot from it, and decide.

    Shot i draws the uniform of `default_rng([seed, i])`, and every shot is
    drawn from one cumulative distribution, so the samples are those of
    `measure_sample` shot by shot.  If the final state raises
    `DegenerateDynamicsError`, every shot's sample is None.  The result
    reports the driven schedule: theta0 and phi_final as fixed by the
    preparation and the drive node's output pin.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    prep = prepare_ground(net, leak_model)
    schedule = _drive_schedule_for(net, prep, schedule)
    solutions = prep.mask.bits.copy()
    for pin in net.pins:
        if pin.kind == "output":
            solutions[prep.state.sectors(pin.node)[1 - pin.value]] = False
    try:
        final = final_amps(prep.state.amps, prep.mask.bits,
                           prep.state.sectors(net.drive_node), schedule,
                           leak_model)
    except DegenerateDynamicsError:
        final, good_prob = None, 0.0
        samples, n_solutions = (None,) * shots, 0
    else:
        # The sum of a contiguous masked copy, as a trajectory's alpha_sq.
        good_prob = float((np.abs(final) ** 2)[prep.mask.bits].sum())
        pos = _draw(final, [np.random.default_rng([int(seed), shot]).random()
                            for shot in range(shots)])
        samples = tuple(index_assignment(net.nodes, k)
                        for k in prep.state.codes[pos].tolist())
        n_solutions = int(np.count_nonzero(solutions[pos]))

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
        good_universe_prob_final=good_prob,
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
