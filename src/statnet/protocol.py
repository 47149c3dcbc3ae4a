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
onto the pinned output value.  Measuring is one cumulative distribution of
the final state's `hilbert.probabilities`, built once, and one seeded uniform
per shot searched against it; each sample is checked offline against the
full constraint set by its stored position.  Shot i's uniform is still defined as
the first `random()` of `np.random.default_rng([seed, i])`, but it is
computed for all shots at once, by numpy's seeding and PCG64 arithmetic on
arrays (`_shot_uniforms`), so a decision builds no `Generator`.
"""
from __future__ import annotations

import math

import numpy as np

from .dynamics import DriveSchedule, final_amps
from .errors import DegenerateDynamicsError, UnpreparableNetworkError
from .hilbert import (StateVector, index_assignment, node_bit, probabilities,
                      reduced_diag, sum_probs)
from .network import Network, check_enumerable, render
from .record import Record, replace
from .statics import ConstraintMask, support

# Reference per-shot success probability used for the stated confidence of a
# negative (unsatisfiable) decision: 1 - (1 - p_ref)^shots.  It is a fixed
# reference figure: the confidence does not depend on the measured
# good_universe_prob_final.
DEFAULT_P_GOOD_REF = 0.5

# numpy's SeedSequence and PCG64 constants.  A SeedSequence hashes the
# entropy words into a pool and the pool into PCG64's seed; PCG64 steps a
# 128-bit state and outputs XSL-RR (M. E. O'Neill, "PCG: A Family of Simple
# Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# generate_state's hash constants: INIT_B = 0x8B51F9DD, times MULT_B per word.
_STATE_CONSTS = np.array([0x8B51F9DD * 0x58F38DED ** i & _MASK32
                          for i in range(9)], dtype=np.uint32)[:, None]
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# From state 0, seeding steps once, adds the initial state and steps again;
# `random()` steps once more.  So the state it outputs is
# init·M² + inc·(M² + M + 1) mod 2^128.  The two multipliers are rows of
# uint64 columns: the high word, the low word and the low word's halves.
_STEP_MULTS = (_PCG_MULT ** 2, _PCG_MULT ** 2 + _PCG_MULT + 1)
_MULT_HI, _MULT_LO, _MULT_LO_HI, _MULT_LO_LO = (
    np.array([m >> shift & mask for m in _STEP_MULTS], dtype=np.uint64)[:, None]
    for shift, mask in ((64, 2 ** 64 - 1), (0, 2 ** 64 - 1),
                        (32, _MASK32), (0, _MASK32)))


class Preparation(Record):
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


class ProtocolResult(Record):
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
    import hashlib

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
    state = StateVector(net.nodes, in_support / math.sqrt(size), codes)
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


def _draw(amps: np.ndarray, uniforms: float | np.ndarray):
    """Positions in `amps` that `Generator.choice` draws for these uniforms,
    and the probabilities of `amps` they were drawn from.

    `rng.choice(amps.size, p=probs / probs.sum())` normalises the
    probabilities, accumulates them, scales the cumulative sum to end at 1
    and searches it for one `rng.random()`; this does the same, once for any
    number of uniforms.  Like `choice`, it raises `ValueError` unless the
    total probability is finite and positive.
    """
    probs = probabilities(amps)
    total = probs.sum()
    if not (math.isfinite(total) and total > 0):
        raise ValueError("cannot measure a state whose total probability "
                         f"is {total}")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right"), probs


def _shot_uniforms(seed: int, shots: int) -> np.ndarray:
    """The first `np.random.default_rng([seed, i]).random()` of each shot i.

    This is numpy's SeedSequence and PCG64 arithmetic, bit for bit, for all
    shots at once: uint32 and uint64 arrays wrap as the C types do.  The
    entropy is the seed's 32-bit words, low word first, then the shot
    index, which must fit one word.  Like `default_rng`, it raises
    `ValueError` for a negative seed.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if shots > 2 ** 32:
        raise ValueError("shots must be <= 2**32")
    words = [np.full(shots, seed >> shift & _MASK32, dtype=np.uint32)
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(shots, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # A pool larger than the entropy is padded with hashmix(0).
    words += [np.zeros(shots, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight hashed pool words, paired low first.
    state = (np.array(pool * 2) ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << 32)

    # Rows: the initial state and inc = (seq << 1) | 1, times _STEP_MULTS
    # mod 2^128 on 64-bit limbs: the low limbs' full product from 32-bit
    # halves, plus the cross terms.
    hi = np.array([init_hi, (seq_hi << 1) | (seq_lo >> 63)])
    lo = np.array([init_lo, (seq_lo << 1) | 1])
    lo_hi, lo_lo = lo >> 32, lo & _MASK32
    low = lo_lo * _MULT_LO_LO
    cross1, cross2 = lo_lo * _MULT_LO_HI, lo_hi * _MULT_LO_LO
    mid = (low >> 32) + (cross1 & _MASK32) + (cross2 & _MASK32)
    prod_lo = (mid << 32) | (low & _MASK32)
    prod_hi = (lo_hi * _MULT_LO_HI + (cross1 >> 32) + (cross2 >> 32)
               + (mid >> 32) + lo * _MULT_HI + hi * _MULT_LO)
    lo = prod_lo[0] + prod_lo[1]
    hi = prod_hi[0] + prod_hi[1] + (lo < prod_lo[0])

    # XSL-RR output; the uniform is its top 53 bits.
    out, rot = hi ^ lo, hi >> 58
    out = (out >> rot) | (out << ((64 - rot) & 63))
    return (out >> 11).astype(float) * 2.0 ** -53


def measure_sample(v: StateVector, rng: np.random.Generator) -> str:
    """One projective measurement in the computational basis.

    The draw is over the stored states only.  Their probabilities are the
    full space's with the zeros left out, and the draw accumulates them in
    order, as `rng.choice` does, so it lands on the same basis state as
    `rng.choice` over all 2^n would.
    """
    k = int(v.codes[_draw(v.amps, rng.random())[0]])
    return index_assignment(v.node_order, k)


def run_protocol(net: Network, schedule: DriveSchedule, shots: int, seed: int,
                 leak_model: str = "none") -> ProtocolResult:
    """Compute the final state once, measure each shot from it, and decide.

    Shot i's uniform is still defined as the first `random()` of
    `default_rng([seed, i])`; `_shot_uniforms` computes it for all shots at
    once, without building a `Generator`.  Every shot is drawn from one
    cumulative distribution, so the samples are those of `measure_sample`
    shot by shot.  A negative seed, or more than 2^32 shots, raises
    `ValueError` before anything is prepared.  If the final state raises
    `DegenerateDynamicsError`, every shot's sample is None.  The result
    reports the driven schedule: theta0 and phi_final as fixed by the
    preparation and the drive node's output pin.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    uniforms = _shot_uniforms(seed, shots)
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
        pos, probs = _draw(final, uniforms)
        # The sum of a contiguous masked copy, as a trajectory's alpha_sq.
        good_prob = float(sum_probs(probs.compress(prep.mask.bits)))
        drawn = prep.state.codes[pos].tolist()
        # Each distinct drawn state is formatted once.
        names = {k: index_assignment(net.nodes, k) for k in set(drawn)}
        samples = tuple(map(names.__getitem__, drawn))
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
    if 1.0 - p_good == 1.0:
        raise ValueError("p_good is below float resolution: 1 - p_good is 1")
    n = math.ceil(math.log(1.0 - confidence) / math.log(1.0 - p_good))
    # Guard against floating point sitting exactly on the boundary.
    while 1.0 - (1.0 - p_good) ** n < confidence:
        n += 1
    while n > 1 and 1.0 - (1.0 - p_good) ** (n - 1) >= confidence:
        n -= 1
    return n
