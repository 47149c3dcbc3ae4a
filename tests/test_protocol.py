"""Prepare / drive / measure / decide pipeline and its statistics."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statnet import dynamics, hilbert, protocol
from statnet.cli import main
from statnet.dynamics import DriveSchedule, evolve, final_amps
from statnet.errors import DegenerateDynamicsError, UnpreparableNetworkError
from statnet.hilbert import (
    StateVector,
    basis_index,
    basis_state,
    index_assignment,
    node_bit,
    probabilities,
    reduced_diag,
)
from statnet.network import (
    Gate,
    Network,
    Pin,
    TruthTable,
    assignment_satisfies,
    brute_force_solutions,
    builtin_fig1,
    builtin_fig1_unsat,
    parse_network,
    render,
)
from statnet.protocol import (
    measure_sample,
    network_hash,
    prepare_ground,
    repetition_bound,
    run_protocol,
)
from statnet.statics import (
    gate_mask,
    network_hamiltonian,
    network_mask,
    pin_mask,
    support,
)

SCHED = DriveSchedule(kind="linear-ramp", tau=1.0, dt=1e-3)


def dense(state):
    """The state's amplitudes over all 2^n basis states."""
    amps = np.zeros(state.dim)
    amps[state.codes] = state.amps
    return amps


# --- preparation -------------------------------------------------------------

def test_prepare_fig1_support():
    net = builtin_fig1()
    prep = prepare_ground(net)
    expected = np.zeros(256)
    expected[basis_index(net.nodes, "01010000")] = 1 / math.sqrt(2)
    expected[basis_index(net.nodes, "11101011")] = 1 / math.sqrt(2)
    assert np.allclose(dense(prep.state), expected)
    assert prep.theta == pytest.approx(math.pi / 4)


def test_prepare_ignores_output_pins():
    sat = prepare_ground(builtin_fig1())
    unsat = prepare_ground(builtin_fig1_unsat())
    assert np.array_equal(dense(sat.state), dense(unsat.state))


def test_prepare_single_free_node():
    net = parse_network("nodes a\n")
    prep = prepare_ground(net)
    assert np.allclose(dense(prep.state), [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_prepare_zero_energy_under_all_constraints():
    net = builtin_fig1()
    prep = prepare_ground(net)
    masks = [gate_mask(net, g) for g in net.gates]
    masks += [pin_mask(net, p) for p in net.pins if p.kind == "input"]
    for mask in masks:
        assert not dense(prep.state)[~mask.bits].any()


def test_prepare_unconstrained_input_marginals_nonzero():
    net = builtin_fig1()
    prep = prepare_ground(net)
    # Node a is the only unconstrained input; both of its sectors carry mass.
    d = reduced_diag(prep.state, "a")
    assert d.p0 > 0 and d.p1 > 0


def test_prepare_contradictory_inputs_raise():
    net = parse_network("nodes a b\nlink a -> b\nfix a=0 input\nfix b=0 input\n")
    with pytest.raises(UnpreparableNetworkError):
        prepare_ground(net)


def test_prepare_rejects_unknown_leak_model():
    # An underscore for the hyphen would otherwise decide as "none".
    with pytest.raises(ValueError, match="'uniform_excited'"):
        prepare_ground(builtin_fig1(), "uniform_excited")


def test_prepare_stores_only_the_support():
    prep = prepare_ground(builtin_fig1())
    assert prep.state.dim == 256 and prep.support_size == 2
    assert prep.state.codes.tolist() == [0b01010000, 0b11101011]
    assert prep.mask.bits.tolist() == [True, True]


# The link forces b = 0 under a = 1, so the drive sector b = 1 holds no
# support state.
STUCK = parse_network("nodes a b\nlink a -> b\nfix a=1 input\n"
                      "fix b=1 output\ndrive b\n")


def test_prepare_leak_stores_the_empty_drive_sector():
    assert prepare_ground(STUCK).state.codes.tolist() == [0b10]
    prep = prepare_ground(STUCK, "uniform-excited")
    assert prep.state.codes.tolist() == [0b01, 0b10, 0b11]
    assert prep.mask.bits.tolist() == [False, True, False]
    assert np.array_equal(dense(prep.state), [0, 0, 1, 0])
    assert (prep.n_sector0, prep.n_sector1) == (1, 0)


def test_prepare_leak_skips_the_empty_sector_the_pin_does_not_ask_for():
    # The pin asks for b = 0, which holds the support: the drive never
    # demands mass in the empty sector b = 1.
    held = parse_network("nodes a b\nlink a -> b\nfix a=1 input\n"
                         "fix b=0 output\ndrive b\n")
    prep = prepare_ground(held, "uniform-excited")
    assert prep.state.codes.tolist() == [0b10]
    assert prep.mask.bits.tolist() == [True]


def test_recorded_points_share_the_prepared_codes():
    prep = prepare_ground(builtin_fig1())
    traj = evolve(prep.state, prep.mask, "h",
                  protocol._drive_schedule_for(builtin_fig1(), prep, SCHED))
    assert all(np.array_equal(p.state.codes, prep.state.codes)
               and not p.state.codes.flags.writeable for p in traj.points)


# --- single shots ------------------------------------------------------------

def test_run_once_lands_on_solution():
    result = run_protocol(builtin_fig1(), SCHED, shots=1, seed=0)
    assert result.samples == ("11101011",)
    assert result.n_solutions == 1
    assert result.good_universe_prob_final == pytest.approx(1.0, abs=1e-9)


def test_run_once_unsat_sample_fails_offline_check():
    net = builtin_fig1_unsat()
    result = run_protocol(net, SCHED, shots=1, seed=0)
    (sample,) = result.samples
    assert not assignment_satisfies(net, sample, include_pins=True)
    assert result.n_solutions == 0


def test_run_once_requires_drive_node():
    net = parse_network("nodes a\n")
    with pytest.raises(ValueError, match="no drive node"):
        run_protocol(net, SCHED, shots=1, seed=0)


# --- measurement -------------------------------------------------------------

def test_measure_basis_state_deterministic():
    rng = np.random.default_rng(1)
    v = basis_state(("r", "s"), "10")
    assert all(measure_sample(v, rng) == "10" for _ in range(20))


def test_measure_bell_statistics():
    rng = np.random.default_rng(12345)
    v = StateVector(("r", "s"),
                    np.array([1, 0, 0, 1]) / math.sqrt(2))
    counts = {"00": 0, "11": 0}
    for _ in range(10000):
        counts[measure_sample(v, rng)] += 1
    # binomial 3-sigma band: 5000 +- 150
    assert abs(counts["00"] - 5000) <= 150
    assert abs(counts["11"] - 5000) <= 150


def test_measure_never_draws_zero_amplitude():
    rng = np.random.default_rng(7)
    v = StateVector(("r", "s"), np.array([0, 1, 1, 0]) / math.sqrt(2))
    for _ in range(200):
        assert measure_sample(v, rng) in ("01", "10")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((0.0, 1.0, 1e-9)) | st.floats(0.0, 2.0),
                min_size=4, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_measure_draws_what_rng_choice_draws(weights, seed):
    v = StateVector(("r", "s"), np.sqrt(weights) * [1, -1, -1, 1])
    probs = probabilities(v.amps)
    if not probs.sum():
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            np.random.default_rng(seed).choice(4, p=probs / probs.sum())
        with pytest.raises(ValueError):
            measure_sample(v, np.random.default_rng(seed))
        return
    rng, reference = (np.random.default_rng(seed) for _ in range(2))
    for _ in range(5):
        k = reference.choice(4, p=probs / probs.sum())
        assert measure_sample(v, rng) == format(k, "02b")


def choice_positions(probs, uniforms):
    """The positions `Generator.choice(probs.size, p=probs / probs.sum())`
    draws for these uniforms, by its own steps: normalise, accumulate, scale
    the cumulative sum to end at 1 and search it on the right."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def check_draw_at_boundaries():
    """`_draw` at uniforms on a cumulative boundary and just below 1.

    On [0.5, 0.5], u = 0.5 lies on the boundary and draws position 1.  The
    37th `random(7)` of `default_rng(0)` has a normalised cumulative sum
    that ends at 0.9999999999999998, so u = 1 - 2^-53 lies past its end
    before the rescale, and draws the last position after it.
    """
    rng = np.random.default_rng(0)
    for _ in range(37):
        weights = rng.random(7)
    assert (weights / weights.sum()).cumsum()[-1] == 0.9999999999999998
    for amps, u, want in ((np.sqrt([0.5, 0.5]), 0.5, 1),
                          (np.sqrt(weights), 1 - 2.0 ** -53, 6)):
        probs = probabilities(amps)
        cdf = (probs / probs.sum()).cumsum()
        # Every boundary, the float just below it, and both ends of [0, 1).
        uniforms = np.concatenate([[0.0, u, 1 - 2.0 ** -53],
                                   cdf[cdf < 1], np.nextafter(cdf, 0)])
        pos, drawn_from = protocol._draw(amps, uniforms)
        assert pos[1] == choice_positions(probs, u) == want
        assert pos.tolist() == choice_positions(probs, uniforms).tolist()
        assert pos.max() < amps.size
        assert drawn_from.tolist() == probs.tolist()


def test_draw_at_boundary_uniforms_matches_choice():
    check_draw_at_boundaries()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 140), st.integers(1, 2000))
@example(2 ** 32 - 1, 3)
@example(2 ** 32, 3)
@example(2 ** 128, 3)
def test_shot_uniforms_are_default_rng_first_draws(seed, shots):
    # Seeds of one to five 32-bit words, shot indices of one.
    reference = [np.random.default_rng([seed, s]).random() for s in range(shots)]
    assert protocol._shot_uniforms(seed, shots).tolist() == reference


# --- full protocol -----------------------------------------------------------

def test_protocol_fig1_satisfiable():
    res = run_protocol(builtin_fig1(), SCHED, shots=20, seed=0)
    assert res.decision == "satisfiable"
    assert res.confidence == 1.0
    assert res.n_solutions == 20
    assert set(res.samples) == {"11101011"}


def test_protocol_unsat_variant():
    res = run_protocol(builtin_fig1_unsat(), SCHED, shots=20, seed=0)
    assert res.decision == "unsatisfiable"
    assert res.n_solutions == 0
    assert res.confidence == pytest.approx(1.0 - 0.5 ** 20)


def test_protocol_deterministic():
    a = run_protocol(builtin_fig1(), SCHED, shots=5, seed=42)
    b = run_protocol(builtin_fig1(), SCHED, shots=5, seed=42)
    assert a == b


def test_protocol_soundness():
    # Every shot counted as a solution passes the exhaustive oracle.
    net = builtin_fig1()
    res = run_protocol(net, SCHED, shots=10, seed=3)
    for s in res.samples:
        assert assignment_satisfies(net, s, include_pins=True)


# Three independent links driven on the last: the final state spreads over
# the four assignments of the free links.
THREE_LINKS = parse_network("nodes x0 y0 x1 y1 x2 y2\nlink x0 -> y0\n"
                            "link x1 -> y1\nlink x2 -> y2\n"
                            "fix y2=1 output\ndrive y2\n")


@pytest.mark.parametrize("shots", [1, 100, 10 ** 4])
def test_samples_equal_per_shot_formatting(shots):
    res = run_protocol(THREE_LINKS, SCHED, shots=shots, seed=5)
    prep = prepare_ground(THREE_LINKS)
    final = final_amps(prep.state.amps, prep.mask.bits,
                       prep.state.sectors(THREE_LINKS.drive_node),
                       res.schedule, "none")
    pos, _ = protocol._draw(final, protocol._shot_uniforms(5, shots))
    assert res.samples == tuple(index_assignment(THREE_LINKS.nodes, k)
                                for k in prep.state.codes[pos].tolist())
    assert len(set(res.samples)) == min(shots, 4)


def test_protocol_rejects_zero_shots():
    with pytest.raises(ValueError):
        run_protocol(builtin_fig1(), SCHED, shots=0, seed=0)


def test_protocol_rejects_shot_indices_past_one_word(monkeypatch):
    # Refused before anything is prepared or allocated.
    monkeypatch.setattr(protocol, "prepare_ground", None)
    with pytest.raises(ValueError, match=r"shots must be <= 2\*\*32"):
        run_protocol(builtin_fig1(), SCHED, shots=2 ** 32 + 1, seed=0)


def test_protocol_json_roundtrip_fields():
    res = run_protocol(builtin_fig1(), SCHED, shots=3, seed=9)
    d = res.to_json_dict()
    assert set(d) == {"network_hash", "shots", "seed", "schedule", "decision",
                      "confidence", "n_solutions", "samples",
                      "good_universe_prob_final"}
    assert d["shots"] == 3 and len(d["samples"]) == 3


def test_network_hash_distinguishes_variants():
    assert network_hash(builtin_fig1()) != network_hash(builtin_fig1_unsat())
    assert network_hash(builtin_fig1()) == network_hash(builtin_fig1())


def test_protocol_builds_each_mask_once_per_decision(monkeypatch):
    # One join gives the support; the solutions are a bit test on it.
    calls = []
    real = protocol.support

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "support", counted)
    run_protocol(builtin_fig1(), SCHED, shots=5, seed=0)
    assert calls == [{"include_output_pins": False}]
    assert not hasattr(protocol, "network_mask")


@pytest.mark.parametrize("shots", [1, 50])
def test_protocol_evolves_once_per_decision(monkeypatch, shots):
    # The decision computes the final state once and never steps.
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(protocol, "final_amps",
                        counted("final_amps", protocol.final_amps))
    monkeypatch.setattr(dynamics, "evolve", counted("evolve", evolve))
    run_protocol(builtin_fig1(), SCHED, shots=shots, seed=0)
    assert calls == ["final_amps"]
    assert not hasattr(protocol, "evolve")


# Three links, each output pinned: one decision reads three output bits.
THREE_OUTPUTS = parse_network("nodes x0 y0 x1 y1 x2 y2\nlink x0 -> y0\n"
                              "link x1 -> y1\nlink x2 -> y2\n"
                              "fix y0=1 output\nfix y1=0 output\n"
                              "fix y2=1 output\ndrive y2\n")


@pytest.mark.parametrize("net", [builtin_fig1(), THREE_OUTPUTS],
                         ids=["fig1", "three-outputs"])
def test_protocol_splits_drive_sectors_once_per_decision(monkeypatch, net):
    # The drive sectors are split once, for `final_amps`; theta0 and the
    # solution flags read the drive and output bits without `sectors`.
    calls = []
    real = StateVector.sectors

    def counted(self, node):
        calls.append(node)
        return real(self, node)

    def refused(*args):
        raise AssertionError("reduced_diag called")

    monkeypatch.setattr(StateVector, "sectors", counted)
    monkeypatch.setattr(hilbert, "reduced_diag", refused)
    run_protocol(net, SCHED, shots=5, seed=0)
    assert calls == [net.drive_node]
    assert not hasattr(protocol, "reduced_diag")


def test_good_universe_probability_reported():
    res = run_protocol(builtin_fig1(), SCHED, shots=2, seed=0)
    assert res.good_universe_prob_final == pytest.approx(1.0, abs=1e-9)


# --- repetition statistics ---------------------------------------------------

def test_repetition_bound_half():
    assert repetition_bound(0.5, 0.99) == 7


def test_repetition_bound_certain():
    assert repetition_bound(1.0, 0.99) == 1


def test_repetition_bound_rare():
    assert repetition_bound(0.01, 0.99) == 459


def test_repetition_bound_monotone_in_confidence():
    assert repetition_bound(0.3, 0.999) >= repetition_bound(0.3, 0.9)


def test_repetition_bound_validates_inputs():
    with pytest.raises(ValueError):
        repetition_bound(0.0, 0.9)
    with pytest.raises(ValueError):
        repetition_bound(0.5, 1.0)


@pytest.mark.parametrize("p_good", [1e-17, 2.0 ** -54, 5e-324])
def test_repetition_bound_rejects_p_good_below_float_resolution(p_good):
    # 1 - p_good rounds to 1, so no n can reach the confidence.
    with pytest.raises(ValueError, match="below float resolution"):
        repetition_bound(p_good, 0.5)


def test_repetition_bound_smallest_resolvable_p_good():
    # 1 - 2^-53 is the double just below 1: the bound is finite and tight.
    n = repetition_bound(2.0 ** -53, 0.5)
    assert 1.0 - (1.0 - 2.0 ** -53) ** n >= 0.5
    assert 1.0 - (1.0 - 2.0 ** -53) ** (n - 1) < 0.5


# --- mask against the string oracle ------------------------------------------

@st.composite
def small_networks(draw):
    """1-2 random gates over 2-5 nodes, random pins, a driven output pin."""
    nodes = tuple("abcde"[:draw(st.integers(2, 5))])
    gates = []
    for i in range(draw(st.integers(1, 2))):
        order = draw(st.permutations(nodes))
        n_in = draw(st.integers(1, min(2, len(nodes) - 1)))
        n_out = draw(st.integers(1, min(2, len(nodes) - n_in)))
        ins = draw(st.lists(st.integers(0, 2 ** n_in - 1), min_size=1,
                            unique=True))
        rows = tuple((format(k, f"0{n_in}b"),
                      format(draw(st.integers(0, 2 ** n_out - 1)), f"0{n_out}b"))
                     for k in sorted(ins))
        gates.append(Gate(f"g{i}", tuple(order[:n_in]),
                          tuple(order[n_in:n_in + n_out]),
                          TruthTable(n_in, n_out, rows)))
    drive = draw(st.sampled_from(nodes))
    pins = [Pin(drive, draw(st.integers(0, 1)), "output")]
    for node in nodes:
        kind = draw(st.sampled_from((None, "input", "output")))
        if node != drive and kind:
            pins.append(Pin(node, draw(st.integers(0, 1)), kind))
    return Network(nodes, tuple(gates), tuple(pins), drive)


@st.composite
def wide_networks(draw):
    """1-6 random gates over 3-9 nodes, random pins, a driven output pin.

    Each gate has 0-3 inputs and 0-2 outputs, not both 0, and 1 to
    2^inputs rows, so the join order, gates shared across several joins,
    gates without inputs or outputs and free nodes all occur.  In three
    draws of four, every gate's table holds the row that a witness
    assignment takes and every input pin holds the witness's value, so the
    input-constrained support is not empty; the other draws are
    unconstrained, and their support is often empty.
    """
    nodes = tuple("abcdefghi"[:draw(st.integers(3, 9))])
    witness = dict(zip(nodes, draw(st.lists(
        st.sampled_from("01"), min_size=len(nodes), max_size=len(nodes)))))
    agree = draw(st.integers(0, 3)) > 0
    gates = []
    for i in range(draw(st.integers(1, 6))):
        n_in = draw(st.integers(0, 3))
        n_out = draw(st.integers(0 if n_in else 1,
                                 min(2, len(nodes) - n_in)))
        order = draw(st.permutations(nodes))
        ins = draw(st.lists(st.integers(0, 2 ** n_in - 1), min_size=1,
                            unique=True))
        rows = {format(k, f"0{n_in}b") if n_in else "":
                format(draw(st.integers(0, 2 ** n_out - 1)), f"0{n_out}b")
                if n_out else "" for k in ins}
        if agree:
            rows["".join(witness[x] for x in order[:n_in])] = "".join(
                witness[x] for x in order[n_in:n_in + n_out])
        gates.append(Gate(f"g{i}", tuple(order[:n_in]),
                          tuple(order[n_in:n_in + n_out]),
                          TruthTable(n_in, n_out, tuple(sorted(rows.items())))))
    drive = draw(st.sampled_from(nodes))
    pins = [Pin(drive, draw(st.integers(0, 1)), "output")]
    for node in nodes:
        kind = draw(st.sampled_from((None, None, "input", "output")))
        if node != drive and kind:
            value = draw(st.integers(0, 1))
            if agree and kind == "input":
                value = int(witness[node])
            pins.append(Pin(node, value, kind))
    return Network(nodes, tuple(gates), tuple(pins), drive)


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.integers(0, 2 ** 16))
def test_mask_kernel_matches_string_oracle(net, seed):
    inputs_only = Network(net.nodes, net.gates,
                          tuple(p for p in net.pins if p.kind == "input"))
    expected = [basis_index(net.nodes, a)
                for a in brute_force_solutions(inputs_only)]
    if not expected:
        with pytest.raises(UnpreparableNetworkError):
            prepare_ground(net)
        return
    assert np.flatnonzero(dense(prepare_ground(net).state)).tolist() == expected

    sched = DriveSchedule(kind="linear-ramp", tau=1.0, dt=1e-2)
    res = run_protocol(net, sched, shots=3, seed=seed)
    assert res.n_solutions == sum(
        1 for s in res.samples
        if s is not None and assignment_satisfies(net, s, include_pins=True))


def check_support_against_oracles(net, include_output_pins):
    codes = support(net, include_output_pins)
    assert codes.dtype == np.int64
    mask = network_mask(net, include_output_pins)
    assert codes.tolist() == np.flatnonzero(mask.bits).tolist()
    oracle = Network(net.nodes, net.gates,
                     tuple(p for p in net.pins
                           if p.kind == "input" or include_output_pins))
    assert codes.tolist() == [basis_index(net.nodes, a)
                              for a in brute_force_solutions(oracle)]


@settings(max_examples=100, deadline=None)
@given(small_networks(), st.booleans())
def test_support_matches_mask_and_string_oracle(net, include_output_pins):
    check_support_against_oracles(net, include_output_pins)


@settings(max_examples=200, deadline=None)
@given(wide_networks(), st.booleans())
def test_support_of_wide_networks_matches_oracles(net, include_output_pins):
    check_support_against_oracles(net, include_output_pins)


def check_masks_against_string_oracle(net):
    """Each gate's mask is the string oracle of the gate alone, and each
    pin's mask the test of its node's bit, at every basis state."""
    assignments = [index_assignment(net.nodes, k) for k in range(net.dim)]
    for g in net.gates:
        alone = Network(net.nodes, (g,))
        assert gate_mask(net, g).bits.tolist() == [
            assignment_satisfies(alone, a) for a in assignments], g.name
    for p in net.pins:
        bit = 1 << (net.n_nodes - 1 - net.nodes.index(p.node))
        assert pin_mask(net, p).bits.tolist() == [
            bool(k & bit) == bool(p.value) for k in range(net.dim)], p.node


@settings(max_examples=100, deadline=None)
@given(small_networks())
def test_gate_and_pin_masks_match_string_oracle(net):
    check_masks_against_string_oracle(net)


@settings(max_examples=100, deadline=None)
@given(wide_networks())
def test_gate_and_pin_masks_of_wide_networks_match_string_oracle(net):
    check_masks_against_string_oracle(net)


def check_run_against_dense_stepper(net, kind, seed, leak_model, shots):
    """The stored run agrees with the dense stepper on the dense preparation.

    Its batched draw gives the samples of one `measure_sample` per shot.
    """
    if not support(net, include_output_pins=False).size:
        return
    sched = DriveSchedule(kind=kind, tau=1.0, dt=0.1)
    res = run_protocol(net, sched, shots=shots, seed=seed,
                       leak_model=leak_model)
    prep = prepare_ground(net, leak_model)
    assert not prep.state.amps[~prep.mask.bits].any()

    dense_state = StateVector(net.nodes, dense(prep.state))
    try:
        final = evolve(dense_state, network_mask(net, False), net.drive_node,
                       res.schedule, leak_model=leak_model).final_state
    except DegenerateDynamicsError:
        assert res.decision == "inconclusive"
        return
    stored = StateVector(net.nodes, final_amps(
        prep.state.amps, prep.mask.bits, prep.state.sectors(net.drive_node),
        res.schedule, leak_model), prep.state.codes)
    assert np.abs(dense(stored) - final.amps).max() <= 1e-14

    samples = tuple(measure_sample(final, np.random.default_rng([seed, shot]))
                    for shot in range(shots))
    solutions = network_mask(net).bits
    n_solutions = sum(solutions[basis_index(net.nodes, s)] for s in samples)
    assert res.samples == samples
    assert res.n_solutions == n_solutions
    assert res.decision == ("satisfiable" if n_solutions else "unsatisfiable")


LEAK_MODELS = st.sampled_from(("none", "uniform-excited"))


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.integers(0, 2 ** 16), LEAK_MODELS,
       st.integers(1, 64))
def test_support_run_matches_dense_stepper(net, seed, leak_model, shots):
    check_run_against_dense_stepper(net, "cosine-ramp", seed, leak_model,
                                    shots)


@settings(max_examples=100, deadline=None)
@given(wide_networks(), st.sampled_from(dynamics.SCHEDULE_KINDS),
       st.integers(0, 2 ** 16), LEAK_MODELS, st.integers(1, 64))
def test_wide_run_matches_dense_stepper(net, kind, seed, leak_model, shots):
    check_run_against_dense_stepper(net, kind, seed, leak_model, shots)


def leak_oracle(net):
    """The codes and mask that `prepare_ground(net, "uniform-excited")`
    stores, by bit insertion.

    When the drive pin asks for a drive sector that holds no support state,
    that sector is every code of the other n-1 nodes with the drive bit
    inserted at the pinned value, and the support is merged into it.
    """
    codes = support(net, include_output_pins=False)
    bit = node_bit(net.nodes, net.drive_node)
    value = net.pin(net.drive_node).value
    if ((codes & bit != 0) == value).any():
        return codes, np.ones(codes.size, dtype=bool)
    rest = np.arange(net.dim // 2, dtype=np.int64)
    sector = ((rest & -bit) << 1) | (rest & (bit - 1)) | (bit * value)
    merged = np.union1d(codes, sector)
    return merged, np.isin(merged, codes)


def check_leak_preparation(net):
    """Both preparations against the oracle: the stored codes and mask, and
    theta0 from the reduced diagonal of the prepared state, bit for bit.

    It reads `protocol.prepare_ground` at each call, so a patched-in
    replacement is what it checks."""
    if not support(net, include_output_pins=False).size:
        return
    for leak_model in ("none", "uniform-excited"):
        prep = protocol.prepare_ground(net, leak_model)
        if leak_model == "uniform-excited":
            codes, mask = leak_oracle(net)
            assert prep.state.codes.tolist() == codes.tolist()
            assert prep.mask.bits.tolist() == mask.tolist()
        p1 = reduced_diag(prep.state, net.drive_node).p1
        assert prep.theta == math.asin(math.sqrt(min(p1, 1.0)))


def pinned_drive_net(drive, value):
    """Five nodes; the drive node is the NOT of an input pinned to `value`,
    so its output pin, at `value` too, asks for the drive sector that holds
    no support state.  Two other nodes are linked, one is free."""
    nodes = "abcde"
    src = nodes[(nodes.index(drive) + 1) % 5]
    u, v = [n for n in nodes if n not in (drive, src)][:2]
    return parse_network(f"nodes {' '.join(nodes)}\nlink {src} -> {drive}\n"
                         f"link {u} -> {v}\nfix {src}={value} input\n"
                         f"fix {drive}={value} output\ndrive {drive}\n")


@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("drive", ["a", "c", "e"])
def test_leak_sector_when_the_drive_is_first_middle_or_last(drive, value):
    net = pinned_drive_net(drive, value)
    prep = prepare_ground(net, "uniform-excited")
    # 4 support states, 16 in the pinned drive sector.
    assert (prep.state.codes.size, prep.support_size) == (20, 4)
    check_leak_preparation(net)


@settings(max_examples=200, deadline=None)
@given(wide_networks())
def test_leak_sector_and_theta0_of_wide_networks_match_oracle(net):
    check_leak_preparation(net)


def test_leak_sector_past_the_node_limit_is_refused():
    # 12 links and a free node: the pinned sector of y11 = 1 is empty.
    net = parse_network(
        "nodes z " + " ".join(f"x{i} y{i}" for i in range(12)) + "\n"
        + "".join(f"link x{i} -> y{i}\n" for i in range(12))
        + "fix x11=1 input\nfix y11=1 output\ndrive y11\n")
    assert prepare_ground(net).support_size == 2 ** 12
    with pytest.raises(ValueError,
                       match="^25 nodes exceeds enumeration limit 24$"):
        prepare_ground(net, "uniform-excited")


def violations(net, include_output_pins):
    """Per basis state, the number of gates and pins it violates.

    The count comes from the string oracle: a gate is violated when its
    one-gate sub-network is, and a pin when the node's bit differs.
    """
    pos = {n: i for i, n in enumerate(net.nodes)}
    pins = [p for p in net.pins if p.kind == "input" or include_output_pins]
    counts = []
    for k in range(net.dim):
        a = format(k, f"0{net.n_nodes}b")
        counts.append(
            sum(not assignment_satisfies(Network(net.nodes, (g,)), a)
                for g in net.gates)
            + sum(a[pos[p.node]] != str(p.value) for p in pins))
    return np.array(counts, dtype=float)


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.floats(min_value=0.01, max_value=10.0))
def test_penalty_counts_violated_constraints(net, energy):
    """Each basis state's penalty is `energy` per gate and pin it violates."""
    h = network_hamiltonian(net, energy, include_output_pins=True)
    assert h.energies == pytest.approx(energy * violations(net, True),
                                       rel=1e-12)


@pytest.mark.parametrize("include_output_pins", [False, True])
@pytest.mark.parametrize("net", [builtin_fig1(), builtin_fig1_unsat()],
                         ids=["fig1", "fig1-unsat"])
def test_default_penalty_equals_violation_count(net, include_output_pins):
    # `check --dump` prints these floats, so they must be exact.
    h = network_hamiltonian(net, include_output_pins=include_output_pins)
    assert np.array_equal(h.energies, violations(net, include_output_pins))


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.booleans())
def test_default_penalty_equals_violation_count_random(net,
                                                       include_output_pins):
    h = network_hamiltonian(net, include_output_pins=include_output_pins)
    assert np.array_equal(h.energies, violations(net, include_output_pins))


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_check_ground_space_sizes_match_gate_masks(tmp_path_factory, net):
    # `check` counts each gate's ground space without building its mask.
    folder = tmp_path_factory.mktemp("check")
    (folder / "net.txt").write_text(render(net))
    assert main(["check", "--network", str(folder / "net.txt"),
                 "--out", str(folder / "out.txt")]) == 0
    printed = [line.split("ground-space size ")[1].split(" of ")[0]
               for line in (folder / "out.txt").read_text().splitlines()
               if line.startswith("gate ")]
    assert printed == [str(gate_mask(net, g).support_size())
                       for g in net.gates]
