"""Constraint masks and penalty Hamiltonians (all diagonal operators)."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statnet.hilbert import StateVector, basis_index, basis_state
from statnet.network import (
    Gate,
    Network,
    TruthTable,
    brute_force_solutions,
    builtin_fig1,
    builtin_fig1_unsat,
    parse_network,
)
from statnet.statics import (
    ConstraintMask,
    gate_hamiltonian,
    gate_mask,
    ground_space,
    network_hamiltonian,
    network_mask,
    pin_mask,
    support,
)
from test_protocol import check_support_against_oracles
from test_run_corpus import wide_dsl

LINK_NET = parse_network("nodes r s\nlink r -> s\n")
XOR_NET = parse_network(
    "nodes t u v\ngate x in(t,u) out(v) { 00->0 ; 01->1 ; 10->1 ; 11->0 }\n")


def test_link_mask_bits():
    mask = gate_mask(LINK_NET, LINK_NET.gates[0])
    assert np.array_equal(mask.bits, [0, 1, 1, 0])


def test_mask_bits_are_boolean():
    net = builtin_fig1()
    masks = [gate_mask(net, g) for g in net.gates]
    masks += [pin_mask(net, p) for p in net.pins]
    masks += [network_mask(net), ConstraintMask(4, np.array([1, 0, 0, 1]))]
    assert all(m.bits.dtype == bool for m in masks)


def test_xor_mask_support():
    mask = gate_mask(XOR_NET, XOR_NET.gates[0])
    assert mask.support() == [0b000, 0b011, 0b101, 0b110]


def test_all_patterns_gate_gives_all_ones():
    from statnet.network import Gate, Network, TruthTable
    table = TruthTable(2, 0, (("00", ""), ("01", ""), ("10", ""), ("11", "")))
    net = Network(("a", "b"), (Gate("free", ("a", "b"), (), table),))
    assert gate_mask(net, net.gates[0]).support_size() == 4


def test_constant_output_gate_mask():
    net = parse_network("nodes a b\ngate g in(a) out(b) { 0->0 ; 1->0 }\n")
    mask = gate_mask(net, net.gates[0])
    assert mask.support() == [0, 2]


def test_pin_mask_half_space():
    net = builtin_fig1()
    assert pin_mask(net, net.pin("b")).support_size() == 128


def test_pin_mask_single_node():
    net = parse_network("nodes a\nfix a=0\n")
    assert np.array_equal(pin_mask(net, net.pins[0]).bits, [1, 0])


def test_pin_conjunction_32():
    net = builtin_fig1()
    bits = np.ones(net.dim)
    for p in net.pins:
        bits *= pin_mask(net, p).bits
    assert bits.sum() == 32


def test_network_mask_unique_solution():
    net = builtin_fig1()
    mask = network_mask(net, include_output_pins=True)
    assert mask.support() == [basis_index(net.nodes, "11101011")]


def test_network_mask_without_output_pins():
    net = builtin_fig1()
    mask = network_mask(net, include_output_pins=False)
    assert mask.support() == [basis_index(net.nodes, "01010000"),
                              basis_index(net.nodes, "11101011")]


def test_network_mask_no_constraints_all_ones():
    net = parse_network("nodes a b\n")
    assert network_mask(net).support_size() == 4


def _mean_energy(v, h):
    """<v|H|v> of a diagonal H."""
    return float(h.energies @ np.abs(v.amps) ** 2)


def test_gate_hamiltonian_zero_on_rows():
    h = gate_hamiltonian(LINK_NET, LINK_NET.gates[0])
    v = basis_state(("r", "s"), "01")
    assert _mean_energy(v, h) == 0.0


def test_gate_hamiltonian_penalty_off_rows():
    h = gate_hamiltonian(LINK_NET, LINK_NET.gates[0], energy=2.5)
    assert _mean_energy(basis_state(("r", "s"), "00"), h) == 2.5


def test_gate_hamiltonian_rejects_nonpositive():
    with pytest.raises(ValueError):
        gate_hamiltonian(LINK_NET, LINK_NET.gates[0], energy=0.0)


def test_pin_hamiltonian_scales_with_sector_mass():
    theta = 0.3
    e_z = 0.01
    net = parse_network("nodes r s\nfix r=1\n")
    h = network_hamiltonian(net, energy=e_z)
    v = StateVector(("r", "s"),
                    np.array([0, math.cos(theta), math.sin(theta), 0]))
    assert _mean_energy(v, h) == pytest.approx(e_z * math.cos(theta) ** 2)


def test_pin_hamiltonian_eigenstates():
    net = parse_network("nodes r s\nfix s=0\n")
    h = network_hamiltonian(net, energy=0.7)
    assert _mean_energy(basis_state(("r", "s"), "00"), h) == 0.0
    assert _mean_energy(basis_state(("r", "s"), "01"), h) == 0.7


def test_total_hamiltonian_zero_set_is_intersection():
    # Gates and input pins only: the two preparable assignments.
    assert len(ground_space(network_hamiltonian(builtin_fig1()))) == 2


def test_total_with_output_pin_singles_out_solution():
    net = builtin_fig1()
    h = network_hamiltonian(net, include_output_pins=True)
    assert ground_space(h) == [basis_index(net.nodes, "11101011")]


def test_total_hamiltonian_empty_list():
    h = network_hamiltonian(parse_network("nodes a b\n"))
    assert np.array_equal(h.energies, np.zeros(4))


def test_violation_count_past_255_gates():
    # The count array widens with the number of constraints instead of
    # wrapping at 256.
    net = parse_network("nodes a b\n" + "".join(
        f"gate g{i} in(a) out(b) {{ 0->1 ; 1->0 }}\n" for i in range(300)))
    assert network_hamiltonian(net).energies.tolist() == [300, 0, 0, 300]


def test_link_state_energy_zero_for_any_theta():
    h = gate_hamiltonian(LINK_NET, LINK_NET.gates[0])
    for theta in np.linspace(0, math.pi / 2, 7):
        v = StateVector(("r", "s"),
                        np.array([0, math.cos(theta), math.sin(theta), 0]))
        assert _mean_energy(v, h) == 0.0


def test_expected_energy_uniform_state():
    net = parse_network("nodes r s\nfix r=0\n")
    h = network_hamiltonian(net, energy=3.0)  # penalizes basis states 2 and 3
    v = StateVector(("r", "s"), np.full(4, 0.5, dtype=complex))
    assert _mean_energy(v, h) == pytest.approx(1.5)


def test_ground_space_link():
    h = gate_hamiltonian(LINK_NET, LINK_NET.gates[0])
    assert ground_space(h) == [1, 2]


def test_ground_space_xor_dimension_four():
    h = gate_hamiltonian(XOR_NET, XOR_NET.gates[0])
    assert len(ground_space(h)) == 4


def test_ground_space_zero_hamiltonian():
    h = network_hamiltonian(parse_network("nodes a b c\n"))
    assert ground_space(h) == list(range(8))


def test_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        ConstraintMask(4, np.array([0, 2, 1, 0]))


def test_network_mask_24_node_chain():
    # Four-node XOR blocks joined by links, at DEFAULT_NODE_LIMIT nodes.  With
    # every b pinned to 1, a0 is the only free bit: each block reads
    # a b c d = a0 1 a0 (not a0), and the output pin d5=1 selects a0 = 0.
    lines = ["nodes " + " ".join(f"{x}{i}" for i in range(6) for x in "abcd")]
    for i in range(6):
        lines += [f"gate g{i} in(a{i},b{i}) out(c{i},d{i}) "
                  "{ 00->00 ; 01->01 ; 10->11 ; 11->10 }", f"fix b{i}=1 input"]
        if i:
            lines.append(f"link d{i - 1} -> a{i}")
    net = parse_network("\n".join(lines) + "\nfix d5=1 output\n")
    assert network_mask(net, include_output_pins=False).support() == [
        basis_index(net.nodes, "0101" * 6), basis_index(net.nodes, "1110" * 6)]
    assert network_mask(net).support() == [basis_index(net.nodes, "0101" * 6)]


def test_unsat_network_mask_is_empty():
    assert network_mask(builtin_fig1_unsat()).support_size() == 0


@st.composite
def fig1_masks(draw):
    net = builtin_fig1()
    which = draw(st.integers(0, len(net.gates) + len(net.pins) - 1))
    if which < len(net.gates):
        return gate_mask(net, net.gates[which])
    return pin_mask(net, net.pins[which - len(net.gates)])


@given(fig1_masks())
def test_masks_idempotent(mask):
    assert np.array_equal(mask.bits * mask.bits, mask.bits)


@given(fig1_masks(), fig1_masks())
def test_masks_commute(m1, m2):
    assert np.array_equal(m1.bits * m2.bits, m2.bits * m1.bits)


@given(st.booleans())
def test_mask_matches_oracle(include_pins):
    net = builtin_fig1()
    mask = network_mask(net, include_output_pins=True) if include_pins \
        else ConstraintMask(net.dim, np.prod(
            [gate_mask(net, g).bits for g in net.gates], axis=0))
    oracle = brute_force_solutions(net, include_pins=include_pins)
    assert [basis_index(net.nodes, a) for a in oracle] == mask.support()


def test_ground_space_equals_mask_support():
    net = builtin_fig1()
    h = network_hamiltonian(net, include_output_pins=True)
    mask = network_mask(net, include_output_pins=True)
    assert ground_space(h) == mask.support()


def test_support_is_frozen_ascending_int64():
    codes = support(builtin_fig1(), include_output_pins=False)
    assert codes.dtype == np.int64 and not codes.flags.writeable
    assert codes.tolist() == [basis_index(builtin_fig1().nodes, "01010000"),
                              basis_index(builtin_fig1().nodes, "11101011")]


def test_support_of_unsat_network_is_empty():
    assert support(builtin_fig1_unsat()).size == 0


def test_support_expands_free_nodes():
    assert support(parse_network("nodes a b c\nfix b=1\n")).tolist() == \
        [2, 3, 6, 7]


def test_support_refuses_expansion_past_limit():
    net = parse_network("nodes " + " ".join(f"n{i}" for i in range(25)))
    with pytest.raises(ValueError, match="exceeds enumeration limit 2"):
        support(net)


def test_support_refuses_join_past_limit():
    # Two 13-input gates that allow every pattern and share no node.
    rows = tuple((format(k, "013b"), "") for k in range(2 ** 13))
    gates = tuple(Gate(f"g{j}", tuple(f"{x}{i}" for i in range(13)), (),
                       TruthTable(13, 0, rows)) for j, x in enumerate("xy"))
    net = Network(tuple(n for g in gates for n in g.nodes), gates)
    with pytest.raises(ValueError, match="exceeds enumeration limit 2"):
        support(net)


def test_support_refuses_more_nodes_than_codes_hold():
    net = parse_network("nodes " + " ".join(f"n{i}" for i in range(63)) +
                        "\nfix n0=1\n")
    with pytest.raises(ValueError, match="63 nodes exceeds basis-code limit 62"):
        support(net)


def test_support_peak_memory_is_a_few_times_its_codes():
    # 2^16 codes without the output pin and 2^15 with it, over 32 nodes.
    net = parse_network(wide_dsl(16, unsat=False))
    for include_output_pins, ratio in ((False, 4.5), (True, 6)):
        support(net, include_output_pins)  # warm-up
        tracemalloc.start()
        try:
            codes = support(net, include_output_pins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * codes.nbytes, (include_output_pins, peak)


def _table_gate(name, ins, out, f):
    """DSL line of a gate whose output is f(k) on input pattern k."""
    rows = " ; ".join(f"{k:0{len(ins)}b}->{f(k)}" for k in range(2 ** len(ins)))
    return f"gate {name} in({','.join(ins)}) out({out}) {{ {rows} }}"


def _parity(k):
    return k.bit_count() % 2


A_NODES = [f"a{i}" for i in range(9)]
# A 512-row parity gate whose inputs are free nodes, the outputs of links,
# or the inputs of a second 512-row gate (one join group per table row).
BIG_TABLE_NETS = {
    "free": "\n".join([
        "nodes " + " ".join(A_NODES) + " p f",
        _table_gate("par", A_NODES, "p", _parity),
        "fix a0=1 input", "fix p=1 output"]),
    "links": "\n".join([
        "nodes x0 x1 y0 y1 " + " ".join(A_NODES[2:]) + " p",
        "link x0 -> y0", "link x1 -> y1",
        _table_gate("par", ["y0", "y1"] + A_NODES[2:], "p", _parity),
        "fix x0=0 input", "fix p=0 output"]),
    "same-inputs": "\n".join([
        "nodes " + " ".join(A_NODES) + " p q",
        _table_gate("par", A_NODES, "p", _parity),
        _table_gate("maj", A_NODES, "q", lambda k: int(k.bit_count() > 4)),
        "fix a8=1 input", "fix q=1 output"]),
}


@pytest.mark.parametrize("include_output_pins", [False, True])
@pytest.mark.parametrize("name", sorted(BIG_TABLE_NETS))
def test_support_of_big_tables_matches_oracles(name, include_output_pins):
    net = parse_network(BIG_TABLE_NETS[name] + "\n")
    assert max(len(g.table.rows) for g in net.gates) == 512
    check_support_against_oracles(net, include_output_pins)
