"""DSL parsing, network validation, and the brute-force oracle."""
import itertools

import pytest
from hypothesis import example, given, strategies as st

from statnet.errors import ParseError
from statnet.network import (
    FIG1_XOR_ROWS,
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


def test_parse_fig1_structure():
    net = builtin_fig1()
    assert net.nodes == tuple("abcdefgh")
    assert len(net.gates) == 3
    assert {(p.node, p.value) for p in net.pins} == {("b", 1), ("f", 0), ("h", 1)}
    assert net.drive_node == "h"


def test_parse_non_binary_pin():
    with pytest.raises(ParseError):
        parse_network("nodes a\nfix a=2\n")


def test_parse_undeclared_gate_node():
    with pytest.raises(ParseError):
        parse_network("nodes a b\ngate g in(a) out(q) { 0->1 ; 1->0 }\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_network("nodes a\nfix a=2\n")


@pytest.mark.parametrize("gate", ["gate g in(a,a) out(b) { 00->0 ; 01->1 }",
                                  "gate g in(a) out(a,b) { 0->00 ; 1->11 }"])
def test_parse_gate_naming_a_node_twice(gate):
    with pytest.raises(ParseError, match="line 2.*appears twice"):
        parse_network(f"nodes a b\n{gate}\n")


@pytest.mark.parametrize("first,second", [
    ("gate g in(a) out(b) { 0->1 ; 1->0 }", "gate g in(b) out(c) { 0->1 ; 1->0 }"),
    ("link a -> b", "link a -> b"),
], ids=["gate", "link"])
def test_parse_gate_name_declared_twice(first, second):
    with pytest.raises(ParseError, match="line 4: gate '.*' declared twice"):
        parse_network(f"nodes a b c\n{first}\n# comment\n{second}\n")


def test_parse_comments_and_blank_lines():
    net = parse_network("# header\n\nnodes a b  # trailing\nlink a -> b\n")
    assert net.nodes == ("a", "b") and len(net.gates) == 1


def test_parse_multiline_gate_body():
    net = parse_network(
        "nodes t u v\ngate x in(t,u) out(v) {\n  00->0 ;\n  01->1 ;\n"
        "  10->1 ;\n  11->0\n}\n")
    assert net.gates[0].table.as_map() == {"00": "0", "01": "1",
                                           "10": "1", "11": "0"}


def test_fig1_gate1_table_row():
    assert ("11", "10") in builtin_fig1().gates[0].table.rows


def test_fig1_link_inverts():
    link = builtin_fig1().gates[1]
    assert link.is_link()
    assert link.table.as_map() == {"0": "1", "1": "0"}


def test_render_roundtrip_fig1():
    net = builtin_fig1()
    assert parse_network(render(net)) == net


def test_render_roundtrip_unsat():
    net = builtin_fig1_unsat()
    assert parse_network(render(net)) == net


def test_render_roundtrip_link_named_gate_with_reversed_rows():
    # Its rows are the inverter's in the other order, so it is no `link`.
    net = parse_network(
        "nodes a b\ngate link_a_b in(a) out(b) { 1->0 ; 0->1 }\n")
    assert not net.gates[0].is_link()
    assert parse_network(render(net)) == net


def test_pin_kind_inference():
    # A pin on a gate output is an output pin unless annotated otherwise.
    net = parse_network("nodes a b\nlink a -> b\nfix a=0\nfix b=1\n")
    kinds = {p.node: p.kind for p in net.pins}
    assert kinds == {"a": "input", "b": "output"}


def test_drive_requires_output_pin():
    with pytest.raises(ParseError):
        parse_network("nodes a b\nlink a -> b\ndrive b\n")


def test_duplicate_pin_rejected():
    with pytest.raises(ParseError):
        parse_network("nodes a\nfix a=0\nfix a=1\n")


def test_truth_table_duplicate_input_rejected():
    with pytest.raises(ValueError):
        TruthTable(1, 1, (("0", "0"), ("0", "1")))


def test_gate_shared_node_rejected():
    with pytest.raises(ValueError):
        Gate("g", ("a",), ("a",), TruthTable(1, 1, (("0", "1"), ("1", "0"))))


def test_assignment_satisfies_solution():
    assert assignment_satisfies(builtin_fig1(), "11101011", include_pins=True)


def test_assignment_satisfies_second_branch_without_pins():
    net = builtin_fig1()
    assert assignment_satisfies(net, "01010000", include_pins=False)
    assert not assignment_satisfies(net, "01010000", include_pins=True)


def test_brute_force_fig1_unique():
    assert brute_force_solutions(builtin_fig1()) == ["11101011"]


def test_brute_force_unsat_variant_empty():
    assert brute_force_solutions(builtin_fig1_unsat()) == []


def test_brute_force_nodes_only():
    net = parse_network("nodes a b c\n")
    assert brute_force_solutions(net) == [format(k, "03b") for k in range(8)]


def test_brute_force_limit():
    net = Network(tuple(f"n{i}" for i in range(25)))
    with pytest.raises(ValueError):
        brute_force_solutions(net)


def test_unsat_variant_has_extra_pin():
    pins = {(p.node, p.value) for p in builtin_fig1_unsat().pins}
    assert pins == {("b", 1), ("f", 0), ("g", 0), ("h", 1)}


def _random_table(draw, in_arity, out_arity):
    patterns = ["".join(bits) for bits in
                itertools.product("01", repeat=in_arity)]
    outs = draw(st.lists(
        st.text(alphabet="01", min_size=out_arity, max_size=out_arity),
        min_size=len(patterns), max_size=len(patterns)))
    return TruthTable(in_arity, out_arity, tuple(zip(patterns, outs)))


@st.composite
def small_gate_networks(draw):
    in_arity = draw(st.integers(1, 2))
    out_arity = draw(st.integers(1, 2))
    names = tuple("wxyz"[: in_arity + out_arity])
    table = _random_table(draw, in_arity, out_arity)
    gate = Gate("g", names[:in_arity], names[in_arity:], table)
    return Network(names, (gate,))


@given(small_gate_networks())
def test_oracle_counts_match_table(net):
    # A total-function gate admits exactly one output row per input pattern.
    gate = net.gates[0]
    free = 2 ** (net.n_nodes - len(gate.nodes))
    expected = len(gate.table.rows) * free
    assert len(brute_force_solutions(net)) == expected


@given(small_gate_networks())
def test_oracle_solutions_pass_each_gate(net):
    for a in brute_force_solutions(net):
        assert assignment_satisfies(net, a)


@given(small_gate_networks())
# A gate without outputs, and one without inputs.
@example(Network(("a", "b"), (Gate("g", ("a", "b"), (), TruthTable(
    2, 0, (("00", ""), ("11", "")))),)))
@example(Network(("a",), (Gate("g", (), ("a",), TruthTable(
    0, 1, (("", "1"),))),)))
def test_render_roundtrip_random(net):
    assert parse_network(render(net)) == net
