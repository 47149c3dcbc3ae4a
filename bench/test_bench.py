"""Tests of the benchmark's own parts: chain generator, output checks, spans."""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from bench import chain, checks, run, tracing
from statnet import cli, network, statics


def cli_output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("k", [2, 4])
def test_chain_oracle_counts(k):
    fig1 = network.builtin_fig1()
    sat = network.parse_network(chain.chain_dsl(k))
    unsat = network.parse_network(chain.chain_dsl(k, unsat=True))
    assert sat.n_nodes == 4 * k
    assert network.brute_force_solutions(sat) == chain.chain_solutions(k)
    assert network.brute_force_solutions(unsat) == chain.chain_solutions(k, unsat=True) == []
    for net in (sat, unsat):
        assert statics.network_mask(net, include_output_pins=False).support_size() == 2
    if k == 2:
        assert len(network.brute_force_solutions(fig1)) == 1
        assert statics.network_mask(fig1, include_output_pins=False).support_size() == 2


def run_op(stdout: str, rc: int) -> tuple[run.Op, run.Tally]:
    """Feed a canned CLI result through the benchmark's checked-op path."""
    fig1 = network.builtin_fig1()
    support = frozenset(statics.network_mask(fig1, include_output_pins=False).support())
    op = run.Op("run", ("run", "--network", "fig1", "--shots", "3"),
                lambda out, code: checks.check_run(
                    out, code, run.FIG1_SOLUTIONS["fig1"], support, 3))
    tally = run.Tally()
    run.run_checked(lambda argv: print(stdout, end="") or rc, op, tally)
    return op, tally


def test_doctored_decision_counts_as_failed():
    rc, stdout = cli_output(["run", "--network", "fig1", "--shots", "3"])
    _, tally = run_op(stdout, rc)
    assert (tally.attempted, tally.failed) == (1, 0)

    doctored = json.loads(stdout)
    doctored["decision"] = "unsatisfiable"
    _, tally = run_op(json.dumps(doctored), 1)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "oracle says 'satisfiable'" in tally.problems[0]

    doctored = json.loads(stdout)
    doctored["samples"][0] = "00000000"   # violates the input pin b=1
    doctored["n_solutions"] -= 1
    _, tally = run_op(json.dumps(doctored), 0)
    assert tally.failed == 1
    assert "outside the input-constrained support" in tally.problems[0]

    doctored["samples"][0] = "not bits"
    _, tally = run_op(json.dumps(doctored), 0)
    assert tally.failed == 1 and "not a bit string" in tally.problems[0]


def test_doctored_trace_counts_as_failed():
    rc, stdout = cli_output(["simulate-link", "--dt", "0.01"])
    assert checks.check_trace(stdout, rc, 100) == []

    lines = stdout.splitlines(keepends=True)
    row = lines[50].rstrip("\n").split(",")
    row[-1] = "1.0000000000000001e-09"
    drifted = "".join(lines[:50] + [",".join(row) + "\n"] + lines[51:])
    assert any("deviation" in p for p in checks.check_trace(drifted, 0, 100))
    short = "".join(lines[:-1])
    assert any("rows" in p for p in checks.check_trace(short, 0, 100))

    op = run.Op("simulate-link", ("simulate-link",),
                lambda out, code: checks.check_trace(out, code, 100))
    tally = run.Tally()
    run.run_checked(lambda argv: print(drifted, end="") or 0, op, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_changed_output_on_same_inputs_counts_as_failed():
    op = run.Op("solve-brute", ("solve-brute", "--network", "fig1"),
                lambda out, code: checks.check_brute(out, code, ["11101011"]))
    tally = run.Tally()
    first = run.run_checked(lambda argv: print("11101011") or 0, op, tally)
    run.run_checked(lambda argv: print("11101011") or 0, op, tally, first)
    assert (tally.attempted, tally.failed) == (2, 0)
    run.run_checked(lambda argv: print("11101011 ") or 0, op, tally, first)
    assert tally.failed == 1 and "different output" in tally.problems[-1]


def test_self_time_subtracts_union_of_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("b", 2.0, 5.0, 0, 0),      # overlaps a: together they cover 1..5
        S("c", 8.0, 12.0, 0, 0),     # only 8..10 lies inside root
        S("d", 1.5, 2.0, 1, 0),      # grandchild of root, child of a
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_links_parents_and_aggregates_per_op():
    tracer = tracing.Tracer()
    inner = tracer.span("layer.inner", lambda: 1, info=lambda r: {"n": r})
    outer = tracer.span("layer.outer", lambda: inner() + inner())
    tracer.begin_op("run")
    assert outer() == 2
    tracer.begin_op("solve-brute")
    inner()
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("layer.outer", None, 0), ("layer.inner", 0, 0), ("layer.inner", 0, 0),
        ("layer.inner", None, 1)]
    records = tracing.op_records(tracer)
    first = records[0]
    assert first.calls["layer.inner"] == 2 and first.info["layer.inner"]["n"] == 2
    own = first.time["layer.outer"] - first.time["layer.inner"]
    assert first.self_time["layer.outer"] == pytest.approx(own)
    assert records[1].calls == {"layer.inner": 1}


def test_reference_scales_by_loop_times_around_the_call():
    reference = run.Reference()
    w = run.REF_WINDOW
    reference.samples = [(0.0, 9.0), (10.0 - w, 2.0), (10.0, 4.0),
                         (16.0, 3.0), (16.0 + w, 5.0), (17.0 + w, 9.0)]
    # The call ran from 10 to 16; the loops within the window around it took
    # 2, 4, 3 and 5 s: 3.5 s at the median.
    assert reference.scale(10.0, 6.0) == pytest.approx(6.0 * run.REF_SECONDS / 3.5)
    reference.sample()
    assert len(reference.samples) == 7 and reference.samples[-1][1] > 0
