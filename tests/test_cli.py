"""Command-line behavior: exit codes, output contracts, determinism."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statnet import dynamics
from statnet.cli import (_COMMANDS, _FLAGS, DUMP_NODE_LIMIT, _format_column,
                         _read_canonical, _trace_csv, build_parser, main)

CSV_HEADER = ("t,phi,p0,p1,alpha_sq,beta_sq,energy,step_overlap,"
              "deviation_from_closed_form")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -------------------------------------------------------------------

def test_check_fig1(capsys):
    code, out, _ = run_cli(["check", "--network", "fig1"], capsys)
    assert code == 0
    assert "solutions with all pins: 1" in out
    assert "solutions without output pins: 2" in out
    assert "drive node: h" in out


def test_check_reports_gate_subspaces(capsys):
    _, out, _ = run_cli(["check", "--network", "fig1"], capsys)
    assert "subspace dim: 4 of 16" in out  # two-in two-out invertible gate
    assert "subspace dim: 2 of 4" in out   # the inverting link


def test_check_dump_json(capsys):
    code, out, _ = run_cli(["check", "--network", "fig1", "--dump"], capsys)
    assert code == 0
    dump = json.loads(out)
    assert sum(dump["network_mask"]) == 1
    assert sum(dump["network_mask_no_output_pins"]) == 2
    assert len(dump["hamiltonian"]) == 256


def test_check_dump_masks_are_floats(capsys):
    _, out, _ = run_cli(["check", "--network", "fig1", "--dump"], capsys)
    dump = json.loads(out)
    entries = dump["network_mask"] + dump["network_mask_no_output_pins"]
    for masks in (dump["masks"], dump["pin_masks"]):
        for bits in masks.values():
            entries += bits
    assert {repr(x) for x in entries} == {"0.0", "1.0"}


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("nodes a\nfix a=2\n")
    code, _, err = run_cli(["check", "--network", str(bad)], capsys)
    assert code == 2
    assert "line 2" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "--network", "/no/such/file"], capsys)
    assert code == 2


@pytest.mark.parametrize("command,n_nodes,message", [
    # One node past DUMP_NODE_LIMIT: refused before any mask is built.
    (["check", "--dump"], 17, "error: 17 nodes exceeds check --dump limit "
                              "16\n"),
    # `run` stores only the support, here 2^25 states: refused before the
    # free nodes are expanded.
    (["run"], 26, "error: constrained support exceeds enumeration limit "
                  "2^24 states\n"),
], ids=["check-dump", "run"])
def test_dense_command_over_node_limit_exit_code(command, n_nodes, message,
                                                 tmp_path, capsys):
    f = tmp_path / "wide.net"
    f.write_text("nodes " + " ".join(f"n{i}" for i in range(n_nodes)) +
                 "\nlink n0 -> n1\nfix n1=1 output\ndrive n1\n")
    code, out, err = run_cli(command + ["--network", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err == message


def test_check_dump_at_its_node_limit(tmp_path, capsys):
    f = tmp_path / "links.net"
    f.write_text("nodes " + " ".join(f"n{i}" for i in range(DUMP_NODE_LIMIT))
                 + "\nlink n0 -> n1\n")
    code, out, err = run_cli(["check", "--network", str(f), "--dump"], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["network_mask"]) == 2 ** DUMP_NODE_LIMIT


def test_check_counts_solutions_past_the_dense_limit(tmp_path, capsys):
    # Without --dump, `check` counts the support by the join: 30 nodes pass.
    f = tmp_path / "long.net"
    f.write_text("nodes " + " ".join(f"n{i}" for i in range(30)) + "\n" +
                 "".join(f"link n{i} -> n{i + 1}\n" for i in range(29)) +
                 "fix n29=1 output\ndrive n29\n")
    code, out, err = run_cli(["check", "--network", str(f)], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("drive node: n29\nsolutions with all pins: 1\n"
                        "solutions without output pins: 2\n")
    assert "ground-space size 536870912 of 1073741824" in out


def test_check_rejects_a_gate_name_declared_twice(tmp_path, capsys):
    f = tmp_path / "twice.net"
    f.write_text("nodes a b c\nlink a -> b\n"
                 "gate link_a_b in(b) out(c) { 0->1 ; 1->0 }\n")
    code, out, err = run_cli(["check", "--network", str(f), "--dump"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 3: gate 'link_a_b' declared twice\n"


@pytest.mark.parametrize("command", ["run", "solve-brute"])
def test_support_command_over_code_limit_exit_code(command, tmp_path, capsys):
    # int64 basis codes hold 62 nodes, however small the support.
    f = tmp_path / "long.net"
    f.write_text("nodes " + " ".join(f"n{i}" for i in range(63)) + "\n" +
                 "".join(f"link n{i} -> n{i + 1}\n" for i in range(62)) +
                 "fix n0=0 input\nfix n62=1 output\ndrive n62\n")
    code, out, err = run_cli([command, "--network", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: 63 nodes exceeds basis-code limit 62\n"


# Each flag set to a value that is not finite.  `nan` fails no comparison,
# so the range checks on a schedule cannot catch it; the error names the field.
NON_FINITE = [
    ("simulate-link", "--theta", "nan", "theta0"),
    ("simulate-link", "--phi-final", "nan", "phi_final"),
    ("simulate-link", "--tau", "inf", "tau"),
    ("simulate-link", "--dt", "nan", "dt"),
    ("run", "--tau", "inf", "tau"),
    ("run", "--dt", "nan", "dt"),
]


@pytest.mark.parametrize("command,flag,value,field", NON_FINITE,
                         ids=[f"{c} {f} {v}" for c, f, v, _ in NON_FINITE])
def test_non_finite_schedule_exit_code(command, flag, value, field, capsys):
    argv = [command, flag, value] + (["--dt", "0.25"] if flag != "--dt" else [])
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {field} must be finite\n"


@pytest.mark.parametrize("command", ["simulate-link", "simulate-triplet", "run"])
def test_zero_dt_exit_code(command, capsys):
    # An explicit --dt 0 is a step size, not a request for the default.
    code, out, err = run_cli([command, "--dt", "0"], capsys)
    assert (code, out, err) == (2, "", "error: dt must be > 0\n")


@pytest.mark.parametrize("command", ["simulate-link", "simulate-triplet", "run"])
def test_non_finite_step_count_exit_code(command, capsys):
    # Both are finite, but tau / dt overflows: there is no step count.
    code, out, err = run_cli([command, "--tau", "1e308", "--dt", "1e-10"],
                             capsys)
    assert (code, out, err) == (2, "", "error: tau / dt must be finite\n")


def test_step_grid_too_large_to_allocate_exit_code(monkeypatch, capsys):
    def unallocatable(schedule):
        raise MemoryError("Unable to allocate the step grid")

    monkeypatch.setattr(dynamics, "_grid_times", unallocatable)
    code, out, err = run_cli(["run"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: Unable to allocate the step grid\n"


# --- solve-brute -------------------------------------------------------------

def test_solve_brute_fig1(capsys):
    code, out, _ = run_cli(["solve-brute", "--network", "fig1"], capsys)
    assert code == 0
    assert out == "11101011\n"


def test_solve_brute_unsat(capsys):
    code, out, _ = run_cli(["solve-brute", "--network", "fig1-unsat"], capsys)
    assert code == 1
    assert out == "(none)\n"


def test_solve_brute_nodes_only(tmp_path, capsys):
    f = tmp_path / "free.net"
    f.write_text("nodes a b\n")
    code, out, _ = run_cli(["solve-brute", "--network", str(f)], capsys)
    assert code == 0
    assert out.split() == ["00", "01", "10", "11"]


# --- simulate ----------------------------------------------------------------

def test_simulate_link_csv_contract(capsys):
    code, out, _ = run_cli(["simulate-link", "--dt", "0.01"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 102  # header + 101 grid points
    for line in lines[1:]:
        assert len(line.split(",")) == 9


def test_simulate_link_deviation_small(capsys):
    _, out, _ = run_cli(["simulate-link", "--dt", "0.001"], capsys)
    devs = [float(line.split(",")[-1]) for line in out.strip().split("\n")[1:]]
    assert max(devs) < 1e-9


def test_simulate_link_deterministic(capsys):
    _, out1, _ = run_cli(["simulate-link", "--dt", "0.01"], capsys)
    _, out2, _ = run_cli(["simulate-link", "--dt", "0.01"], capsys)
    assert out1 == out2


def test_simulate_link_out_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code, out, _ = run_cli(["simulate-link", "--dt", "0.01",
                            "--out", str(target)], capsys)
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith(CSV_HEADER)
    assert "\r" not in text


def test_simulate_link_no_mask_rejects_leak(capsys):
    # The link allows one state in each drive sector, so a leak model never
    # acts: simulate-link has no --leak, with or without --no-mask.
    code, out, err = run_cli(["simulate-link", "--leak", "uniform-excited"],
                             capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --leak uniform-excited" in err


def test_simulate_triplet_drive_choices_byte_identical(capsys):
    outs = {}
    for drive in ("p1", "p2", "both"):
        _, out, _ = run_cli(["simulate-triplet", "--dt", "0.01",
                             "--drive", drive], capsys)
        outs[drive] = out
    assert outs["p1"] == outs["p2"] == outs["both"]


def test_simulate_triplet_deviation_small(capsys):
    _, out, _ = run_cli(["simulate-triplet", "--dt", "0.001"], capsys)
    devs = [float(line.split(",")[-1]) for line in out.strip().split("\n")[1:]]
    assert max(devs) < 1e-9


def test_simulate_triplet_constant_when_undriven(capsys):
    _, out, _ = run_cli(["simulate-triplet", "--dt", "0.1",
                         "--phi-final", "0"], capsys)
    lines = out.strip().split("\n")[1:]
    p1_values = [float(line.split(",")[3]) for line in lines]
    assert max(p1_values) - min(p1_values) < 1e-12


def test_simulate_triplet_lost_sector_exit_code(capsys):
    # The p0 target reaches zero at t=0.5 and is demanded again after it.
    code, out, err = run_cli(["simulate-triplet", "--theta", "0.7853981633974483",
                              "--phi-final", "1.5707963267948966",
                              "--dt", "0.1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "constrained subspace" not in err


def per_row_trace_csv(traj, amps_of):
    """The trace writer that formats every row with one "%.17g" pattern,
    on a closed-form reference built one angle at a time."""
    reference = np.array([amps_of(math.cos(angle), math.sin(angle))
                          for angle in (traj.schedule.theta0 + phi
                                        for phi in traj.phi.tolist())],
                         dtype=float)
    deviation = traj.amps - reference
    columns = (traj.t, traj.phi, traj.p0, traj.p1, traj.alpha_sq,
               traj.beta_sq, traj.energy, traj.step_overlap,
               np.hypot(deviation.real, deviation.imag).max(axis=1))
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return (CSV_HEADER + "\n"
            + "".join(row % r for r in zip(*(c.tolist() for c in columns))))


# Floats whose text stands apart: both zeros, NaN, the infinities,
# subnormals and the ends of the normal range.
SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1e-310, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
                  -1e300, 0.1, 1.0)
ANY_FLOAT = st.sampled_from(SPECIAL_FLOATS) | st.floats() \
    | st.floats(min_value=1e-300, max_value=1e300)
# Angles stay finite, as math.cos and math.sin require.
ANGLE = st.sampled_from((0.0, -0.0, math.nan, 5e-324, 1e-300, 1e300)) \
    | st.floats(min_value=-1e300, max_value=1e300)
AMP = st.sampled_from((0.0, -0.0, 5e-324, 1e-310, 0.5)) \
    | st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def trace_columns(draw):
    """A trajectory-like namespace: columns of 1 to 20 rows, each either a
    few values repeated or a fresh value per row."""
    rows = draw(st.integers(min_value=1, max_value=20))

    def column(values, shape=(rows,)):
        size = math.prod(shape)
        if draw(st.booleans()):
            values = st.sampled_from(draw(st.lists(values, min_size=1,
                                                   max_size=3)))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    amps = column(AMP, (rows, 4))
    if draw(st.booleans()):
        amps = amps + 1j * column(AMP, (rows, 4))
    return SimpleNamespace(
        schedule=SimpleNamespace(theta0=draw(st.floats(-1.0, 1.0))),
        phi=column(ANGLE), amps=amps,
        **{name: column(ANY_FLOAT) for name in (
            "t", "p0", "p1", "alpha_sq", "beta_sq", "energy",
            "step_overlap")})


@given(trace_columns(), st.sampled_from((dynamics.link_amps,
                                         dynamics.triplet_amps)))
@example(SimpleNamespace(
    schedule=SimpleNamespace(theta0=0.0), phi=np.array([0.0, -0.0, 0.0]),
    amps=np.zeros((3, 4)), t=np.array([-0.0, 0.0, -0.0]),
    p0=np.full(3, math.nan), p1=np.array([math.inf, -math.inf, 5e-324]),
    alpha_sq=np.array([1e-300, 1e300, 1e-300]), beta_sq=np.zeros(3),
    energy=np.array([-0.0, -0.0, 0.0]), step_overlap=np.ones(3)),
    dynamics.link_amps)
@settings(max_examples=40, deadline=None)
def test_trace_csv_bytes_equal_the_per_row_writer(traj, amps_of):
    assert _trace_csv(traj, amps_of) == per_row_trace_csv(traj, amps_of)


def test_format_column_keeps_both_zeros_apart():
    column = np.array([0.0, -0.0, 0.0, math.nan, -0.0, 0.5])
    assert _format_column(column) == ["0", "-0", "0", "nan", "-0", "0.5"]


# --- run ---------------------------------------------------------------------

def test_run_fig1(capsys):
    code, out, _ = run_cli(["run", "--network", "fig1", "--shots", "10",
                            "--seed", "7"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["decision"] == "satisfiable"
    assert set(result["samples"]) == {"11101011"}


def test_run_unsat(capsys):
    code, out, _ = run_cli(["run", "--network", "fig1-unsat",
                            "--shots", "10", "--seed", "7"], capsys)
    assert code == 1
    assert json.loads(out)["decision"] == "unsatisfiable"


def test_run_reports_driven_schedule(capsys):
    _, out, _ = run_cli(["run", "--network", "fig1", "--shots", "1"], capsys)
    schedule = json.loads(out)["schedule"]
    assert schedule["theta0"] == pytest.approx(math.pi / 4)
    assert schedule["theta0"] + schedule["phi_final"] == pytest.approx(math.pi / 2)


def test_run_byte_deterministic(capsys):
    args = ["run", "--network", "fig1", "--shots", "5", "--seed", "3"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_run_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STATNET_SEED", "11")
    _, out, _ = run_cli(["run", "--network", "fig1", "--shots", "2",
                         "--seed", "5"], capsys)
    assert json.loads(out)["seed"] == 11


@pytest.mark.parametrize("flag,env", [(["--seed", "-1"], None), ([], "-1")],
                         ids=["flag", "env"])
def test_run_negative_seed_exit_code(flag, env, capsys, monkeypatch):
    # As `default_rng` refuses it; checked before the network is prepared.
    if env is not None:
        monkeypatch.setenv("STATNET_SEED", env)
    code, out, err = run_cli(["run", "--network", "fig1"] + flag, capsys)
    assert (code, out, err) == (2, "", "error: expected non-negative integer\n")


def test_run_shots_past_one_entropy_word_exit_code(capsys):
    code, out, err = run_cli(["run", "--shots", str(2 ** 32 + 1)], capsys)
    assert (code, out, err) == (2, "", "error: shots must be <= 2**32\n")


# sha256 of `run --network fig1` stdout, at the default seed 0.
FIG1_RUN_DIGESTS = {
    1: "9a87177a4040030d3a2a2c0e1c017757a8b885430c8208f9219791f7e3411448",
    100: "2d34db058f33d943ec859407b7ef18a564141be5da13f404b07b7e0d3743e156",
}


@pytest.mark.parametrize("shots", sorted(FIG1_RUN_DIGESTS))
def test_run_builds_no_generator(shots, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a decision built a numpy Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, out, _ = run_cli(["run", "--network", "fig1", "--shots", str(shots)],
                           capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIG1_RUN_DIGESTS[shots]


# A module stays out of a process that has no use for it: a bare import of
# the CLI needs neither the record machinery of `dataclasses` nor `hashlib`
# (only `run` prints a network hash) nor `json` (only `run` and
# `check --dump` print JSON); `run` draws its shots without `numpy.random`;
# and canonical argv is read without `argparse`.
@pytest.mark.parametrize("args, absent", [
    (["-c", "import statnet.cli"],
     {"argparse", "dataclasses", "hashlib", "json"}),
    (["-m", "statnet.cli", "solve-brute", "--network", "fig1"],
     {"argparse", "hashlib", "json"}),
    (["-m", "statnet.cli", "simulate-link", "--dt", "1e-2"],
     {"argparse", "hashlib", "json"}),
    (["-m", "statnet.cli", "run", "--network", "fig1"],
     {"argparse", "numpy.random"}),
], ids=["import", "solve-brute", "simulate-link", "run"])
def test_process_never_imports(args, absent):
    # -X importtime lists every module the process imports, on stderr.
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True,
                          env=src_first_env())
    assert proc.returncode == 0
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines()}
    assert "numpy" in modules
    assert not absent & modules


def test_process_reads_a_bad_value_with_argparse():
    # The error bytes of a fresh process, which imports argparse only here.
    proc = subprocess.run([sys.executable, "-m", "statnet.cli", "run",
                           "--shots", "x"], capture_output=True, text=True,
                          env=dict(src_first_env(), COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", RUN_USAGE + "statnet run: error: argument --shots: invalid int "
                           "value: 'x'\n")


def test_run_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("STATNET_SEED", "not-a-number")
    code, _, err = run_cli(["run", "--network", "fig1"], capsys)
    assert code == 2
    assert "STATNET_SEED" in err


@pytest.mark.parametrize("args", [["check", "--network", "fig1"],
                                  ["solve-brute", "--network", "fig1"]])
def test_bad_env_seed_ignored_without_seed_flag(args, capsys, monkeypatch):
    monkeypatch.setenv("STATNET_SEED", "not-a-number")
    code, _, err = run_cli(args, capsys)
    assert code == 0
    assert err == ""


# A link forces b = 0 under the input pin a = 1, so the drive toward the
# output pin b = 1 demands mass where the constrained subspace has none.
STUCK_NET = ("nodes a b\nlink a -> b\nfix a=1 input\nfix b=1 output\n"
             "drive b\n")


def test_run_degenerate_dynamics_inconclusive(tmp_path, capsys):
    f = tmp_path / "stuck.net"
    f.write_text(STUCK_NET)
    code, out, _ = run_cli(["run", "--network", str(f), "--shots", "3"],
                           capsys)
    assert code == 1
    res = json.loads(out)
    assert res["samples"] == [None, None, None]
    assert res["decision"] == "inconclusive"
    assert res["confidence"] == 0.0


def test_run_degenerate_dynamics_leak_unsat(tmp_path, capsys):
    f = tmp_path / "stuck.net"
    f.write_text(STUCK_NET)
    code, out, _ = run_cli(["run", "--network", str(f), "--shots", "3",
                            "--leak", "uniform-excited"], capsys)
    assert code == 1
    res = json.loads(out)
    assert res["decision"] == "unsatisfiable"
    assert set(res["samples"]) <= {"01", "11"}


def chain_dsl(k, unsat):
    """k XOR blocks joined by links, every b pinned to 1, d_{k-1}=1 driven.

    a0 is the only free bit, so the input-constrained support holds two
    states however long the chain; "0101"*k is the one solution, and the
    extra output pin c_{k-1}=1 of the unsat variant contradicts it.
    """
    lines = ["nodes " + " ".join(f"{x}{i}" for i in range(k) for x in "abcd")]
    for i in range(k):
        lines += [f"gate g{i} in(a{i},b{i}) out(c{i},d{i}) "
                  "{ 00->00 ; 01->01 ; 10->11 ; 11->10 }", f"fix b{i}=1 input"]
        if i:
            lines.append(f"link d{i - 1} -> a{i}")
    if unsat:
        lines.append(f"fix c{k - 1}=1 output")
    return "\n".join(lines + [f"fix d{k - 1}=1 output", f"drive d{k - 1}"]) + "\n"


@pytest.mark.parametrize("unsat", [False, True], ids=["sat", "unsat"])
@pytest.mark.parametrize("k", [10, 15])
def test_chain_past_dense_limit(k, unsat, tmp_path, capsys):
    # 40 and 60 nodes: only the two-state support is ever stored.
    f = tmp_path / "chain.net"
    f.write_text(chain_dsl(k, unsat))
    code, out, _ = run_cli(["solve-brute", "--network", str(f)], capsys)
    assert (code, out) == ((1, "(none)\n") if unsat else (0, "0101" * k + "\n"))

    code, out, _ = run_cli(["run", "--network", str(f), "--shots", "5"], capsys)
    result = json.loads(out)
    if unsat:
        assert (code, result["decision"]) == (1, "unsatisfiable")
    else:
        assert (code, result["decision"]) == (0, "satisfiable")
        assert result["samples"] == ["0101" * k] * 5


def test_chain_leak_into_undemanded_sector_decides(tmp_path, capsys):
    # With a0 pinned the support is the one solution, on the pinned side of
    # the drive node: the empty sector (2^27 states) is never demanded.
    f = tmp_path / "chain.net"
    f.write_text(chain_dsl(7, False) + "fix a0=0 input\n")
    code, out, _ = run_cli(["run", "--network", str(f), "--shots", "5",
                            "--leak", "uniform-excited"], capsys)
    result = json.loads(out)
    assert (code, result["decision"]) == (0, "satisfiable")
    assert result["samples"] == ["0101" * 7] * 5


# --- argument handling -------------------------------------------------------

# The top-level usage line, which every error outside a subcommand prints.
USAGE = ("usage: statnet [-h] "
         "{check,solve-brute,simulate-link,simulate-triplet,run} ...\n")
RUN_USAGE = (
    "usage: statnet run [-h] [--network NETWORK] [--dt DT] [--tau TAU]\n"
    "                   [--schedule {linear-ramp,cosine-ramp,exponential-relax}]\n"
    "                   [--shots SHOTS] [--seed SEED]\n"
    "                   [--leak {none,uniform-excited}] [--out OUT]\n")
# argv, exit code, stdout, stderr: help and parse errors, byte for byte.
PARSER_BYTES = [
    (["--help"], 0,
     USAGE + "\n"
     "Watchdog-projection simulator for constrained Boolean networks deployed in\n"
     "space.\n\n"
     "positional arguments:\n"
     "  {check,solve-brute,simulate-link,simulate-triplet,run}\n"
     "    check               parse and report constraint statics\n"
     "    solve-brute         every satisfying assignment, by joining the gate\n"
     "                        tables\n"
     "    simulate-link       watchdog evolution of a single inverting wire\n"
     "    simulate-triplet    two-identical-particle symmetrizer demo\n"
     "    run                 drive-relax-measure decision procedure\n\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n", ""),
    ([], 2, "",
     USAGE + "statnet: error: the following arguments are required: command\n"),
    (["bogus"], 2, "",
     USAGE + "statnet: error: argument command: invalid choice: 'bogus' "
             "(choose from 'check', 'solve-brute', 'simulate-link', "
             "'simulate-triplet', 'run')\n"),
    (["run", "--help"], 0,
     RUN_USAGE + "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --network NETWORK     path to a network DSL file, or a builtin name\n"
     "                        (fig1|fig1-unsat)\n"
     "  --dt DT               step size (default tau/1000)\n"
     "  --tau TAU             total drive duration\n"
     "  --schedule {linear-ramp,cosine-ramp,exponential-relax}\n"
     "  --shots SHOTS\n"
     "  --seed SEED\n"
     "  --leak {none,uniform-excited}\n"
     "  --out OUT             output path (default stdout)\n", ""),
    (["run", "--dump"], 2, "",
     USAGE + "statnet: error: unrecognized arguments: --dump\n"),
    (["run", "extra"], 2, "",
     USAGE + "statnet: error: unrecognized arguments: extra\n"),
    (["run", "--shots", "x"], 2, "",
     RUN_USAGE + "statnet run: error: argument --shots: invalid int value: "
                 "'x'\n"),
    (["check", "--shots", "3"], 2, "",
     USAGE + "statnet: error: unrecognized arguments: --shots 3\n"),
    (["solve-brute", "--network"], 2, "",
     "usage: statnet solve-brute [-h] [--network NETWORK] [--out OUT]\n"
     "statnet solve-brute: error: argument --network: expected one argument\n"),
    (["simulate-triplet", "--drive", "p4"], 2, "",
     "usage: statnet simulate-triplet [-h] [--dt DT] [--tau TAU]\n"
     "                                [--schedule {linear-ramp,cosine-ramp,"
     "exponential-relax}]\n"
     "                                [--theta THETA] [--phi-final PHI_FINAL]\n"
     "                                [--drive {p1,p2,both}] [--out OUT]\n"
     "statnet simulate-triplet: error: argument --drive: invalid choice: 'p4' "
     "(choose from 'p1', 'p2', 'both')\n"),
]


@pytest.mark.parametrize("args,code,out,err", PARSER_BYTES,
                         ids=[" ".join(a) or "(none)" for a, *_ in PARSER_BYTES])
def test_parser_help_and_error_bytes(args, code, out, err, capsys,
                                     monkeypatch):
    # argparse wraps help to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(args, capsys) == (code, out, err)


# Spellings that only argparse reads, each beside a canonical argv of the
# same meaning.  A value that begins with '-' has no canonical spelling but
# the same value after a space, which int and float strip.
ARGPARSE_SPELLINGS = [
    (["run", "--shots=5"], ["run", "--shots", "5"]),
    (["run", "--sh", "5"], ["run", "--shots", "5"]),
    (["run", "--shots", "3", "--shots", "5"], ["run", "--shots", "5"]),
    (["run", "--seed", "-1"], ["run", "--seed", " -1"]),
    (["simulate-link", "--dt", "0.1", "--theta", "-0.5"],
     ["simulate-link", "--dt", "0.1", "--theta", " -0.5"]),
    (["simulate-triplet", "--dt", "0.1", "--phi-final", "-1.0"],
     ["simulate-triplet", "--dt", "0.1", "--phi-final", " -1.0"]),
]


@pytest.mark.parametrize("spelling,canonical", ARGPARSE_SPELLINGS,
                         ids=[" ".join(a) for a, _ in ARGPARSE_SPELLINGS])
def test_argparse_spelling_runs_as_its_canonical_form(spelling, canonical,
                                                      capsys):
    assert _read_canonical(spelling) is None
    assert _read_canonical(canonical) is not None
    assert run_cli(spelling, capsys) == run_cli(canonical, capsys)


COMMAND_NAMES = [name for name, *_ in _COMMANDS]
# Tokens that argparse reads in its own way: help, the end of options, a
# lone dash, the empty string, prefixes and `--flag=value`.
ODD_TOKENS = ["-h", "--help", "--", "-", "", "--s", "--sh", "--no",
              "--shots=5", "--theta=-1", "--dump=1", "ru", "Run"]
FLAG_TOKENS = [f"--{flag}" for flag in _FLAGS]
# Every flag's choices, numbers of each kind, values that begin with '-',
# bad ints, non-choices, and command and network names.
VALUE_TOKENS = sorted({choice for spec in _FLAGS.values()
                       for choice in spec.get("choices", ())}
                      | {"0", "5", "100", "0.25", "1e-3", "nan", "inf",
                         " 2", "-1", "-0.5", "-1e-3", "1.5", "x", "0x10",
                         "p4", "fig1", "fig1-unsat", "out.csv", ""}
                      | set(COMMAND_NAMES))


# Values of each type that the type reads.
TYPED_VALUES = {int: ["0", "5", " 2", "100"],
                float: ["0.25", "1e-3", "nan", "inf", "5"],
                str: ["fig1", "out.csv", ""]}


@st.composite
def cli_argv(draw):
    """A command and a few of its flags, each with a value of its type or
    choices or any value token; in half the cases, one more token anywhere."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    flags = next(flags for name, _, _, flags in _COMMANDS if name == command)
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4,
                              unique=True)):
        spec = _FLAGS[flag]
        argv.append(f"--{flag}")
        if spec.get("action") != "store_true":
            own = spec.get("choices") or TYPED_VALUES[spec.get("type", str)]
            argv.append(draw(st.sampled_from(own)
                             | st.sampled_from(VALUE_TOKENS)))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ODD_TOKENS + FLAG_TOKENS + VALUE_TOKENS)))
    return argv


def by_repr(namespace):
    """vars(namespace) with floats as their repr, as NaN equals no float."""
    return {key: repr(value) if isinstance(value, float) else value
            for key, value in vars(namespace).items()}


@settings(max_examples=300, deadline=None)
@given(cli_argv())
@example(["run"])
@example(["check", "--dump", "--network", "x", "--out", ""])
@example(["simulate-link", "--no-mask", "--theta", "nan", "--tau", " 2"])
@example(["simulate-triplet", "--drive", "both", "--schedule", "cosine-ramp"])
@example(["run", "--shots", "5", "--seed", "3", "--leak", "uniform-excited"])
def test_canonical_reader_agrees_with_argparse(argv):
    """Each argv the table reader accepts, argparse parses to equal vars."""
    args = _read_canonical(argv)
    if args is None:
        return
    try:
        parsed = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refused {argv!r}, which the reader read")
    assert by_repr(args) == by_repr(parsed)


def test_unknown_command_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_flag_value_exit_code(capsys):
    assert main(["run", "--shots", "many"]) == 2


@pytest.mark.parametrize("args", [
    ["check", "--shots", "5"],
    ["run", "--no-mask"],
    ["run", "--theta", "1.2"],
    ["simulate-link", "--format", "json"],
])
def test_flag_of_another_command_exit_code(args, capsys):
    assert main(args) == 2


def src_first_env():
    """The environment with src/ first on PYTHONPATH, as pytest imports it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "statnet.cli", "solve-brute",
                           "--network", "fig1"],
                          capture_output=True, text=True, env=src_first_env())
    assert proc.returncode == 0
    assert proc.stdout == "11101011\n"


def test_readme_flag_table_matches_parser():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme.read_text(),
                      re.MULTILINE)
    table = {name: tuple(re.findall(r"`--([\w-]+)`", flags))
             for name, flags in rows}
    assert table == {name: flags for name, _, _, flags in _COMMANDS}
