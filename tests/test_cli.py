"""Command-line behavior: exit codes, output contracts, determinism."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from statnet.cli import _COMMANDS, main

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
    # One node past DEFAULT_NODE_LIMIT: refused before any 2^n array exists.
    (["check", "--dump"], 25, "error: 25 nodes exceeds enumeration limit 24\n"),
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
    # Without the projection every state is allowed, so no sector can leak.
    code, out, err = run_cli(["simulate-link", "--no-mask", "--leak",
                              "uniform-excited"], capsys)
    assert (code, out) == (2, "")
    assert "--no-mask" in err


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


def test_console_script_installed():
    # The subprocess finds the package in src/, as pytest's own imports do.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "statnet.cli", "solve-brute",
                           "--network", "fig1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "11101011\n"


def test_readme_flag_table_matches_parser():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme.read_text(),
                      re.MULTILINE)
    table = {name: tuple(re.findall(r"`--([\w-]+)`", flags))
             for name, flags in rows}
    assert table == {name: flags for name, _, _, flags in _COMMANDS}
