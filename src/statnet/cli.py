"""Command-line front end.

Commands: check, solve-brute, simulate-link, simulate-triplet, run.
All outputs are byte-deterministic given (inputs, flags, seed) and lines end
with '\\n'.  Trace CSVs print floats with 17 significant digits; the JSON of
run and check --dump prints each float's shortest repr.  The env var
STATNET_SEED overrides --seed of the one command that takes it, run.

A call whose argv is in the canonical form is read straight from the flag
table, without argparse: a command, then only that command's flags, each at
most once and spelled in full as `--flag value` or `--switch`, each value
passing the flag's type and choices and not beginning with '-'.  It gives
the namespace argparse would.  Any other argv (help, every error,
abbreviations, `--flag=value`, repeated flags, values beginning with '-')
goes to the argparse parser of all five commands.

Exit codes: 0 success (satisfiable for solve-brute/run), 1 unsatisfiable
or, for run, inconclusive (what degenerate dynamics give there), 2 error
(parse failure, bad flags, degenerate dynamics in simulate-*, a step grid
too large to build).
"""
from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import dynamics, network, protocol, statics
from .errors import StatnetError
from .hilbert import index_assignment

if TYPE_CHECKING:
    import argparse

# `check --dump` writes six 2^n float lists as JSON text: at 16 nodes about
# 8 MB and 125 MiB peak RSS, growing fourfold per two nodes.
DUMP_NODE_LIMIT = 16


def _load_network(spec: str) -> network.Network:
    if spec in network.BUILTIN_NETWORKS:
        return network.BUILTIN_NETWORKS[spec]()
    with open(spec, encoding="utf-8") as fh:
        return network.parse_network(fh.read())


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_column(column: np.ndarray) -> list[str]:
    """`"%.17g" % x` of each entry, formatting each distinct bit pattern once.

    The key is the bit pattern, not the value, so 0.0 and -0.0 stay apart.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % x for x in bits.view(float).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def _trace_csv(traj: dynamics.Trajectory, amps_of) -> str:
    """The trajectory's columns and, last, the max deviation of each row from
    the closed form, whose real amplitudes are `amps_of(cos, sin)` of the
    total angle."""
    # libm's cos and sin, as the scalar closed forms call them: numpy's
    # vector loops may round differently.
    angles = (traj.phi + traj.schedule.theta0).tolist()
    cos = np.array(list(map(math.cos, angles)))
    sin = np.array(list(map(math.sin, angles)))
    reference = np.stack(np.broadcast_arrays(*amps_of(cos, sin)), axis=1)
    deviation = traj.amps - reference
    columns = (traj.t, traj.phi, traj.p0, traj.p1, traj.alpha_sq,
               traj.beta_sq, traj.energy, traj.step_overlap,
               np.hypot(deviation.real, deviation.imag).max(axis=1))
    return ("t,phi,p0,p1,alpha_sq,beta_sq,energy,step_overlap,"
            "deviation_from_closed_form\n"
            + "\n".join(map(",".join,
                            zip(*map(_format_column, columns)))) + "\n")


def _schedule_from_args(args, theta0: float = 0.0,
                        phi_final: float = 0.0) -> dynamics.DriveSchedule:
    return dynamics.DriveSchedule(
        kind=args.schedule, theta0=theta0, phi_final=phi_final, tau=args.tau,
        dt=1e-3 * args.tau if args.dt is None else args.dt)


def cmd_check(args) -> int:
    net = _load_network(args.network)
    if args.dump:
        import json

        if net.n_nodes > DUMP_NODE_LIMIT:
            raise ValueError(f"{net.n_nodes} nodes exceeds check --dump "
                             f"limit {DUMP_NODE_LIMIT}")

        def floats(mask):
            # Masks are dumped as 0.0/1.0, like the Hamiltonian diagonal.
            return mask.bits.astype(float).tolist()

        dump = {
            "nodes": list(net.nodes),
            "masks": {g.name: floats(statics.gate_mask(net, g))
                      for g in net.gates},
            "pin_masks": {p.node: floats(statics.pin_mask(net, p))
                          for p in net.pins},
            "network_mask": floats(statics.network_mask(net)),
            "network_mask_no_output_pins": floats(
                statics.network_mask(net, include_output_pins=False)),
            "hamiltonian": statics.network_hamiltonian(net).energies.tolist(),
        }
        _write(args.out, json.dumps(dump, sort_keys=True, indent=2) + "\n")
        return 0
    out = [f"nodes: {net.n_nodes} ({' '.join(net.nodes)})"]
    for g in net.gates:
        # A gate's nodes are distinct: each row extends over the other nodes.
        rows, free = len(g.table.rows), 2 ** (net.n_nodes - len(g.nodes))
        out.append(f"gate {g.name}: in({','.join(g.in_nodes)}) "
                   f"out({','.join(g.out_nodes)}) "
                   f"subspace dim: {rows} of {2 ** len(g.nodes)}; "
                   f"ground-space size {rows * free} of {net.dim}")
    for p in net.pins:
        out.append(f"pin {p.node}={p.value} ({p.kind})")
    if net.drive_node:
        out.append(f"drive node: {net.drive_node}")
    out.append(f"solutions with all pins: {statics.support(net).size}")
    out.append(f"solutions without output pins: "
               f"{statics.support(net, include_output_pins=False).size}")
    _write(args.out, "\n".join(out) + "\n")
    return 0


def cmd_solve_brute(args) -> int:
    net = _load_network(args.network)
    codes = statics.support(net, include_output_pins=True)
    if codes.size:
        _write(args.out, "".join(index_assignment(net.nodes, k) + "\n"
                                 for k in codes.tolist()))
        return 0
    _write(args.out, "(none)\n")
    return 1


def cmd_simulate_link(args) -> int:
    schedule = _schedule_from_args(args, args.theta, args.phi_final)
    # The closed form is stated on the wire's nodes (r, s), in this order.
    net = network.parse_network("nodes r s\nlink r -> s\n")
    mask = statics.gate_mask(net, net.gates[0])
    psi0 = dynamics.closed_form_link(args.theta, 0.0)
    traj = dynamics.evolve(psi0, mask, "r", schedule,
                           enforce_mask=not args.no_mask)
    _write(args.out, _trace_csv(traj, dynamics.link_amps))
    return 0


def cmd_simulate_triplet(args) -> int:
    schedule = _schedule_from_args(args, args.theta, args.phi_final)
    traj = dynamics.triplet_watchdog_demo(args.theta, schedule,
                                          drive=args.drive)
    _write(args.out, _trace_csv(traj, dynamics.triplet_amps))
    return 0


def cmd_run(args) -> int:
    import json

    net = _load_network(args.network)
    schedule = _schedule_from_args(args)
    result = protocol.run_protocol(net, schedule, shots=args.shots,
                                   seed=args.seed, leak_model=args.leak)
    text = json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"
    _write(args.out, text)
    return 0 if result.decision == "satisfiable" else 1


_FLAGS = {
    "network": dict(default="fig1",
                    help="path to a network DSL file, or a builtin name "
                         f"({'|'.join(network.BUILTIN_NETWORKS)})"),
    "dt": dict(type=float, default=None, help="step size (default tau/1000)"),
    "tau": dict(type=float, default=1.0, help="total drive duration"),
    "schedule": dict(default="linear-ramp", choices=dynamics.SCHEDULE_KINDS),
    "theta": dict(type=float, default=math.pi / 6,
                  help="initial mixing angle"),
    "phi-final": dict(type=float, default=math.pi / 3,
                      help="total drive rotation"),
    "shots": dict(type=int, default=100),
    "seed": dict(type=int, default=0),
    "leak": dict(default="none", choices=("none", "uniform-excited")),
    "no-mask": dict(action="store_true",
                    help="drop condition (i): drive without the projector"),
    "drive": dict(default="p1", choices=("p1", "p2", "both")),
    "dump": dict(action="store_true",
                 help="dump masks/Hamiltonian diagonals as JSON"),
    "out": dict(default=None, help="output path (default stdout)"),
}

_DEMO_DRIVE = ("dt", "tau", "schedule", "theta", "phi-final")

# name, help, handler, the flags the handler reads.
_COMMANDS = (
    ("check", "parse and report constraint statics", cmd_check,
     ("network", "dump", "out")),
    ("solve-brute", "every satisfying assignment, by joining the gate tables",
     cmd_solve_brute,
     ("network", "out")),
    ("simulate-link", "watchdog evolution of a single inverting wire",
     cmd_simulate_link, _DEMO_DRIVE + ("no-mask", "out")),
    ("simulate-triplet", "two-identical-particle symmetrizer demo",
     cmd_simulate_triplet, _DEMO_DRIVE + ("drive", "out")),
    ("run", "drive-relax-measure decision procedure", cmd_run,
     ("network", "dt", "tau", "schedule", "shots", "seed", "leak", "out")),
)


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for argv in
    the canonical form (see the module docstring); None for any other argv.
    """
    for name, _, handler, flags in _COMMANDS:
        if argv and argv[0] == name:
            break
    else:
        return None
    values = {}
    for flag in flags:
        spec = _FLAGS[flag]
        # argparse's defaults: a switch is False, any other flag None.
        switch = spec.get("action") == "store_true"
        values[flag] = spec.get("default", False if switch else None)
    unread = set(flags)
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token[2:]
        if not token.startswith("--") or flag not in unread:
            return None
        unread.remove(flag)
        spec = _FLAGS[flag]
        if spec.get("action") == "store_true":
            values[flag] = True
            continue
        value = next(tokens, "-")  # a missing value, which argparse reports
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    return SimpleNamespace(
        command=name, fn=handler,
        **{flag.replace("-", "_"): value for flag, value in values.items()})


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for the argv the table reader leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="statnet",
        description="Watchdog-projection simulator for constrained Boolean "
                    "networks deployed in space.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(fn=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_canonical(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    env_seed = os.environ.get("STATNET_SEED")
    if env_seed is not None and "seed" in vars(args):
        try:
            args.seed = int(env_seed)
        except ValueError:
            sys.stderr.write(f"error: STATNET_SEED={env_seed!r} is not an integer\n")
            return 2
    try:
        return args.fn(args)
    except (StatnetError, OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
