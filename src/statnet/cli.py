"""Command-line front end.

Commands: check, solve-brute, simulate-link, simulate-triplet, run.
All outputs are byte-deterministic given (inputs, flags, seed); floats are
printed with 17 significant digits and lines end with '\\n'.  The env var
STATNET_SEED overrides --seed of the one command that takes it, run.

Exit codes: 0 success (satisfiable for solve-brute/run), 1 unsatisfiable,
2 error (parse failure, bad flags, degenerate dynamics, a step grid too
large to build).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dynamics, network, protocol, statics
from .errors import StatnetError
from .hilbert import index_assignment


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


def _trace_csv(traj: dynamics.Trajectory, amps_at) -> str:
    """The trajectory's columns and, last, the max deviation of each row from
    the closed form, whose amplitudes at total angle a are `amps_at(a)`."""
    reference = np.array([amps_at(traj.schedule.theta0 + phi)
                          for phi in traj.phi.tolist()], dtype=complex)
    columns = (traj.t, traj.phi, traj.p0, traj.p1, traj.alpha_sq,
               traj.beta_sq, traj.energy, traj.step_overlap,
               np.abs(traj.amps - reference).max(axis=1))
    # %-formatting a float at .17g gives the bytes of format(x, ".17g").
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return ("t,phi,p0,p1,alpha_sq,beta_sq,energy,step_overlap,"
            "deviation_from_closed_form\n"
            + "".join(row % r for r in zip(*(c.tolist() for c in columns))))


def _schedule_from_args(args, theta0: float = 0.0,
                        phi_final: float = 0.0) -> dynamics.DriveSchedule:
    return dynamics.DriveSchedule(
        kind=args.schedule, theta0=theta0, phi_final=phi_final, tau=args.tau,
        dt=1e-3 * args.tau if args.dt is None else args.dt)


def cmd_check(args) -> int:
    net = _load_network(args.network)
    if args.dump:
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
    if args.no_mask and args.leak != "none":
        # Without the projection every state is allowed: the leak never acts.
        raise ValueError("--leak has no effect with --no-mask")
    schedule = _schedule_from_args(args, args.theta, args.phi_final)
    # The closed form is stated on the wire's nodes (r, s), in this order.
    net = network.parse_network("nodes r s\nlink r -> s\n")
    mask = statics.gate_mask(net, net.gates[0])
    psi0 = dynamics.closed_form_link(args.theta, 0.0)
    traj = dynamics.evolve(psi0, mask, "r", schedule, leak_model=args.leak,
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
     cmd_simulate_link, _DEMO_DRIVE + ("leak", "no-mask", "out")),
    ("simulate-triplet", "two-identical-particle symmetrizer demo",
     cmd_simulate_triplet, _DEMO_DRIVE + ("drive", "out")),
    ("run", "drive-relax-measure decision procedure", cmd_run,
     ("network", "dt", "tau", "schedule", "shots", "seed", "leak", "out")),
)


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
