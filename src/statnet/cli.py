"""Command-line front end.

Commands: check, solve-brute, simulate-link, simulate-triplet, run.
All outputs are byte-deterministic given (inputs, flags, seed) and lines end
with '\\n'.  Trace CSVs print floats as `"%.17g"` does, 17 significant
digits; that text is built from arrays, with Python's `%` for the entries
the arrays cannot decide (`_format_17g`).  The JSON of run and check --dump
prints each float's shortest repr.  The env var STATNET_SEED overrides
--seed of the one command that takes it, run.

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
from functools import cache
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


# 2^27 + 1, Dekker's constant: it splits a double into two halves whose
# products with another split double are exact.
_SPLIT = 134217729.0
# The arrays decide the text of magnitudes in this range; `%` of the rest.
_DECIDED_RANGE = (1e-280, 1e280)
# Distinct values formatted at once, and CSV rows gathered at once: the
# blocks keep the intermediate arrays small beside the trace.
_FORMAT_BLOCK = 4096
_ROW_BLOCK = 2048
# The most bytes a `_format_17g` row can hold: its text columns.
_TEXT_WIDTH = 28


@cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10^k as hi + lo, with hi's two Dekker halves: hi is the double nearest
    10^k and lo the double nearest the rest.  Python's true division of
    integers rounds correctly, so both come from exact integers."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    split = _SPLIT * hi
    upper = split - (split - hi)
    return hi, upper, hi - upper, (num * q - p * den) / (den * q)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^k as a double-double (hi, lo): hi is the rounded product and
    hi + lo lies within about 1e-14 of the exact one where it is near 10^17.

    numpy never fuses a product with a sum, so Dekker's split products are
    exact.
    """
    first = int(k.min())
    table = np.array(list(zip(*map(_pow10, range(first, int(k.max()) + 1)))))
    h, h_upper, h_lower, lo = table.take(k - first, axis=1)
    hi = a * h
    split = _SPLIT * a
    upper = split - (split - a)
    lower = a - upper
    return hi, (((upper * h_upper - hi) + upper * h_lower + lower * h_upper)
                + lower * h_lower + a * lo)


def _format_17g(values: np.ndarray) -> np.ndarray:
    """`"%.17g" % x` of each entry of a float64 array, as the rows of a uint8
    matrix padded with zero bytes, which may stand anywhere in a row.

    The text of a magnitude |x| in _DECIDED_RANGE comes from arrays.  Its
    exponent e is floor(log10|x|), moved once where the product
    |x| * 10^(16-e), before rounding, leaves [10^16, 10^17), and its 17
    digits are that product rounded half to even; a product that rounds up
    to 10^17 is one digit of exponent e+1.  Python's `%` formats the rest:
    zeros, the entries that are not finite or lie outside the range, and
    each product whose fraction is within 1e-6 of one half, where the
    product's error could decide the rounding.  The text is fixed notation
    for -4 <= e < 17 and `e+dd` notation otherwise, without trailing zeros
    or a bare point, as `%g` writes them.
    """
    if not values.size:
        return np.zeros((0, 0), np.uint8)
    magnitude = np.fabs(values)
    decided = (magnitude >= _DECIDED_RANGE[0]) \
        & (magnitude <= _DECIDED_RANGE[1])
    # `%` formats the undecided entries; 1.0 keeps their arithmetic finite.
    magnitude = np.where(decided, magnitude, 1.0)
    e = np.floor(np.log10(magnitude)).astype(np.int16)
    hi, lo = _scaled(magnitude, 16 - e)
    # log10 may round across a power of ten: the product, not its rounded
    # value, decides whether e moves.
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    moved = np.flatnonzero(low | high)
    if moved.size:
        e[moved] += np.where(high[moved], 1, -1)
        hi[moved], lo[moved] = _scaled(magnitude[moved], 16 - e[moved])
    # hi is an integer at this size, so the fraction is lo's.
    decided &= np.fabs(lo - np.floor(lo) - 0.5) >= 1e-6
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10 ** 17
    e += carry
    top, bottom = np.divmod(np.where(carry, 10 ** 16, n), 10 ** 9)
    # Digit k at row k + 1, between two rows of zeros.
    digits = np.zeros((19, values.size), np.uint8)
    for part, rows in ((bottom.astype(np.uint32), range(17, 8, -1)),
                       (top.astype(np.uint32), range(8, 0, -1))):
        for row in rows:
            quotient = part // 10
            digits[row] = part - quotient * 10
            part = quotient
    significant = np.max((digits[1:18] != 0)
                         * np.arange(1, 18, dtype=np.uint8)[:, None], axis=0)
    digits[1:18] += ord("0")

    # Built column by column, one text column per row: the sign; the digits
    # with a point before digit `point` unless no digit follows it, keeping
    # every digit before the point; the exponent.  A fixed number below 1
    # has its point first, a zero before it and 0 to 3 zeros after it.
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, np.where(e < 0, 0, e + 1), 1).astype(np.uint8)
    k = np.arange(18, dtype=np.uint8)[:, None]
    before = k < point
    # Products with masks select, as `np.where` would, at a fraction of its
    # cost on bytes.
    body = digits[1:] * before
    body += digits[:-1] * (k > point)
    body += (k == point) * np.uint8(ord("."))
    body *= before | ((k <= significant) & (significant > point))
    columns = np.zeros((_TEXT_WIDTH, values.size), np.uint8)
    columns[0] = np.signbit(values) * ord("-")
    columns[1] = (fixed & (e < 0)) * ord("0")
    columns[2] = body[0]
    for j in range(2, 5):
        columns[j + 1] = (fixed & (e <= -j)) * ord("0")
    columns[6:23] = body[1:]
    scientific = ~fixed
    size_e = np.where(e < 0, -e, e)
    hundreds, tens = np.divmod(size_e, 100)
    tens, ones = np.divmod(tens, 10)
    columns[23] = scientific * ord("e")
    columns[24] = scientific * np.where(e < 0, ord("-"), ord("+"))
    columns[25] = (scientific & (size_e >= 100)) * (hundreds + ord("0"))
    columns[26] = scientific * (tens + ord("0"))
    columns[27] = scientific * (ones + ord("0"))

    undecided = np.flatnonzero(~decided)
    columns[:, undecided] = 0
    text = np.ascontiguousarray(columns[columns.any(axis=1)].T)
    if undecided.size:
        fallback = np.array((("%.17g\n" * undecided.size)
                             % tuple(values[undecided].tolist())).encode()
                            .split())
        if fallback.itemsize > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, fallback.itemsize - text.shape[1])))
        text[undecided, :fallback.itemsize] = fallback.view(np.uint8).reshape(
            undecided.size, fallback.itemsize)
    return text


def _deviation(traj: dynamics.Trajectory, amps_of) -> np.ndarray:
    """The max deviation of each row from the closed form, whose amplitudes
    are `amps_of(cos, sin)` of the total angle, with the walk's libm cos
    and sin."""
    reference = np.stack(np.broadcast_arrays(*amps_of(traj.cos, traj.sin)),
                         axis=1)
    return np.fabs(traj.amps - reference).max(axis=1)


def _cell_text(columns) -> tuple[np.ndarray, np.ndarray]:
    """The `_format_17g` rows of the columns' distinct bit patterns, each
    with a spare byte set to `,`, and for each cell its row among them.

    Each column's distinct bit patterns are formatted once, so 0.0 and -0.0
    stay apart, all the columns' together and _FORMAT_BLOCK at a time, into
    one matrix as wide as the widest text can be.
    """
    cells = np.empty((len(columns[0]), len(columns)), np.int32)
    distinct = []
    offset = 0
    for j, column in enumerate(columns):
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        cells[:, j] = inverse + offset
        distinct.append(bits)
        offset += bits.size
    values = np.concatenate(distinct).view(float)
    text = np.zeros((values.size, _TEXT_WIDTH + 1), np.uint8)
    width = 0
    for i in range(0, values.size, _FORMAT_BLOCK):
        block = _format_17g(values[i:i + _FORMAT_BLOCK])
        text[i:i + len(block), :block.shape[1]] = block
        width = max(width, block.shape[1])
    text[:, width] = ord(",")
    return text[:, :width + 1], cells


def _rows_text(header: bytes, text: np.ndarray, cells: np.ndarray) -> bytearray:
    """`header`, then the cells' text rows gathered _ROW_BLOCK rows at a
    time: the last spare byte of a row becomes its newline, and the zero
    bytes are deleted.  One buffer of the most bytes the rows can take
    holds them, cut to what they took."""
    out = bytearray(len(header) + cells.size * text.shape[1])
    out[:len(header)] = header
    end = len(header)
    for start in range(0, len(cells), _ROW_BLOCK):
        block = text[cells[start:start + _ROW_BLOCK]]
        block[:, -1, -1] = ord("\n")
        rows = block.tobytes().translate(None, b"\0")
        out[end:end + len(rows)] = rows
        end += len(rows)
    del out[end:]
    return out


def _trace_csv(traj: dynamics.Trajectory, amps_of) -> str:
    """The trajectory's columns and, last, `_deviation`, as CSV text.

    The text is decoded once `_rows_text` has returned and freed the
    formatted values.
    """
    return _rows_text(
        b"t,phi,p0,p1,alpha_sq,beta_sq,energy,step_overlap,"
        b"deviation_from_closed_form\n",
        *_cell_text((traj.t, traj.phi, traj.p0, traj.p1, traj.alpha_sq,
                     traj.beta_sq, traj.energy, traj.step_overlap,
                     _deviation(traj, amps_of)))).decode("ascii")


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
    "leak": dict(default="none", choices=dynamics.LEAK_MODELS),
    "no-mask": dict(action="store_true",
                    help="drop condition (i): drive without the projector"),
    "drive": dict(default="p1", choices=dynamics.DRIVES),
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
