"""Boolean-network data model, text DSL, and the brute-force oracle.

DSL statements (one per line, ``#`` starts a comment):

    nodes a b c ...
    gate <name> in(a,b) out(c,d) { 00->00 ; 01->01 ; ... }
    link a -> b
    fix a=1 [input|output]
    drive a

A ``link`` is sugar for a two-node NOT gate and is desugared at parse time;
downstream modules only ever see gates and pins.  Assignment strings are
ordered by the ``nodes`` declaration (first node = most significant bit).
"""
from __future__ import annotations

import re

from .errors import ParseError
from .record import Record

DEFAULT_NODE_LIMIT = 24

NOT_ROWS = (("0", "1"), ("1", "0"))


class TruthTable(Record):
    in_arity: int
    out_arity: int
    rows: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("truth table has no rows")
        seen = set()
        for ins, outs in self.rows:
            if len(ins) != self.in_arity or len(outs) != self.out_arity:
                raise ValueError(f"row {ins}->{outs} does not match arities "
                                 f"{self.in_arity}/{self.out_arity}")
            if not set(ins + outs) <= {"0", "1"}:
                raise ValueError(f"non-binary row {ins}->{outs}")
            if ins in seen:
                raise ValueError(f"duplicate input pattern {ins}")
            seen.add(ins)

    def as_map(self) -> dict[str, str]:
        return dict(self.rows)


class Gate(Record):
    name: str
    in_nodes: tuple[str, ...]
    out_nodes: tuple[str, ...]
    table: TruthTable

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"gate {self.name}: a node appears twice in in()/out()")
        if (len(self.in_nodes), len(self.out_nodes)) != (self.table.in_arity,
                                                         self.table.out_arity):
            raise ValueError(f"gate {self.name}: node lists do not match table arities")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.in_nodes + self.out_nodes

    def is_link(self) -> bool:
        return self.table.rows == NOT_ROWS


class Pin(Record):
    node: str
    value: int
    kind: str  # "input" | "output"

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"pin {self.node}: value must be 0 or 1")
        if self.kind not in ("input", "output"):
            raise ValueError(f"pin {self.node}: kind must be input or output")


class Network(Record):
    nodes: tuple[str, ...]
    gates: tuple[Gate, ...] = ()
    pins: tuple[Pin, ...] = ()
    drive_node: str | None = None

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node declaration")
        declared = set(self.nodes)
        for g in self.gates:
            for n in g.nodes:
                if n not in declared:
                    raise ValueError(f"gate {g.name} references undeclared node {n!r}")
        pinned = set()
        for p in self.pins:
            if p.node not in declared:
                raise ValueError(f"pin on undeclared node {p.node!r}")
            if p.node in pinned:
                raise ValueError(f"multiple pins on node {p.node!r}")
            pinned.add(p.node)
        if self.drive_node is not None:
            if self.drive_node not in declared:
                raise ValueError(f"drive on undeclared node {self.drive_node!r}")
            kinds = {p.node: p.kind for p in self.pins}
            if kinds.get(self.drive_node) != "output":
                raise ValueError(f"drive node {self.drive_node!r} must carry an output pin")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def dim(self) -> int:
        return 2 ** self.n_nodes

    def pin(self, node: str) -> Pin | None:
        for p in self.pins:
            if p.node == node:
                return p
        return None


_NODES_RE = re.compile(r"nodes\s+(.+)$")
_GATE_RE = re.compile(
    r"gate\s+(\w+)\s+in\(([^)]*)\)\s+out\(([^)]*)\)\s*\{(.*)\}\s*$", re.S)
_LINK_RE = re.compile(r"link\s+(\w+)\s*->\s*(\w+)\s*$")
_FIX_RE = re.compile(r"fix\s+(\w+)\s*=\s*(\S+)(?:\s+(input|output))?\s*$")
_DRIVE_RE = re.compile(r"drive\s+(\w+)\s*$")
_ROW_RE = re.compile(r"([01]*)\s*->\s*([01]*)\s*$")


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in raw.split(",") if n.strip())


def link_gate(src: str, dst: str) -> Gate:
    """The desugared form of ``link src -> dst``."""
    return Gate(f"link_{src}_{dst}", (src,), (dst,), TruthTable(1, 1, NOT_ROWS))


def _parse_gate(line: str) -> Gate:
    """The Gate of a ``gate`` or ``link`` statement."""
    if line.startswith("link"):
        m = _LINK_RE.match(line)
        if not m:
            raise ValueError("malformed link statement")
        return link_gate(m.group(1), m.group(2))
    m = _GATE_RE.match(line)
    if not m:
        raise ValueError("malformed gate statement")
    name, ins_raw, outs_raw, body = m.groups()
    rows = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rm = _ROW_RE.match(chunk)
        if not rm:
            raise ValueError(f"malformed table row {chunk!r}")
        rows.append((rm.group(1), rm.group(2)))
    ins, outs = _split_names(ins_raw), _split_names(outs_raw)
    return Gate(name, ins, outs, TruthTable(len(ins), len(outs), tuple(rows)))


def parse_network(text: str) -> Network:
    """Parse the DSL into a fully validated Network."""
    nodes: tuple[str, ...] | None = None
    gates: list[Gate] = []
    # (node, value, kind or None, line) of each fix statement.
    raw_pins: list[tuple[str, int, str | None, int]] = []
    drive: str | None = None

    # Gate bodies may span lines: join continuation lines until braces balance.
    statements: list[tuple[int, str]] = []
    pending: tuple[int, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if pending is not None:
            line = pending[1] + " " + line
            lineno = pending[0]
            pending = None
        if "{" in line and "}" not in line:
            pending = (lineno, line)
            continue
        statements.append((lineno, line))
    if pending is not None:
        raise ParseError("unterminated gate body", pending[0])

    for lineno, line in statements:
        try:
            if line.startswith("nodes"):
                m = _NODES_RE.match(line)
                if not m:
                    raise ValueError("malformed nodes declaration")
                if nodes is not None:
                    raise ValueError("nodes declared twice")
                names = tuple(m.group(1).replace(",", " ").split())
                if len(set(names)) != len(names):
                    raise ValueError("duplicate node declaration")
                nodes = names
            elif line.startswith(("gate", "link")):
                gate = _parse_gate(line)
                if any(g.name == gate.name for g in gates):
                    raise ValueError(f"gate {gate.name!r} declared twice")
                gates.append(gate)
            elif line.startswith("fix"):
                m = _FIX_RE.match(line)
                if not m:
                    raise ValueError("malformed fix statement")
                node, value_raw, kind = m.groups()
                if value_raw not in ("0", "1"):
                    raise ValueError(f"pin {node}: value must be 0 or 1, got {value_raw!r}")
                raw_pins.append((node, int(value_raw), kind, lineno))
            elif line.startswith("drive"):
                m = _DRIVE_RE.match(line)
                if not m:
                    raise ValueError("malformed drive statement")
                if drive is not None:
                    raise ValueError("drive declared twice")
                drive = m.group(1)
            else:
                raise ValueError(f"unknown statement {line.split()[0]!r}")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    if nodes is None:
        raise ParseError("missing nodes declaration")

    outputs = {n for g in gates for n in g.out_nodes}
    pins = []
    for node, value, kind, lineno in raw_pins:
        kind = kind or ("output" if node in outputs else "input")
        try:
            pins.append(Pin(node, value, kind))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    try:
        return Network(nodes, tuple(gates), tuple(pins), drive)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def render(net: Network) -> str:
    """Canonical DSL text; parse_network(render(net)) == net."""
    lines = ["nodes " + " ".join(net.nodes)]
    for g in net.gates:
        if g.is_link() and g.name == f"link_{g.in_nodes[0]}_{g.out_nodes[0]}":
            lines.append(f"link {g.in_nodes[0]} -> {g.out_nodes[0]}")
        else:
            body = " ; ".join(f"{i}->{o}" for i, o in g.table.rows)
            lines.append(f"gate {g.name} in({','.join(g.in_nodes)}) "
                         f"out({','.join(g.out_nodes)}) {{ {body} }}")
    for p in net.pins:
        lines.append(f"fix {p.node}={p.value} {p.kind}")
    if net.drive_node is not None:
        lines.append(f"drive {net.drive_node}")
    return "\n".join(lines) + "\n"


FIG1_XOR_ROWS = (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10"))

FIG1_DSL = """\
nodes a b c d e f g h
gate gate1 in(a,b) out(c,d) { 00->00 ; 01->01 ; 10->11 ; 11->10 }
link d -> e
gate gate3 in(e,f) out(g,h) { 00->00 ; 01->01 ; 10->11 ; 11->10 }
fix b=1 input
fix f=0 input
fix h=1 output
drive h
"""

FIG1_UNSAT_DSL = FIG1_DSL.replace("fix h=1 output\n",
                                  "fix g=0 output\nfix h=1 output\n")


def builtin_fig1() -> Network:
    """The worked 8-node instance: two invertible-XOR gates joined by a link."""
    return parse_network(FIG1_DSL)


def builtin_fig1_unsat() -> Network:
    """Same network with an extra output pin g=0 that no assignment satisfies."""
    return parse_network(FIG1_UNSAT_DSL)


BUILTIN_NETWORKS = {"fig1": builtin_fig1, "fig1-unsat": builtin_fig1_unsat}


def assignment_satisfies(net: Network, assignment: str,
                         include_pins: bool = True) -> bool:
    """True iff every gate row matches and (optionally) every pin is met."""
    if len(assignment) != net.n_nodes:
        raise ValueError(f"assignment length {len(assignment)} != {net.n_nodes} nodes")
    pos = {n: i for i, n in enumerate(net.nodes)}
    for g in net.gates:
        ins = "".join(assignment[pos[n]] for n in g.in_nodes)
        outs = "".join(assignment[pos[n]] for n in g.out_nodes)
        if g.table.as_map().get(ins) != outs:
            return False
    if include_pins:
        for p in net.pins:
            if assignment[pos[p.node]] != str(p.value):
                return False
    return True


def check_enumerable(net: Network) -> None:
    """Raise before any path that touches all 2^n assignments of a large net."""
    if net.n_nodes > DEFAULT_NODE_LIMIT:
        raise ValueError(f"{net.n_nodes} nodes exceeds enumeration limit "
                         f"{DEFAULT_NODE_LIMIT}")


def brute_force_solutions(net: Network, include_pins: bool = True) -> list[str]:
    """All satisfying assignments in ascending basis-index order (exhaustive)."""
    check_enumerable(net)
    n = net.n_nodes
    return [a for k in range(2 ** n)
            if assignment_satisfies(net, a := format(k, f"0{n}b"), include_pins)]
