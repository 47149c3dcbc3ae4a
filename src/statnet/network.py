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
`Network` states the naming rules once (distinct nodes and gate names, parts
on declared nodes), so `render(net)` parses back to `net` if names are words.
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


class _PartError(ValueError):
    """A fault of one part of a `Network`: `part` is the field and the
    position in it, ("gates", i) or ("pins", i), or 0 for the other fields."""

    def __init__(self, message: str, field: str, position: int = 0):
        super().__init__(message)
        self.part = (field, position)


class Network(Record):
    nodes: tuple[str, ...]
    gates: tuple[Gate, ...] = ()
    pins: tuple[Pin, ...] = ()
    drive_node: str | None = None

    def __post_init__(self):
        declared = set(self.nodes)
        if len(declared) != len(self.nodes):
            raise _PartError("duplicate node declaration", "nodes")
        for i, g in enumerate(self.gates):
            for n in g.nodes:
                if n not in declared:
                    raise _PartError(f"gate {g.name} references undeclared "
                                     f"node {n!r}", "gates", i)
            if any(h.name == g.name for h in self.gates[:i]):
                raise _PartError(f"gate {g.name!r} declared twice", "gates", i)
        pinned = set()
        for i, p in enumerate(self.pins):
            if p.node not in declared:
                raise _PartError(f"pin on undeclared node {p.node!r}",
                                 "pins", i)
            if p.node in pinned:
                raise _PartError(f"multiple pins on node {p.node!r}",
                                 "pins", i)
            pinned.add(p.node)
        if self.drive_node is not None:
            if self.drive_node not in declared:
                raise _PartError(f"drive on undeclared node {self.drive_node!r}",
                                 "drive_node")
            kinds = {p.node: p.kind for p in self.pins}
            if kinds.get(self.drive_node) != "output":
                raise _PartError(f"drive node {self.drive_node!r} must carry an "
                                 f"output pin", "drive_node")

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
# The statement keywords that give each field of a `Network`, one part per
# statement.
_STATEMENT_OF = {"nodes": "nodes", "gates": ("gate", "link"), "pins": "fix",
                 "drive_node": "drive"}
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
    """Parse the DSL into a fully validated Network.  A fault in one
    statement's text comes first; then `Network`'s faults, in field order."""
    nodes: tuple[str, ...] | None = None
    gates: list[Gate] = []
    # (node, value, kind or None) of each fix statement.
    raw_pins: list[tuple[str, int, str | None]] = []
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
            if line.startswith(_STATEMENT_OF["nodes"]):
                m = _NODES_RE.match(line)
                if not m:
                    raise ValueError("malformed nodes declaration")
                if nodes is not None:
                    raise ValueError("nodes declared twice")
                nodes = tuple(m.group(1).replace(",", " ").split())
            elif line.startswith(_STATEMENT_OF["gates"]):
                gates.append(_parse_gate(line))
            elif line.startswith(_STATEMENT_OF["pins"]):
                m = _FIX_RE.match(line)
                if not m:
                    raise ValueError("malformed fix statement")
                node, value_raw, kind = m.groups()
                if value_raw not in ("0", "1"):
                    raise ValueError(f"pin {node}: value must be 0 or 1, got {value_raw!r}")
                raw_pins.append((node, int(value_raw), kind))
            elif line.startswith(_STATEMENT_OF["drive_node"]):
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

    # `Pin` cannot raise: each value is checked above, each kind is the
    # statement's or inferred.
    outputs = {n for g in gates for n in g.out_nodes}
    pins = tuple(
        Pin(node, value, kind or ("output" if node in outputs else "input"))
        for node, value, kind in raw_pins)
    try:
        return Network(nodes, tuple(gates), pins, drive)
    except _PartError as exc:
        # The i-th part of a field comes from the i-th statement of its kind.
        field, index = exc.part
        kind = _STATEMENT_OF[field]
        lines = [lineno for lineno, line in statements if line.startswith(kind)]
        raise ParseError(str(exc), lines[index]) from None


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
