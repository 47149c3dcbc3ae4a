"""In-memory spans around calls into statnet's public functions.

The tracer wraps functions from outside the package: every statnet module
that holds a reference to a wrapped function gets the wrapper, so calls made
through ``from .x import f`` bindings are seen as well as calls through
``module.f``.  Each benchmark command is one op; every span carries the op id
and the index of the span that was open when it started (its parent).
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


class Tracer:
    """Records spans and counters; `uninstall` restores every patched attribute."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op_commands: dict[int, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, command: str) -> None:
        """Attribute the spans and counts that follow to a new op."""
        self.op = len(self.op_commands)
        self.op_commands[self.op] = command

    def span(self, name: str, fn, info=None):
        """Wrap `fn` so each call records a span; `info(result)` adds details."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span.start, span.end = start, end
            if info is not None:
                span.info = info(result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Wrap `fn` so each call only increments a per-op count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch_function(self, fn, replacement) -> None:
        """Point every reference to `fn` in loaded statnet modules at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "statnet":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, fn))

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_statnet(tracer: Tracer) -> None:
    """Wrap the public functions of each measured statnet layer.

    A function the package no longer has is skipped, and its metrics read 0.
    """
    from statnet import dynamics, hilbert, network, protocol, statics

    def spanned(module, attr, layer, info=None):
        fn = getattr(module, attr, None)
        if fn is not None:
            tracer.patch_function(fn, tracer.span(f"{layer}.{attr}", fn, info))

    spanned(network, "parse_network", "network")
    spanned(network, "brute_force_solutions", "network")
    satisfies = getattr(network, "assignment_satisfies", None)
    if satisfies is not None:
        tracer.patch_function(satisfies, tracer.counter(
            "network.assignment_satisfies", satisfies))
    spanned(statics, "network_mask", "statics",
            lambda m: {"bytes": m.dim * m.bits.itemsize})
    spanned(protocol, "run_protocol", "protocol")
    spanned(protocol, "run_once", "protocol")
    spanned(protocol, "prepare_ground", "protocol",
            lambda p: {"support": p.support_size, "dim": p.state.dim})
    spanned(protocol, "measure_sample", "protocol")
    spanned(dynamics, "evolve", "dynamics",
            lambda tr: {"steps": tr.schedule.n_steps(),
                        "amp_bytes": tr.schedule.n_steps() * tr.final_state.dim * 16})
    spanned(dynamics, "triplet_watchdog_demo", "dynamics")

    post_init = hilbert.StateVector.__post_init__

    def counted_post_init(sv):
        post_init(sv)
        counts = tracer.counts[tracer.op]
        counts["hilbert.statevector_count"] += 1
        counts["hilbert.statevector_bytes"] += sv.amps.nbytes

    tracer.patch_attr(hilbert.StateVector, "__post_init__", counted_post_init)


@dataclass
class OpRecord:
    """Per-op totals: inclusive and self time, calls and summed info by span name."""

    command: str
    time: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    info: dict = field(default_factory=lambda: defaultdict(Counter))
    counts: Counter = field(default_factory=Counter)


def op_records(tracer: Tracer) -> dict[int, OpRecord]:
    records = {op: OpRecord(cmd, counts=tracer.counts[op])
               for op, cmd in tracer.op_commands.items()}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        rec = records[span.op]
        rec.time[span.name] += span.duration
        rec.self_time[span.name] += own
        rec.calls[span.name] += 1
        for key, value in span.info.items():
            rec.info[span.name][key] += value
    return records


RUN = ("run",)
BRUTE = ("solve-brute",)
LINK = ("simulate-link",)
TRIPLET = ("simulate-triplet",)

# name, unit, commands whose ops are aggregated, value of one op.
PER_LAYER = (
    ("network.parse_s", "s", RUN,
     lambda r: r.time["network.parse_network"]),
    ("network.brute_s", "s", BRUTE,
     lambda r: r.time["network.brute_force_solutions"]),
    ("network.satisfies_calls", "count", BRUTE,
     lambda r: r.counts["network.assignment_satisfies"]),
    ("statics.mask_s", "s", RUN,
     lambda r: r.time["statics.network_mask"]),
    ("statics.mask_calls", "count", RUN,
     lambda r: r.calls["statics.network_mask"]),
    ("statics.mask_bytes", "bytes_computed", RUN,
     lambda r: (r.info["statics.network_mask"]["bytes"]
                / max(1, r.calls["statics.network_mask"]))),
    ("hilbert.statevector_count", "count", LINK,
     lambda r: r.counts["hilbert.statevector_count"]),
    ("hilbert.statevector_bytes", "bytes_computed", RUN,
     lambda r: r.counts["hilbert.statevector_bytes"]),
    ("protocol.prepare_s", "s", RUN,
     lambda r: r.time["protocol.prepare_ground"]),
    ("protocol.support_ratio", "ratio", RUN,
     lambda r: (r.info["protocol.prepare_ground"]["support"]
                / max(1, r.info["protocol.prepare_ground"]["dim"]))),
    ("protocol.measure_s", "s", RUN,
     lambda r: r.time["protocol.measure_sample"]),
    ("protocol.measure_calls", "count", RUN,
     lambda r: r.calls["protocol.measure_sample"]),
    ("protocol.self_s", "s", RUN,
     lambda r: r.self_time["protocol.run_protocol"] + r.self_time["protocol.run_once"]),
    ("dynamics.evolve_s", "s", RUN,
     lambda r: r.time["dynamics.evolve"]),
    ("dynamics.evolve_calls", "count", RUN,
     lambda r: r.calls["dynamics.evolve"]),
    ("dynamics.steps", "count", RUN,
     lambda r: r.info["dynamics.evolve"]["steps"]),
    ("dynamics.amp_bytes", "bytes_computed", RUN,
     lambda r: r.info["dynamics.evolve"]["amp_bytes"]),
    ("dynamics.triplet_s", "s", TRIPLET,
     lambda r: r.time["dynamics.triplet_watchdog_demo"]),
    ("cli.self_s", "s", LINK + TRIPLET,
     lambda r: r.self_time["cli.main"]),
)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Median over the ops of each metric's commands, with unit and op count."""
    records = op_records(tracer).values()
    out = {}
    for name, unit, commands, value in PER_LAYER:
        values = [value(r) for r in records if r.command in commands]
        if values:
            out[name] = (float(statistics.median(values)), unit, len(values))
    return out
