"""statnet benchmark: each workload drives ``statnet.cli.main`` in-process.

    python3 bench/run.py --workload chain16 --seed 1 --seconds 40 --trace 0

Run it from any directory: it imports statnet from the checkout's ``src/``
and exits 1 without a result when that is missing.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit and sample
count, and the environment.  Full results (and, with ``--trace 1``, the
spans) are written under ``bench/out/``.

Workloads, one per process; the seed picks statnet's ``--seed``, the trace
angle and the triplet drive, so the same seed gives the same commands:

fig1-shots  ``run`` on builtin fig1 and fig1-unsat at 100 shots (dt=1e-3).
            dim 256, support 2: nearly all the time re-runs a 1000-step
            evolve once per shot.
chain16     ``run --shots 1`` and ``solve-brute`` on the 4-block chain
            (16 nodes, dim 65536) and its unsat variant: dense 2^n work in
            prepare, evolve and the oracle.
traces      ``simulate-link`` and ``simulate-triplet`` at dt=1e-4 (10^4 rows
            each): dynamics with every step recorded and written as CSV.

Every workload also runs the remaining commands on small inputs (fig1 with
one shot, traces at dt=1e-3) between the workload's own commands, so that
every end-to-end metric is measured on every workload.  Rounds of commands run
until the next would overrun the budget; the second round repeats the first
one's inputs and must reproduce its stdout.  Each output is checked after its
timed call, and a wrong output counts as a failed op.  Set-up (a fresh
interpreter importing statnet.cli) is sampled between commands throughout the
run.  Every end-to-end time is a median of seconds at the reference speed:
each call's wall time is scaled by a fixed pure-Python loop timed between
calls in the stretch around it (see ``Reference``), which takes out the
host's drifting speed; the report keeps the wall-clock times.  ``--trace 1``
spends half the budget untraced and half with spans recorded around
statnet's public functions (see ``tracing.py``); it reports per-layer
medians, in wall-clock seconds, and the tracing overhead on ``run``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench import chain, checks, tracing

WORKLOADS = ("fig1-shots", "chain16", "traces")
CHAIN_BLOCKS = 4
FIG1_SOLUTIONS = {"fig1": ["11101011"], "fig1-unsat": []}
FIG1 = ("fig1", "fig1-unsat")
CHAIN = ("chain16", "chain16-unsat")
COARSE_DT = 1e-3
FINE_DT = 1e-4
# Groups of small commands run after each of a workload's own commands, so
# their medians rest on 20 or more samples spread over the run, at a cost of
# about a sixth of it.
SMALL_AFTER = {"fig1-shots": 2, "chain16": 1, "traces": 2}
SETUP_EVERY = 2.5
# The reference loop: REF_LOOP iterations take about REF_SECONDS on the
# 2-vCPU Xeon VM the baseline was recorded on.  A call is scaled by the loop
# times from REF_WINDOW seconds before it to REF_WINDOW seconds after it.
REF_LOOP = 100_000
REF_SECONDS = 0.009
REF_WINDOW = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

BYTES_NOTE = ("byte metrics are computed (dim x itemsize); every working set "
              "fits in L3, so they are not measured bandwidth")

# The per-command end-to-end metrics: the median time of one CLI call.
COMMAND_METRICS = {
    "run_p50_s": "run",
    "solve_brute_p50_s": "solve-brute",
    "link_trace_p50_s": "simulate-link",
    "triplet_trace_p50_s": "simulate-triplet",
}


@dataclass(frozen=True)
class Network:
    spec: str                  # what --network receives
    solutions: list[str]       # the oracle's answer, known in advance
    support: frozenset[int]    # support of network_mask(include_output_pins=False)


@dataclass(frozen=True)
class Op:
    command: str
    argv: tuple[str, ...]
    check: Callable[[str, int], list[str]]


class Reference:
    """A fixed pure-Python loop, timed between the measured calls.

    The host's speed drifts by up to 1.5x, in stretches from seconds to
    minutes, and pure-Python and numpy code slow down alike.  ``scale`` turns
    a call's seconds into seconds at the reference speed (the loop taking
    REF_SECONDS), using the median loop time within REF_WINDOW seconds of the
    call.  The window, rather than only the loops just before and after the
    call, keeps one loop's jitter out of the scaled time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (end, seconds)

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def scale(self, start: float, elapsed: float) -> float:
        low, high = start - REF_WINDOW, start + elapsed + REF_WINDOW
        near = [seconds for end, seconds in self.samples if low <= end <= high]
        return elapsed * REF_SECONDS / statistics.median(near)


@dataclass
class Tally:
    calls: list[tuple[str, float, float]] = field(default_factory=list)  # command, start, s
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: Op, start: float, elapsed: float, problems: list[str]) -> None:
        self.calls.append((op.command, start, elapsed))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{' '.join(op.argv)}: {p}" for p in problems)

    def times(self, reference: Reference | None = None) -> dict[str, list[float]]:
        """Each command's call times: wall clock, or at the reference speed."""
        times: dict[str, list[float]] = {}
        for command, start, elapsed in self.calls:
            times.setdefault(command, []).append(
                elapsed if reference is None else reference.scale(start, elapsed))
        return times


def load_networks(tmp: Path) -> dict[str, Network]:
    from statnet import network, statics

    nets = {}
    texts = {name: None for name in FIG1_SOLUTIONS}
    texts.update({"chain16": chain.chain_dsl(CHAIN_BLOCKS),
                  "chain16-unsat": chain.chain_dsl(CHAIN_BLOCKS, unsat=True)})
    for name, text in texts.items():
        if text is None:
            spec, net = name, network.BUILTIN_NETWORKS[name]()
            solutions = FIG1_SOLUTIONS[name]
        else:
            path = tmp / f"{name}.net"
            path.write_text(text, encoding="utf-8")
            spec, net = str(path), network.parse_network(text)
            solutions = chain.chain_solutions(CHAIN_BLOCKS, unsat=name.endswith("unsat"))
        mask = statics.network_mask(net, include_output_pins=False)
        nets[name] = Network(spec, solutions, frozenset(mask.support()))
    return nets


def run_ops(rng: random.Random, nets: dict[str, Network], names: tuple[str, ...],
            shots: int) -> list[Op]:
    seed = str(rng.randrange(2 ** 31))
    ops = []
    for name in names:
        net = nets[name]
        ops.append(Op("run", ("run", "--network", net.spec, "--shots", str(shots),
                              "--dt", repr(COARSE_DT), "--seed", seed),
                      lambda out, rc, net=net: checks.check_run(
                          out, rc, net.solutions, net.support, shots)))
    return ops


def brute_ops(nets: dict[str, Network], names: tuple[str, ...]) -> list[Op]:
    return [Op("solve-brute", ("solve-brute", "--network", nets[name].spec),
               lambda out, rc, net=nets[name]: checks.check_brute(out, rc, net.solutions))
            for name in names]


def trace_ops(rng: random.Random, dt: float) -> list[Op]:
    theta = repr(rng.uniform(0.1, 0.5))   # theta + pi/3 stays below pi/2
    drive = rng.choice(("p1", "p2", "both"))
    n_steps = round(1.0 / dt)
    check = lambda out, rc: checks.check_trace(out, rc, n_steps)
    return [Op("simulate-link", ("simulate-link", "--theta", theta, "--dt", repr(dt)),
               check),
            Op("simulate-triplet", ("simulate-triplet", "--theta", theta,
                                    "--drive", drive, "--dt", repr(dt)), check)]


def round_ops(workload: str, rng: random.Random,
              nets: dict[str, Network]) -> list[Op]:
    """The workload's own commands, each followed by SMALL_AFTER small groups.

    Spreading the small commands between the large ones samples them across
    the whole run rather than in bursts, so their medians do not hang on
    the host's speed during a few seconds.  The rng draws every input that
    varies, so a seed fixes every command.
    """
    if workload == "fig1-shots":
        main_ops = run_ops(rng, nets, FIG1, 100)
        small = lambda: brute_ops(nets, FIG1) + trace_ops(rng, COARSE_DT)
    elif workload == "chain16":
        main_ops = run_ops(rng, nets, CHAIN, 1) + 2 * brute_ops(nets, CHAIN)
        small = lambda: trace_ops(rng, COARSE_DT)
    else:
        main_ops = trace_ops(rng, FINE_DT)
        small = lambda: run_ops(rng, nets, FIG1, 1) + brute_ops(nets, FIG1)
    ops = []
    for op in main_ops:
        ops.append(op)
        for _ in range(SMALL_AFTER[workload]):
            ops += small()
    return ops


def execute(main: Callable, op: Op) -> tuple[float, float, int | None, str, str]:
    """Time one CLI call: start, seconds, exit code (None if it raised), output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(op.argv))
        except Exception:  # the op failed; the benchmark goes on
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return start, elapsed, rc, out.getvalue(), err.getvalue()


def run_checked(main: Callable, op: Op, tally: Tally,
                expected: tuple[int | None, str] | None = None,
                reference: Reference | None = None) -> tuple[int | None, str]:
    """Time `op`, check its output (and that it equals `expected`), tally it.

    With `reference`, the reference loop is timed right after the call.
    """
    start, elapsed, rc, stdout, stderr = execute(main, op)
    if reference is not None:
        reference.sample()
    if rc is None:
        problems = ["raised: " + stderr.strip().splitlines()[-1]]
    elif rc == 2:
        problems = ["exit code 2: " + stderr.strip()[:200]]
    else:
        problems = op.check(stdout, rc)
    if expected is not None and (rc, stdout) != expected:
        problems.append("the same inputs gave different output")
    tally.record(op, start, elapsed, problems)
    return rc, stdout


def run_phase(workload: str, budget: float, rng: random.Random,
              nets: dict[str, Network], main: Callable, tally: Tally,
              reference: Reference,
              setup: list[tuple[float, float]] | None = None,
              before_op: Callable[[Op], None] | None = None) -> int:
    """Run rounds until the next one would overrun `budget`.

    There are at least two rounds and the second repeats the first's inputs,
    which must reproduce its stdout byte for byte.  The reference loop is
    timed before the first op and after every op and set-up sample.  With
    `setup` given, a fresh-import sample (start, seconds) is taken first and
    then between ops every SETUP_EVERY seconds, so set-up is sampled across
    the same stretch of time as the commands.
    """
    reference.sample()
    start = last_setup = time.perf_counter()
    if setup is not None:
        setup.append((start, setup_sample()))
        reference.sample()
    rounds, last = 0, 0.0
    first_ops, first_outputs = [], []
    while rounds < 2 or time.perf_counter() - start + last <= budget:
        round_start = time.perf_counter()
        ops = first_ops if rounds == 1 else round_ops(workload, rng, nets)
        for i, op in enumerate(ops):
            if before_op is not None:
                before_op(op)
            output = run_checked(main, op, tally,
                                 first_outputs[i] if rounds == 1 else None,
                                 reference)
            if rounds == 0:
                first_outputs.append(output)
            if setup is not None and time.perf_counter() - last_setup >= SETUP_EVERY:
                last_setup = time.perf_counter()
                setup.append((last_setup, setup_sample()))
                reference.sample()
        if rounds == 0:
            first_ops = ops
        last = time.perf_counter() - round_start
        rounds += 1
    return rounds


def setup_sample() -> float:
    """Seconds to import statnet.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import statnet.cli; "
            "print(repr(time.perf_counter() - t)); print(statnet.cli.__file__)")
    # Users import from bytecode caches, so let the warm-up sample write them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    elapsed, where = proc.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"fresh interpreter imported statnet from {where}")
    return float(elapsed)


def environment() -> dict:
    import platform

    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    cpu_model, caches = None, {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "note": BYTES_NOTE,
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "statnet" / "cli.py").is_file():
        print(f"error: no statnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # One process, one thread per library: keep the load within nproc.
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ.pop("STATNET_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    import statnet.cli

    if not Path(statnet.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: statnet imported from {statnet.cli.__file__}", file=sys.stderr)
        return 1

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    tally, reference = Tally(), Reference()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        nets = load_networks(Path(tmp))
        if args.trace:
            rounds = run_phase(args.workload, args.seconds / 2, rng, nets,
                               statnet.cli.main, tally, reference)
            untraced_run = median(tally.times(reference)["run"])
            traced, traced_reference = Tally(), Reference()
            tracer = tracing.Tracer()
            tracing.install_statnet(tracer)
            try:
                traced_main = tracer.span("cli.main", statnet.cli.main)
                rounds += run_phase(args.workload, args.seconds / 2, rng, nets,
                                    traced_main, traced, traced_reference,
                                    before_op=lambda op: tracer.begin_op(op.command))
            finally:
                tracer.uninstall()
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.problems += traced.problems
            metrics = tracing.per_layer_metrics(tracer)
            traced_runs = traced.times(traced_reference)["run"]
            metrics["trace.overhead_s"] = (
                median(traced_runs) - untraced_run, "s", len(traced_runs))
        else:
            setup_sample()  # the first import writes bytecode caches
            setup: list[tuple[float, float]] = []
            rounds = run_phase(args.workload, args.seconds, rng, nets,
                               statnet.cli.main, tally, reference, setup)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": (median([reference.scale(*s) for s in setup]),
                                   "s", len(setup))}
            times = tally.times(reference)
            for name, command in COMMAND_METRICS.items():
                metrics[name] = (median(times[command]), "s", len(times[command]))
            metrics["peak_rss_mb"] = (peak_rss, "MiB", 1)

    env = environment()
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "env": env,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "calls": tally.calls, "reference_samples": reference.samples,
    }
    (out_dir / f"{stamp}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
        (out_dir / f"{stamp}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "op_commands": tracer.op_commands, "spans": spans}) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds}")
    print("# env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems[:20]:
        print("# FAILED " + problem)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print("# wall-clock medians, unscaled: " + ", ".join(
        f"{command} {median(wall):.6g} s" for command, wall in tally.times().items()))
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} attempted)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
