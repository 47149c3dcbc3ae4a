"""Byte corpus of the recorded traces: `simulate-link` and `simulate-triplet`.

`corpus_argvs()` generates the invocations.  `trace_corpus.json` holds, per
invocation, the sha256 of its stdout and of its stderr and its exit code, as
`statnet` printed them when the corpus was recorded.  Each test runs one
invocation in-process and compares all three.

A change that moves trace bytes on purpose re-records only the moved
entries and states their count and tolerance.  To re-record, run

    PYTHONPATH=src python tests/test_trace_corpus.py

which rewrites the JSON from the current code.
"""
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from statnet.cli import main

CORPUS = Path(__file__).with_name("trace_corpus.json")

SCHEDULES = ("linear-ramp", "cosine-ramp", "exponential-relax")
THETAS = (0.0, 0.1, 0.3, math.pi / 4, 0.7)
DTS = (1e-2, 1e-3)


def corpus_argvs() -> list[list[str]]:
    """Every invocation of the corpus, in a fixed order."""
    argvs = []
    for command in ("simulate-link", "simulate-triplet"):
        for kind in SCHEDULES:
            for theta in THETAS:
                for dt in DTS:
                    argvs.append([command, "--schedule", kind,
                                  "--theta", repr(theta), "--dt", repr(dt)])
        # dt defaults to tau/1000, so t/tau is not t.
        for kind in SCHEDULES:
            for tau in ("0.37", "3"):
                argvs.append([command, "--schedule", kind, "--theta", "0.3",
                              "--tau", tau])
    for kind in SCHEDULES:
        for theta in ("0.0", "0.3"):
            argvs.append(["simulate-link", "--schedule", kind,
                          "--theta", theta, "--no-mask", "--dt", "0.01"])
    # From theta=0 sector r=1 starts empty and is refilled at the first step;
    # a half turn empties sector r=0 at the midpoint and refills it after.
    for dt in ("0.01", "0.001"):
        argvs.append(["simulate-link", "--schedule", "cosine-ramp",
                      "--theta", "0", "--phi-final", repr(math.pi),
                      "--dt", dt])
    # The triplet loses its p1=0 sector while the target is positive: exit 2.
    argvs.append(["simulate-triplet", "--theta", "0.785398163397448",
                  "--phi-final", "1.5707963267948966", "--dt", "0.1"])
    # The benchmark's triplet shape, with each drive name it passes.
    for drive in ("p2", "both"):
        argvs.append(["simulate-triplet", "--theta", "0.3", "--drive", drive,
                      "--dt", "0.001"])
    # The benchmark's trace size, 10^4 rows, on each schedule, with theta in
    # its range [0.1, 0.5].
    for kind, theta in zip(SCHEDULES, ("0.1", "0.3", "0.5")):
        argvs.append(["simulate-link", "--schedule", kind, "--theta", theta,
                      "--dt", "0.0001"])
        for drive in ("p2", "both"):
            argvs.append(["simulate-triplet", "--schedule", kind,
                          "--theta", theta, "--drive", drive,
                          "--dt", "0.0001"])
    return argvs


def digests(argv: list[str]) -> dict:
    """sha256 of stdout and of stderr, and the exit code, of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def load_corpus(corpus: Path = CORPUS) -> dict:
    return {" ".join(entry["argv"]): entry
            for entry in json.loads(corpus.read_text())}


ARGVS = corpus_argvs()


def test_corpus_file_lists_the_generated_invocations():
    assert list(load_corpus()) == [" ".join(argv) for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
def test_trace_bytes_equal_the_corpus(argv):
    entry = load_corpus()[" ".join(argv)]
    want = {key: entry[key] for key in ("stdout", "stderr", "exit")}
    assert digests(argv) == want


def record(corpus: Path = CORPUS, argvs=ARGVS, run=digests) -> None:
    """Write `run(argv)` of every invocation to `corpus`, keyed by argv."""
    entries = [{"argv": argv, **run(argv)} for argv in argvs]
    corpus.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries)
                      + "\n]\n")
    print(f"recorded {len(entries)} invocations in {corpus}")


if __name__ == "__main__":
    record()
