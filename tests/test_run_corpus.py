"""Byte corpus of the decisions and statics: `run`, `check` and `solve-brute`.

`corpus_argvs()` generates the invocations over the builtin nets and the
DSL nets of `NETS`, which an invocation names as `--network <name>`.
`run_corpus.json` holds, per invocation, the sha256 of its stdout and of its
stderr and its exit code, as `statnet` printed them when the corpus was
recorded; the digests and the file format are the trace corpus's
(`test_trace_corpus.digests`, `record`).  Each test writes the named net to a
file, runs the invocation in-process on that file and compares all three.

A change that moves these bytes on purpose re-records only the moved
entries and states their count.  To re-record, run

    PYTHONPATH=src python tests/test_run_corpus.py

which rewrites the JSON from the current code.
"""
import tempfile
from pathlib import Path

import pytest

from test_cli import STUCK_NET, chain_dsl
from test_trace_corpus import SCHEDULES, digests, load_corpus, record

CORPUS = Path(__file__).with_name("run_corpus.json")


def wide_dsl(m: int, unsat: bool) -> str:
    """m independent links x_i -> y_i, driven on y_{m-1} toward 1.

    The support with all pins holds 2^(m-1) states.  The unsat twin pins
    x0=1 as an input and y0=1 as an output, which the link x0 -> y0 forbids.
    """
    lines = ["nodes " + " ".join(f"x{i} y{i}" for i in range(m))]
    lines += [f"link x{i} -> y{i}" for i in range(m)]
    if unsat:
        lines += ["fix x0=1 input", "fix y0=1 output"]
    return "\n".join(lines + [f"fix y{m - 1}=1 output",
                              f"drive y{m - 1}"]) + "\n"


NETS = {
    **{f"chain{k}{tag}": chain_dsl(k, unsat)
       for k in (2, 4) for tag, unsat in (("", False), ("-unsat", True))},
    **{f"wide{m}{tag}": wide_dsl(m, unsat)
       for m in (3, 8, 12, 16) for tag, unsat in (("", False),
                                                  ("-unsat", True))},
    # The drive demands mass where the constrained subspace has none.
    "stuck": STUCK_NET,
    # Errors: a malformed pin value, a gate name declared twice, and a net
    # that `run` cannot drive.
    "bad-pin": "nodes a\nfix a=2\n",
    "twice": "nodes a b c\nlink a -> b\n"
             "gate link_a_b in(b) out(c) { 0->1 ; 1->0 }\n",
    "undriven": "nodes a b\nlink a -> b\n",
}
# The nets `run` decides; `check --dump` refuses wide12 and wide16, of more
# than 16 nodes, with exit 2.
DECIDED = ("fig1", "fig1-unsat", *NETS.keys() - {"bad-pin", "twice",
                                                   "undriven"})


def corpus_argvs() -> list[list[str]]:
    """Every invocation of the corpus, in a fixed order."""
    argvs = []
    for net in sorted(DECIDED):
        for kind in SCHEDULES:
            for dt in ("0.01", "0.001"):
                for leak in ("none", "uniform-excited"):
                    for seed, shots in (("0", "100"), ("7", "1"),
                                        ("123456", "100")):
                        argvs.append(["run", "--network", net, "--schedule",
                                      kind, "--dt", dt, "--leak", leak,
                                      "--seed", seed, "--shots", shots])
    for net in sorted(NETS.keys() | {"fig1", "fig1-unsat"}):
        argvs += [["check", "--network", net],
                  ["check", "--network", net, "--dump"],
                  ["solve-brute", "--network", net]]
        if net not in DECIDED:
            argvs.append(["run", "--network", net])
    # Errors of `run` on a valid net, past the parser.
    for flags in (["--dt", "0"], ["--tau", "nan"], ["--seed", "-1"],
                  ["--shots", "0"]):
        argvs.append(["run", "--network", "fig1", *flags])
    return argvs


ARGVS = corpus_argvs()


def with_files(argv: list[str], directory: Path) -> list[str]:
    """`argv` with a net of `NETS` named by its file in `directory`."""
    return [str(directory / f"{a}.net") if a in NETS else a for a in argv]


def write_nets(directory: Path) -> None:
    for name, text in NETS.items():
        (directory / f"{name}.net").write_text(text)


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("nets")
    write_nets(directory)
    return directory


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS)


def test_corpus_file_lists_the_generated_invocations(corpus):
    assert list(corpus) == [" ".join(argv) for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
def test_bytes_equal_the_corpus(argv, net_dir, corpus):
    entry = corpus[" ".join(argv)]
    want = {key: entry[key] for key in ("stdout", "stderr", "exit")}
    assert digests(with_files(argv, net_dir)) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_nets(Path(tmp))
        record(CORPUS, ARGVS, lambda argv: digests(with_files(argv, Path(tmp))))
