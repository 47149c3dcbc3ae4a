"""Mutation gate for the decision path: each mutant must fail a named check.

A mutant is one textual replacement in one function of `protocol`.  The test
takes the function's source from `inspect.getsource`, makes the replacement,
compiles the result into `protocol`'s namespace and patches it in, so every
caller in `protocol` and the CLI reaches it.  The named check must then fail
with an assertion.  The checks are deterministic: the `_draw` boundary check,
the leak oracle on fixed nets, and `run` stdout digests that the run corpus
already holds.  No hypothesis draw runs inside the gate.
"""
import inspect
import tempfile
from pathlib import Path

import pytest

from statnet import protocol
from statnet.network import builtin_fig1
from test_protocol import (STUCK, check_draw_at_boundaries,
                           check_leak_preparation, pinned_drive_net)
from test_run_corpus import CORPUS, with_files, write_nets
from test_trace_corpus import digests, load_corpus

RUN_CORPUS = load_corpus(CORPUS)


def check_leak_oracle():
    """The leak oracle on the stuck link, fig1 and the pinned-drive nets."""
    for net in [STUCK, builtin_fig1(),
                *(pinned_drive_net(drive, value)
                  for drive in "ace" for value in (0, 1))]:
        check_leak_preparation(net)


def corpus_check(net, leak="none"):
    """`run` on `net` prints the bytes the run corpus holds for it."""
    argv = ["run", "--network", net, "--schedule", "linear-ramp",
            "--dt", "0.01", "--leak", leak, "--seed", "0", "--shots", "100"]
    entry = RUN_CORPUS[" ".join(argv)]

    def check():
        with tempfile.TemporaryDirectory() as tmp:
            write_nets(Path(tmp))
            got = digests(with_files(argv, Path(tmp)))
        assert got == {key: entry[key]
                       for key in ("stdout", "stderr", "exit")}
    return check


CHECKS = {
    "draw boundaries": check_draw_at_boundaries,
    "leak oracle": check_leak_oracle,
    "run fig1": corpus_check("fig1"),
    "run fig1-unsat": corpus_check("fig1-unsat"),
    "run stuck leak": corpus_check("stuck", "uniform-excited"),
    "run wide8": corpus_check("wide8"),
}

# (check, function, source text, replacement)
MUTANTS = [
    ("draw boundaries", "_draw", 'side="right"', 'side="left"'),
    ("draw boundaries", "_draw", "    cdf /= cdf[-1]\n", ""),
    ("leak oracle", "prepare_ground", "amps[ones]", "amps[~ones]"),
    ("leak oracle", "prepare_ground", "(n1 if pin.value else size - n1)",
     "(size - n1 if pin.value else n1)"),
    ("leak oracle", "prepare_ground", "!= pin.value", "== pin.value"),
    ("run fig1", "run_protocol", "== pin.value", "!= pin.value"),
    ("run stuck leak", "run_protocol", "solutions = prep.mask.bits[pos]",
     "solutions = pos >= 0"),
]


def mutant(function: str, text: str, replacement: str):
    """`protocol.<function>` with `text` replaced, once, by `replacement`."""
    source = inspect.getsource(getattr(protocol, function))
    assert source.count(text) == 1, f"{text!r} is not once in {function}"
    scope = {}
    exec(compile(source.replace(text, replacement), protocol.__file__, "exec"),
         vars(protocol), scope)
    return scope[function]


@pytest.mark.parametrize("name", CHECKS)
def test_check_passes_on_the_program(name):
    CHECKS[name]()


@pytest.mark.parametrize("check, function, text, replacement", MUTANTS,
                         ids=[f"{m[1]}: {m[3] or 'no ' + m[2].strip()}"
                              for m in MUTANTS])
def test_mutant_fails_its_check(monkeypatch, check, function, text,
                                replacement):
    monkeypatch.setattr(protocol, function, mutant(function, text,
                                                   replacement))
    with pytest.raises(AssertionError):
        CHECKS[check]()
