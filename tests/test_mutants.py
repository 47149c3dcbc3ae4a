"""Mutation gate: each mutant must fail a named check.

A mutant is one textual replacement in one function.  The test takes the
function's source from `inspect.getsource`, makes the replacement, compiles
the result into the namespace of the function's module and patches it in.
The `protocol` mutants are patched into `protocol`, so every caller in
`protocol` and the CLI reaches them; the mutants of `statics`, `hilbert`,
`dynamics`, `fock` and the trace formatter of `cli`, and those of the
canonical argv reader of `cli` and the DSL of `network`, are patched into
every module that holds the name, the test modules whose checks call it
included.  The named check must then fail
with an assertion.  The checks are deterministic: the `_draw` boundary check,
the leak oracle on fixed nets, oracles and fixed tests on fixed examples, and
the digests that the run and trace corpora already hold.  No hypothesis draw
runs inside the gate: the reader is held to argparse on fixed argv.
"""
import inspect
import sys
import tempfile
import types
from pathlib import Path

import pytest

import test_cli
import test_dynamics
import test_fock
import test_network
import test_permutations
import test_protocol
import test_statics
from statnet import cli, dynamics, fock, hilbert, network, protocol, statics
from statnet.network import builtin_fig1, parse_network
from test_protocol import (STUCK, check_draw_at_boundaries,
                           check_leak_preparation,
                           check_masks_against_string_oracle,
                           check_support_against_oracles, pinned_drive_net)
from test_run_corpus import CORPUS, with_files, write_nets
from test_statics import BIG_TABLE_NETS
from test_trace_corpus import digests, load_corpus

RUN_CORPUS = load_corpus(CORPUS)
TRACE_CORPUS = load_corpus()


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


def check_support_oracles():
    """`support` against the mask and the string oracle, with and without
    output pins, on fig1 and the nets of 512-row tables."""
    for net in [builtin_fig1(),
                *(parse_network(dsl + "\n") for dsl in BIG_TABLE_NETS.values())]:
        for include_output_pins in (False, True):
            check_support_against_oracles(net, include_output_pins)


def trace_check(argv):
    """`argv` prints the bytes the trace corpus holds for it."""
    entry = TRACE_CORPUS[" ".join(argv)]

    def check():
        assert digests(argv) == {key: entry[key]
                                 for key in ("stdout", "stderr", "exit")}
    return check


def check_leak_model_names():
    """Each entry point refuses a misspelt leak model."""
    test_protocol.test_prepare_rejects_unknown_leak_model()
    test_dynamics.test_evolve_rejects_unknown_leak_model()
    test_dynamics.test_final_amps_rejects_unknown_leak_model()


def check_reader_against_argparse():
    """The canonical reader on argv that argparse refuses or reads with a
    switch's default: each namespace it returns is argparse's."""
    agrees = test_cli.test_canonical_reader_agrees_with_argparse.hypothesis \
        .inner_test
    for argv in (["run", "--network", "--dump"], ["run", "--leak", "bogus"],
                 ["simulate-triplet", "--drive", "p4"], ["check"],
                 ["simulate-link"]):
        agrees(argv)


def check_argparse_spellings():
    """The reader leaves each spelling that only argparse reads, a repeated
    flag among them, to argparse, and reads its canonical twin."""
    for spelling, canonical in test_cli.ARGPARSE_SPELLINGS:
        assert cli._read_canonical(spelling) is None
        assert cli._read_canonical(canonical) is not None


def check_walk_branches():
    """`evolve` against numpy's steps on one case per branch of the sector
    walk."""
    equal = test_dynamics.test_evolve_rows_equal_numpy_reference_steps \
        .hypothesis.inner_test
    for case in test_dynamics.WALK_BRANCH_CASES:
        equal(case)


def parse_error_check(text):
    """`parse_network(text)` raises the message that `PARSE_ERRORS` pins."""
    return lambda: test_network.test_parse_error_message(text)


CHECKS = {
    "draw boundaries": check_draw_at_boundaries,
    "leak oracle": check_leak_oracle,
    "run fig1": corpus_check("fig1"),
    "run fig1-unsat": corpus_check("fig1-unsat"),
    "run stuck leak": corpus_check("stuck", "uniform-excited"),
    "run wide8": corpus_check("wide8"),
    "support oracles": check_support_oracles,
    "violations past 255":
        test_statics.test_violation_count_of_gates_and_pins_past_255,
    "join refused before built":
        test_statics.test_support_refuses_join_past_limit_before_building_it,
    "62-node chain":
        test_statics.test_support_holds_as_many_nodes_as_codes_hold,
    "join order": test_statics.check_join_order,
    "fig1 masks oracle": lambda: check_masks_against_string_oracle(
        builtin_fig1()),
    "trace triplet": trace_check(["simulate-triplet", "--schedule",
                                  "linear-ramp", "--theta", "0.3",
                                  "--dt", "0.01"]),
    "second quantization": test_fock.test_second_quantized_matches_diagonal,
    "antisymmetrizer trace":
        test_fock.test_antisymmetrizer_trace_two_particles,
    "3-cycle direction":
        test_permutations.test_three_cycle_moves_slot_perm_i_into_slot_i,
    "leak model names": check_leak_model_names,
    "reader vs argparse": check_reader_against_argparse,
    "argparse spellings": check_argparse_spellings,
    "multi-line gate error line": parse_error_check(
        "nodes a b\ngate g in(a) out(b) {\n 0->1 ;\n 0->0 }\n"),
    "nodes declared twice": parse_error_check("nodes a\nnodes b\n"),
    "second pin's line": parse_error_check("nodes a\nfix a=0\nfix a=1\n"),
    "pin kind inference": test_network.test_pin_kind_inference,
    "float link final state":
        test_dynamics.test_float_link_final_state_has_the_recorded_bits,
    "float refill":
        test_dynamics.test_walk_refills_an_empty_one_state_sector_with_floats,
    "link walk bits": test_dynamics.test_link_walk_has_the_recorded_bits,
    "walk branches": check_walk_branches,
    "formatter edges": test_cli.test_format_17g_at_its_edges,
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


# (check, module, function, source text, replacement)
LAYER_MUTANTS = [
    ("support oracles", statics, "support", "    rows = np.sort(rows)\n", ""),
    ("support oracles", statics, "_join", "set(table_keys.tolist())",
     "list(set(table_keys.tolist()))[:8]"),
    ("violations past 255", statics, "_penalty", "len(gates) + len(pins)",
     "len(gates) - len(pins)"),
    ("join refused before built", statics, "_join",
     "agrees.size * matches.size", "agrees.size / matches.size"),
    ("62-node chain", statics, "support", "n > MAX_CODE_NODES",
     "n >= MAX_CODE_NODES"),
    # The join-order key: declaration order only, pinned nodes counted as
    # shared, ties to the last declared, and every node of a table counted.
    ("join order", statics, "support",
     "(tables[i][0] & joined & ~pinned).bit_count(), -i", "0, -i"),
    ("join order", statics, "support", "joined & ~pinned).bit_count()",
     "joined).bit_count()"),
    ("join order", statics, "support", ".bit_count(), -i)", ".bit_count(), i)"),
    ("join order", statics, "support", "(tables[i][0] & joined & ~pinned)",
     "(tables[i][0] & ~pinned)"),
    ("fig1 masks oracle", statics, "_allowed",
     "Network(net.nodes, gates, pins)", "Network(net.nodes, gates)"),
    ("trace triplet", hilbert, "sum_probs", "reduce(probs,",
     "reduce(probs[..., ::-1],"),
    ("leak model names", dynamics, "check_leak_model",
     "leak_model not in LEAK_MODELS", "False"),
    ("second quantization", fock, "creation_matrix",
     "(-1) ** below.bit_count()", "1"),
    ("3-cycle direction", fock, "permutation_matrix", "np.argsort(perm)",
     "perm"),
    ("antisymmetrizer trace", fock, "_projector", "_perm_sign(perm) ** k * ",
     ""),
    ("float link final state", dynamics, "final_amps",
     "component * (1 / length)", "component / length"),
    # The sector walk: the one-state recurrence's product with the
    # reciprocal, its refill kept a float and not dropped, the several-state
    # and leak refills' divisors, the several-state scale's order, and the
    # pairwise sum of long sectors.
    ("link walk bits", dynamics, "_walk_sector", "z * root * (1 / length)",
     "z * root / length"),
    ("float refill", dynamics, "_walk_sector", "else root",
     "else complex(root)"),
    ("link walk bits", dynamics, "_walk_sector", "else root", "else z"),
    ("walk branches", dynamics, "_walk_sector",
     "math.sqrt(target / live.size)", "math.sqrt(target)"),
    ("walk branches", dynamics, "_walk_sector", "mass / refill.size",
     "mass"),
    ("walk branches", dynamics, "_walk_sector", "z * root * inverse",
     "z * inverse * root"),
    ("walk branches", dynamics, "_walk_sector",
     "pairwise = idx.size >= _PAIRWISE_FROM", "pairwise = False"),
    # The trace CSV's array formatter: the exponent re-check skipped, fixed
    # notation ending at e = 15, trailing zeros kept, the non-finite entries
    # left to the arrays, and a product that rounds to 10^17 kept at e.
    ("formatter edges", cli, "_format_17g", "    if moved.size:\n",
     "    if False:\n"),
    ("formatter edges", cli, "_format_17g", "(e < 17)", "(e < 16)"),
    ("formatter edges", cli, "_format_17g", "(digits[1:18] != 0)",
     "(digits[1:18] >= 0)"),
    ("formatter edges", cli, "_format_17g", "np.flatnonzero(~decided)",
     "np.flatnonzero(~decided & np.isfinite(values))"),
    ("formatter edges", cli, "_format_17g", "    e += carry\n", ""),
]


# (check, module, function, source text, replacement): the canonical argv
# reader of `cli` and the DSL of `network`.
FRONT_MUTANTS = [
    ("reader vs argparse", cli, "_read_canonical", 'value.startswith("-")',
     "False"),
    ("reader vs argparse", cli, "_read_canonical",
     '"choices" in spec and value not in spec["choices"]', "False"),
    ("argparse spellings", cli, "_read_canonical",
     "        unread.remove(flag)\n", ""),
    ("reader vs argparse", cli, "_read_canonical",
     "False if switch else None", "None"),
    ("multi-line gate error line", network, "parse_network",
     "            lineno = pending[0]\n", ""),
    ("nodes declared twice", network, "parse_network",
     "nodes is not None", "False"),
    ("second pin's line", network, "parse_network", "lines[index]",
     "lines[0]"),
    ("pin kind inference", network, "parse_network",
     '"output" if node in outputs else "input"',
     '"input" if node in outputs else "output"'),
    ("run fig1", network, "render", "{g.in_nodes[0]} -> {g.out_nodes[0]}",
     "{g.in_nodes[0]} ->{g.out_nodes[0]}"),
]


def mutant(function: str, text: str, replacement: str, module=protocol):
    """`<module>.<function>` with `text` replaced, once, by `replacement`."""
    source = inspect.getsource(getattr(module, function))
    assert source.count(text) == 1, f"{text!r} is not once in {function}"
    scope = {}
    exec(compile(source.replace(text, replacement), module.__file__, "exec"),
         vars(module), scope)
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


@pytest.mark.parametrize("check, module, function, text, replacement",
                         LAYER_MUTANTS,
                         ids=[f"{m[1].__name__}.{m[2]}: "
                              f"{m[4] or 'no ' + m[3].strip()}"
                              for m in LAYER_MUTANTS])
def test_layer_mutant_fails_its_check(monkeypatch, check, module, function,
                                      text, replacement):
    original = getattr(module, function)
    replaced = mutant(function, text, replacement, module)
    for holder in list(sys.modules.values()):
        if isinstance(holder, types.ModuleType) \
                and vars(holder).get(function) is original:
            monkeypatch.setattr(holder, function, replaced)
    # A check that calls a test's `pytest.raises` fails with `Failed`.
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        CHECKS[check]()


@pytest.mark.parametrize("check, module, function, text, replacement",
                         FRONT_MUTANTS,
                         ids=[f"{m[1].__name__}.{m[2]}: {m[3].strip()!r} to "
                              f"{m[4]!r}" for m in FRONT_MUTANTS])
def test_front_mutant_fails_its_check(monkeypatch, check, module, function,
                                      text, replacement):
    test_layer_mutant_fails_its_check(monkeypatch, check, module, function,
                                      text, replacement)
