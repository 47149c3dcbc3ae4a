"""Golden output: the sha256 of stdout and the exit code of fixed CLI invocations.

Every command is deterministic for a given seed, so its stdout bytes are a
fixed function of its arguments.  A change that alters any of these digests
changes what `statnet` prints; the digests are only re-recorded when that
change is intended and stated.
"""
import hashlib

import pytest

from statnet.cli import main

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    (("check", "--network", "fig1"),
     0, "8ab5ed119364810606dbc25fd9ddff3e52f5eea0ec305e056fcfcdc2bfc2030c"),
    (("check", "--network", "fig1-unsat"),
     0, "c5dc5e142c5e4bf834f2706ee9d7d56089b71806e3840946fc7c934f0049892a"),
    (("check", "--network", "fig1", "--dump"),
     0, "b41e12166554c99d65f437c67aaa23e026c501dfe408d3cbc3097d666c1ae425"),
    (("check", "--network", "fig1-unsat", "--dump"),
     0, "3e6039984aabde13b3dc5de1e98fe61d79ed65b808f00ae858cd91e4e3767b3c"),
    (("solve-brute", "--network", "fig1"),
     0, "d6a657d74f36229c8ac418a14bfc73d99563e632b967beb941529f31f34b901f"),
    (("solve-brute", "--network", "fig1-unsat"),
     1, "5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f"),
    (("run", "--shots", "100", "--network", "fig1", "--schedule", "linear-ramp"),
     0, "2d34db058f33d943ec859407b7ef18a564141be5da13f404b07b7e0d3743e156"),
    (("run", "--shots", "100", "--network", "fig1", "--schedule", "cosine-ramp"),
     0, "3d0f79649a2a14338a2022e0d5e1e1be69d21dccc4472dbc15cd6b0f28e7e659"),
    (("run", "--shots", "100", "--network", "fig1", "--schedule", "exponential-relax"),
     0, "0f19dc2a5fe9e342e16f4caabf0ffc28583cdc62cea24efd81d00f11dc427162"),
    (("run", "--shots", "100", "--network", "fig1", "--schedule", "linear-ramp", "--leak", "uniform-excited"),
     0, "2d34db058f33d943ec859407b7ef18a564141be5da13f404b07b7e0d3743e156"),
    (("run", "--shots", "100", "--network", "fig1", "--schedule", "cosine-ramp", "--leak", "uniform-excited"),
     0, "3d0f79649a2a14338a2022e0d5e1e1be69d21dccc4472dbc15cd6b0f28e7e659"),
    (("run", "--shots", "100", "--network", "fig1", "--schedule", "exponential-relax", "--leak", "uniform-excited"),
     0, "0f19dc2a5fe9e342e16f4caabf0ffc28583cdc62cea24efd81d00f11dc427162"),
    (("run", "--shots", "100", "--network", "fig1-unsat", "--schedule", "linear-ramp"),
     1, "4c83f71421a2848f7aaf9114aff67fe6660fcbd99a3ebdd4f74662a953b71009"),
    (("run", "--shots", "100", "--network", "fig1-unsat", "--schedule", "exponential-relax", "--leak", "uniform-excited"),
     1, "434233382c4116f6aef185fb87e7a03fda92b0de66236b4847ffe6e78211880a"),
    (("simulate-link", "--theta", "0.3"),
     0, "2fd0af3991542cd2f3866a7a942e4e0c337585abd3a270e611979294b7a155da"),
    (("simulate-link", "--theta", "0", "--schedule", "cosine-ramp"),
     0, "9d74888d0be407609daf31cff0acce0d872bfb9a6945c872ca5a5a4370452b0e"),
    (("simulate-link", "--theta", "0", "--schedule", "cosine-ramp", "--no-mask"),
     0, "906f103f4e21a537818c1711c4160cb26615608c968729f305e1b82b597dc4ff"),
    (("simulate-link", "--theta", "0", "--schedule", "cosine-ramp", "--no-mask", "--leak", "uniform-excited"),
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("simulate-triplet", "--theta", "0.3"),
     0, "8c12c7d69df15f0286a90674edf60277ec02026fc22ae657693f7edcbbdb5931"),
    (("simulate-triplet", "--theta", "0.785398163397448", "--phi-final", "1.5707963267948966", "--dt", "0.1"),
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # The benchmark-scale traces: 10^4 recorded rows each.
    (("simulate-link", "--theta", "0.3", "--dt", "1e-4"),
     0, "a203e402ac82bcfd7f6509565e222be27ecc4a52131e044d218b1c2cd2547b5e"),
    (("simulate-triplet", "--theta", "0.3", "--dt", "1e-4"),
     0, "04761020b1e42d2ba12fd377cebe2219aafffdae2c1b77fcc33d1255a20b973b"),
    (("simulate-triplet", "--theta", "0.2", "--schedule", "exponential-relax", "--dt", "1e-4"),
     0, "9ad420bb1d7ab6e1a7b46a7cf616996a5699f1114c793bb00f8fdc2c46814444"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_stdout(argv, code, digest, capsys):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A 12-node chain: three XOR blocks joined by links, every b pinned as an
# input and d2 pinned as the driven output.
CHAIN12 = """\
nodes a0 b0 c0 d0 a1 b1 c1 d1 a2 b2 c2 d2
gate g0 in(a0,b0) out(c0,d0) { 00->00 ; 01->01 ; 10->11 ; 11->10 }
link d0 -> a1
gate g1 in(a1,b1) out(c1,d1) { 00->00 ; 01->01 ; 10->11 ; 11->10 }
link d1 -> a2
gate g2 in(a2,b2) out(c2,d2) { 00->00 ; 01->01 ; 10->11 ; 11->10 }
fix b0=1 input
fix b1=1 input
fix b2=1 input
fix d2=1 output
drive d2
"""

# (extra argv after the network path, sha256 of stdout); both exit 0.
CHAIN12_GOLDEN = [
    ((), "50270a0f47af48ca8eaff87df4efa56164423f039dd60457f3c979f1bc2f44d2"),
    (("--dump",),
     "f1c76f808c3a9bc111f434894b6131577c9e8b811a515a9cd03bec39eda186aa"),
]


@pytest.mark.parametrize("extra,digest", CHAIN12_GOLDEN,
                         ids=["check", "check --dump"])
def test_golden_check_chain12(extra, digest, tmp_path, capsys):
    path = tmp_path / "chain12.net"
    path.write_text(CHAIN12)
    assert main(["check", "--network", str(path), *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CHAIN12_UNSAT = CHAIN12.replace("fix d2=1 output\n",
                                "fix c2=1 output\nfix d2=1 output\n")

# (network, argv after the network path, exit code, sha256 of stdout),
# recorded from the dense decision path, which stored all 2^n amplitudes:
# the support-only path must reproduce it byte for byte.
CHAIN12_DECISIONS = [
    (CHAIN12, ("solve-brute",),
     0, "2b0f7d0ee09a233954729dfc889ab07d061ef62e66944f32b9edd9c3e3a8594f"),
    (CHAIN12, ("run", "--shots", "100", "--leak", "none"),
     0, "acb071460787e93d7a83d0d5935fe0610cd7255603bad57e8150d173c9eaacf7"),
    (CHAIN12, ("run", "--shots", "100", "--leak", "uniform-excited"),
     0, "acb071460787e93d7a83d0d5935fe0610cd7255603bad57e8150d173c9eaacf7"),
    (CHAIN12_UNSAT, ("solve-brute",),
     1, "5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f"),
    (CHAIN12_UNSAT, ("run", "--shots", "100", "--leak", "none"),
     1, "40090dc3f0100e11f6435844dfdda8eedd43d675b3102c9596881e8c26c6c0f5"),
    (CHAIN12_UNSAT, ("run", "--shots", "100", "--leak", "uniform-excited"),
     1, "40090dc3f0100e11f6435844dfdda8eedd43d675b3102c9596881e8c26c6c0f5"),
]


@pytest.mark.parametrize(
    "text,argv,code,digest", CHAIN12_DECISIONS,
    ids=[("chain12-unsat " if text is CHAIN12_UNSAT else "chain12 ")
         + " ".join(argv) for text, argv, _, _ in CHAIN12_DECISIONS])
def test_golden_decisions_chain12(text, argv, code, digest, tmp_path, capsys):
    path = tmp_path / "chain12.net"
    path.write_text(text)
    assert main([argv[0], "--network", str(path), *argv[1:]]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
