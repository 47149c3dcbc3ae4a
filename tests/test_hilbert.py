"""State-vector layer: indexing, a node's reduced diagonal and drive sectors."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statnet.fock import FockVector, ModeBasis
from statnet.hilbert import (
    StateVector,
    basis_index,
    basis_state,
    index_assignment,
    node_bit,
    probabilities,
    reduced_diag,
)
from statnet.statics import PenaltyHamiltonian

EIGHT = tuple("abcdefgh")
TWO = ("r", "s")


@pytest.mark.parametrize("stored, dtype", [
    (lambda a: StateVector(TWO, a).amps, complex),
    (lambda a: StateVector(TWO, a).amps, float),
    (lambda a: FockVector(ModeBasis(("r",)), a).amps, complex),
    (lambda a: PenaltyHamiltonian(4, a).energies, float),
], ids=["state-complex", "state-float", "fock", "penalty"])
def test_construction_leaves_caller_array_writeable(stored, dtype):
    caller = np.array([0.5, 0.5, 0.5, 0.5], dtype=dtype)
    kept = stored(caller)
    assert caller.flags.writeable
    caller[0] = 0.0
    assert kept[0] == 0.5 and not kept.flags.writeable


def test_basis_index_all_zeros():
    assert basis_index(EIGHT, "00000000") == 0


def test_basis_index_solution_string():
    assert basis_index(EIGHT, "11101011") == 235


def test_basis_index_length_mismatch():
    with pytest.raises(ValueError):
        basis_index(EIGHT, "1")


def test_basis_index_non_binary():
    with pytest.raises(ValueError):
        basis_index(TWO, "0x")


def test_index_assignment_roundtrip():
    for k in range(256):
        assert basis_index(EIGHT, index_assignment(EIGHT, k)) == k


def test_basis_state_01():
    assert np.array_equal(basis_state(TWO, "01").amps, [0, 1, 0, 0])


def test_basis_state_10():
    assert np.array_equal(basis_state(TWO, "10").amps, [0, 0, 1, 0])


def test_basis_state_solution():
    v = basis_state(EIGHT, "11101011")
    assert v.amps[235] == 1.0 and v.norm() == 1.0


def test_reduced_diag_symmetric():
    v = StateVector(TWO, np.array([0, 1.0, 1.0, 0]) / math.sqrt(2))
    d = reduced_diag(v, "r")
    assert (d.p0, d.p1) == pytest.approx((0.5, 0.5))


def test_reduced_diag_theta_pi_over_6():
    theta = math.pi / 6
    v = StateVector(TWO, np.array([0, math.cos(theta), math.sin(theta), 0]))
    d = reduced_diag(v, "r")
    assert (d.p0, d.p1) == pytest.approx((0.75, 0.25))


def test_reduced_diag_eigenstate():
    d = reduced_diag(basis_state(EIGHT, "11101011"), "h")
    assert (d.p0, d.p1) == (0.0, 1.0)


def test_sector_split_bell_like():
    v = StateVector(TWO, np.array([0, 1.0, 1.0, 0]) / math.sqrt(2))
    sector0, sector1 = v.sectors("r")
    assert np.allclose(v.amps[sector0], [0, 1 / math.sqrt(2)])
    assert np.allclose(v.amps[sector1], [1 / math.sqrt(2), 0])


def test_sector_split_basis_state_one_side_zero():
    v = basis_state(TWO, "10")
    sector0, sector1 = v.sectors("r")
    assert not v.amps[sector0].any() and np.linalg.norm(v.amps[sector1]) == 1


def test_node_bit_values_msb_convention():
    # First node is the most significant bit of the basis index.
    v = basis_state(TWO, "00")
    assert np.array_equal(v.sectors("r"), [[0, 1], [2, 3]])
    assert np.array_equal(v.sectors("s"), [[0, 2], [1, 3]])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_node_bit_agrees_with_basis_index(n):
    nodes = tuple(f"x{i}" for i in range(n))
    for pos, node in enumerate(nodes):
        one_hot = "".join("1" if i == pos else "0" for i in range(n))
        assert node_bit(nodes, node) == basis_index(nodes, one_hot)


def test_node_bit_rejects_unknown_node():
    with pytest.raises(ValueError, match="unknown node 'q'"):
        node_bit(TWO, "q")
    with pytest.raises(ValueError, match="unknown node 'q'"):
        basis_state(TWO, "00").sectors("q")


def test_statevector_rejects_wrong_shape():
    with pytest.raises(ValueError):
        StateVector(TWO, np.zeros(3))


def test_statevector_amps_read_only():
    v = basis_state(TWO, "01")
    with pytest.raises(ValueError):
        v.amps[0] = 1.0


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_sector_split_reassembles(n_pos):
    # The sectors partition the basis by the node's bit, in ascending order.
    n, pos = n_pos
    v = basis_state(tuple(f"x{i}" for i in range(n)), "0" * n)
    for bit, sector in enumerate(v.sectors(f"x{pos}")):
        assert sector.tolist() == [
            k for k in range(2 ** n)
            if index_assignment(("x",) * n, k)[pos] == str(bit)]


def test_statevector_codes_default_to_every_basis_state():
    v = basis_state(TWO, "01")
    assert v.codes.tolist() == [0, 1, 2, 3] and v.dim == 4
    assert not v.codes.flags.writeable


def test_statevector_on_stored_codes():
    # Three stored states of eight: dim stays 2^n, sectors are positions.
    v = StateVector(("a", "b", "c"), [0.6, 0.0, 0.8], codes=[1, 4, 6])
    assert v.dim == 8 and v.amps.size == 3
    assert [s.tolist() for s in v.sectors("a")] == [[0], [1, 2]]
    assert [s.tolist() for s in v.sectors("c")] == [[1, 2], [0]]
    assert (reduced_diag(v, "a").p0, reduced_diag(v, "a").p1) == \
        pytest.approx((0.36, 0.64))


def test_statevector_copies_caller_codes():
    caller = np.array([0, 3])
    v = StateVector(TWO, [1.0, 0.0], codes=caller)
    caller[0] = 1
    assert v.codes.tolist() == [0, 3] and not v.codes.flags.writeable


def test_statevector_never_shares_codes():
    v = StateVector(TWO, [1.0, 0.0], codes=[0, 3])
    w = StateVector(TWO, [0.0, 1.0], codes=v.codes)
    assert w.codes is not v.codes and np.array_equal(w.codes, v.codes)
    assert not w.codes.flags.writeable
    assert basis_state(TWO, "01").codes is not basis_state(TWO, "10").codes


@pytest.mark.parametrize("codes", [[1, 0], [1, 1], [0, 4], [-1, 2], [0, 1, 2]],
                         ids=["descending", "repeated", "past-2^n", "negative",
                              "too-many"])
def test_statevector_rejects_bad_codes(codes):
    with pytest.raises(ValueError):
        StateVector(TWO, [1.0, 0.0], codes=codes)


# Real and imaginary parts over many orders of magnitude, squares finite.
parts = st.sampled_from((0.0, 1.0, -0.5)) | st.floats(-1e150, 1e150)


@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.builds(complex, parts, parts), min_size=width,
             max_size=width), min_size=1, max_size=4)))
@settings(max_examples=200, deadline=None)
def test_probabilities_are_re_re_plus_im_im(rows):
    matrix = np.array(rows, dtype=complex)
    expected = [[z.real * z.real + z.imag * z.imag for z in row]
                for row in rows]
    assert probabilities(matrix).tolist() == expected
    assert probabilities(matrix[0]).tolist() == expected[0]
