"""Fermionic mode algebra, (anti)symmetrizers, and the qubit embedding."""
import math

import numpy as np
import pytest

from statnet.fock import (
    HRS_ORDER,
    ModeBasis,
    antisymmetrizer,
    creation_matrix,
    fock_basis_two,
    hrs_fock,
    qubit_first_quantized,
    second_quantized_hrs,
    slater_vector,
    symmetrizer_two,
    verify_second_quantization,
)

B2 = ModeBasis(("r", "s"))
VACUUM = np.eye(16)[0]


def adag(chi, site):
    return creation_matrix(B2, chi, site)


def test_mode_order_site_major():
    order = [(0, "r"), (1, "r"), (0, "s"), (1, "s")]
    assert [B2.mode_index(chi, site) for chi, site in order] == [0, 1, 2, 3]


def test_symmetrizer_kills_singlet():
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    assert np.allclose(symmetrizer_two().apply(singlet), 0)


def test_symmetrizer_fixes_aligned_state():
    v = np.array([1.0, 0, 0, 0])
    assert np.array_equal(symmetrizer_two().apply(v), v)


def test_symmetrizer_trace_three():
    assert symmetrizer_two().trace() == pytest.approx(3.0)


def test_symmetrizer_idempotent():
    s = symmetrizer_two().matrix
    assert np.allclose(s @ s, s, atol=1e-12)


def test_antisymmetrizer_trace_two_particles():
    assert antisymmetrizer(2).trace() == pytest.approx(6.0)


def test_antisymmetrizer_trace_three_particles():
    assert antisymmetrizer(3).trace() == pytest.approx(20.0)


def test_antisymmetrizer_idempotent():
    for n in (2, 3):
        a = antisymmetrizer(n).matrix
        assert np.allclose(a @ a, a, atol=1e-12)


def test_antisymmetrizer_unsupported_count():
    with pytest.raises(ValueError):
        antisymmetrizer(4)


def test_antisymmetrizer_fixes_embedded_qubit_states():
    # One particle per site is already antisymmetric in the mode labels,
    # including the equal-spin configurations.
    a = antisymmetrizer(2)
    for assignment in ("00", "01", "10", "11"):
        v = qubit_first_quantized(B2, assignment)
        assert np.allclose(a.apply(v), v, atol=1e-12)


def test_creation_anticommute():
    v1 = adag(1, "r") @ adag(0, "r") @ VACUUM
    v2 = adag(0, "r") @ adag(1, "r") @ VACUUM
    assert np.array_equal(v1, -v2)


def test_double_creation_vanishes():
    v = adag(0, "r") @ adag(0, "r") @ VACUUM
    assert not v.any()


def test_creation_canonical_sign():
    # a†(0,r) a†(0,s) |0>: the rightmost operator acts first.
    v = adag(0, "r") @ adag(0, "s") @ VACUUM
    config = (1 << B2.mode_index(0, "r")) | (1 << B2.mode_index(0, "s"))
    assert v[config] == 1.0  # canonical-order creations carry sign +1


def test_creation_matrix_matches_operator():
    # Jordan-Wigner: a†_m takes bit m from 0 to 1 and carries a parity
    # string Z on every lower mode.  Mode m is bit m of the configuration, so it is the
    # m-th factor from the right of the Kronecker product.
    raise_bit, parity = np.array([[0, 0], [1, 0]]), np.diag([1, -1])
    for m in range(4):
        factors = [np.eye(2)] * (3 - m) + [raise_bit] + [parity] * m
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
        assert np.array_equal(creation_matrix(B2, m % 2, "rs"[m // 2]),
                              expected)


def test_fock_basis_orthonormal():
    states = fock_basis_two()
    for x in HRS_ORDER:
        for y in HRS_ORDER:
            expected = 1.0 if x == y else 0.0
            assert np.vdot(states[x].amps, states[y].amps) == pytest.approx(expected)


def test_fock_basis_c_occupation():
    c = fock_basis_two()["c"]
    config = (1 << B2.mode_index(0, "r")) | (1 << B2.mode_index(0, "s"))
    assert c.amps[config] == 1.0


def test_fock_basis_e_from_creations():
    built = (adag(0, "r") @ adag(1, "s") @ VACUUM
             + adag(1, "r") @ adag(0, "s") @ VACUUM)
    built = built / math.sqrt(2)
    assert np.allclose(built, fock_basis_two()["e"].amps)


def test_hrs_diagonal():
    assert np.array_equal(hrs_fock(), [1, 1, 1, 1, 0, 0])


def test_hrs_ground_space_is_e_and_f():
    diag = hrs_fock()
    assert [HRS_ORDER[i] for i in np.flatnonzero(diag == 0)] == ["e", "f"]


def test_second_quantized_matches_diagonal():
    assert verify_second_quantization()


def test_second_quantized_wrong_sign_detected():
    # Deliberate fault injection: flipping the overall sign must be caught.
    assert not verify_second_quantization(sign=+1.0)


def test_second_quantized_c_expectation():
    h = second_quantized_hrs()
    c = fock_basis_two()["c"].amps
    assert np.vdot(c, h @ c) == pytest.approx(hrs_fock()[HRS_ORDER.index("c")])


def test_second_quantized_hermitian():
    h = second_quantized_hrs()
    assert np.allclose(h, h.T.conj())


def test_slater_antisymmetric_and_normalized():
    v = slater_vector(B2, (0, 3))
    assert np.linalg.norm(v) == pytest.approx(1.0)
    # Swapping the two particle slots negates the vector.
    swapped = v.reshape(4, 4).T.reshape(-1)
    assert np.allclose(swapped, -v)


def test_first_quantized_equals_slater():
    # Spin 0 on r and spin 1 on s occupy modes 0 and 3.
    assert np.allclose(qubit_first_quantized(B2, "01"), slater_vector(B2, (0, 3)))
