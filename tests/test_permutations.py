"""The direction of P_sigma and the sign of each Slater term, on three slots.

The only 2-particle P_sigma is an involution, and a sign cannot tell sigma
from its inverse, so only a 3-cycle pins which way P_sigma moves the slots.
"""
import math

import numpy as np

from statnet.fock import ModeBasis, permutation_matrix, slater_vector


def test_three_cycle_moves_slot_perm_i_into_slot_i():
    # Slot i takes slot perm[i]: |100> (index 4) goes to |001> (index 1),
    # and |110> (6) to |101> (5).
    p = permutation_matrix(2, 3, (1, 2, 0))
    assert np.array_equal(p @ np.eye(8)[4], np.eye(8)[1])
    assert np.array_equal(p @ np.eye(8)[6], np.eye(8)[5])


def test_three_mode_slater_signs():
    # Modes 0, 2 and 4 of three sites; each term is indexed by its slots.
    v = slater_vector(ModeBasis(("r", "s", "t")), (0, 2, 4)).reshape(6, 6, 6)
    norm = 1 / math.sqrt(6)
    for cyclic in ((0, 2, 4), (2, 4, 0), (4, 0, 2)):
        assert v[cyclic] == norm
    for transposed in ((2, 0, 4), (0, 4, 2), (4, 2, 0)):
        assert v[transposed] == -norm
    assert np.count_nonzero(v) == 6


def test_slater_vector_of_a_repeated_mode_vanishes():
    # Pauli exclusion: two particles in mode 1 give no state.
    assert not slater_vector(ModeBasis(("r", "s")), (1, 1, 3)).any()
