"""Bell bases, coefficient expansion, spin products and classification."""
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from bellsim.bellcore import (
    BellCoefficients,
    BellLabel,
    bell_state,
    classify,
    commutator,
    from_bell,
    outcome_pair,
    spin_product,
    to_bell,
)
from bellsim.qstate import PAULIS, StateVector, computational_state, haar_random_state, inner, make_state, states_equal
from state_strategies import pivot_edge_examples, states

SQ2 = 1.0 / np.sqrt(2.0)
AXES = ("x", "y", "z")
LABELS = list(BellLabel)


def test_bell_state_vectors():
    np.testing.assert_allclose(bell_state(BellLabel.PHI_PLUS).amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)
    np.testing.assert_allclose(bell_state(BellLabel.PSI_MINUS).amplitudes, [0, SQ2, -SQ2, 0], atol=1e-15)


def test_bell_states_are_built_once(monkeypatch):
    for label in LABELS:
        assert bell_state(label) is bell_state(label)
        assert not bell_state(label).amplitudes.flags.writeable
    s = haar_random_state(2, np.random.default_rng(3))
    expected = to_bell(s)

    def rebuilt(self):
        raise AssertionError("Bell state rebuilt per call")

    monkeypatch.setattr(StateVector, "__post_init__", rebuilt)
    for label in LABELS:
        bell_state(label)
    assert to_bell(s) == expected


def test_bell_basis_orthonormal():
    gram = np.array(
        [[inner(bell_state(a), bell_state(b)) for b in LABELS] for a in LABELS]
    )
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_to_bell_plus_plus():
    c = to_bell(computational_state("00"))
    np.testing.assert_allclose(c.as_array(), [SQ2, SQ2, 0, 0], atol=1e-15)


def test_to_bell_basis_element():
    c = to_bell(bell_state(BellLabel.PHI_MINUS))
    np.testing.assert_allclose(c.as_array(), [0, 1, 0, 0], atol=1e-15)


def test_to_bell_leaves_nothing_behind():
    """500 expansions hold no memory after they return: a *-argument tuple built from a generator would leave one
    4-tuple per call on CPython's free list (36 KB here), which verify's sweep then carried to its heap peak."""
    states = [haar_random_state(2, np.random.default_rng(seed)) for seed in range(5)]
    for s in states:
        to_bell(s)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            for s in states:
                to_bell(s)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 2_000


def test_to_bell_requires_two_qubits():
    with pytest.raises(ValueError, match="2-qubit"):
        to_bell(computational_state("0"))


def test_from_bell_basis_element():
    s = from_bell(BellCoefficients(1, 0, 0, 0))
    assert states_equal(s, bell_state(BellLabel.PHI_PLUS))


def test_from_bell_psi_sum_is_plus_minus():
    # (|Psi+> + |Psi->)/sqrt(2) = |+->
    s = from_bell(BellCoefficients(0, 0, SQ2, SQ2))
    np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-15)


def test_from_bell_uniform_coefficients():
    s = from_bell(BellCoefficients(0.5, 0.5, 0.5, 0.5))
    assert inner(computational_state("00"), s) == pytest.approx(SQ2, abs=1e-12)


def test_bell_coefficients_reject_non_normalized():
    with pytest.raises(ValueError, match="non-normalized"):
        BellCoefficients(1, 1, 0, 0)
    with pytest.raises(ValueError, match="non-normalized"):
        BellCoefficients(float("nan"), 0, 0, 0)


def test_round_trip_random_states():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        s = haar_random_state(2, rng)
        c = to_bell(s)
        assert sum(abs(x) ** 2 for x in c.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert states_equal(from_bell(c), s)


@pytest.mark.parametrize("label,eig_zz,eig_xx", [
    (BellLabel.PHI_PLUS, +1, +1),
    (BellLabel.PHI_MINUS, +1, -1),
    (BellLabel.PSI_PLUS, -1, +1),
    (BellLabel.PSI_MINUS, -1, -1),
])
def test_bell_states_are_common_eigenvectors(label, eig_zz, eig_xx):
    vec = bell_state(label).amplitudes
    for sp, eig in ((spin_product("z", "z"), eig_zz), (spin_product("x", "x"), eig_xx)):
        residual = sp.matrix @ vec - eig * vec
        assert np.max(np.abs(residual)) < 1e-12


def test_spin_product_matrix_is_kron():
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        np.testing.assert_array_equal(sp.matrix, np.kron(PAULIS[i], PAULIS[j]))


def test_spin_product_eigenvalues_doubly_degenerate():
    # dense eigendecomposition oracle: every S_ij has spectrum {-1,-1,+1,+1}
    for i, j in itertools.product(AXES, repeat=2):
        eig = np.linalg.eigvalsh(spin_product(i, j).matrix)
        np.testing.assert_allclose(np.sort(eig), [-1, -1, 1, 1], atol=1e-12)


def test_spectral_projectors_complete_and_orthogonal():
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        p, q = sp.projector_plus, sp.projector_minus
        np.testing.assert_allclose(p + q, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(p @ q, np.zeros((4, 4)), atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-15)
        np.testing.assert_allclose(q @ q, q, atol=1e-15)
        # projectors reconstruct the observable
        np.testing.assert_allclose(p - q, sp.matrix, atol=1e-15)


def test_same_axis_spin_products_commute():
    for i, j in itertools.product(AXES, repeat=2):
        c = commutator(spin_product(i, i).matrix, spin_product(j, j).matrix)
        assert np.max(np.abs(c)) < 1e-15


def test_commutators_match_matrix_product_oracle():
    for i, j in itertools.product(AXES, repeat=2):
        a = np.kron(PAULIS[i], PAULIS[i])
        b = np.kron(PAULIS[j], PAULIS[j])
        oracle = a @ b - b @ a
        got = commutator(spin_product(i, i).matrix, spin_product(j, j).matrix)
        np.testing.assert_allclose(got, oracle, atol=1e-15)


def test_commutator_mixed_axes_nonzero():
    # [S_zz, S_xz] = [sigma_z, sigma_x] (x) I = 2i sigma_y (x) I
    got = commutator(spin_product("z", "z").matrix, spin_product("x", "z").matrix)
    expected = 2j * np.kron(PAULIS["y"], np.eye(2))
    np.testing.assert_allclose(got, expected, atol=1e-15)
    assert np.linalg.norm(got) > 1


def test_commutator_with_self_is_zero():
    rng = np.random.default_rng(47)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = z + z.conj().T
    np.testing.assert_allclose(commutator(herm, herm), np.zeros((4, 4)), atol=1e-12)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator(np.eye(2), np.eye(4))


def test_classify_mapping():
    assert classify(+1, +1) is BellLabel.PHI_PLUS
    assert classify(+1, -1) is BellLabel.PHI_MINUS
    assert classify(-1, +1) is BellLabel.PSI_PLUS
    assert classify(-1, -1) is BellLabel.PSI_MINUS


def test_classify_rejects_bad_outcomes():
    with pytest.raises(ValueError):
        classify(0, 1)
    with pytest.raises(ValueError):
        classify(+1, 2)
    with pytest.raises(ValueError, match="unknown axis pair"):
        spin_product("x", "w")
    with pytest.raises(ValueError, match="outcome must be"):
        spin_product("z", "z").projector(0)


def test_outcome_pair_inverts_classify():
    for m, n in itertools.product((+1, -1), repeat=2):
        assert outcome_pair(classify(m, n)) == (m, n)


def test_label_index_order():
    assert [label.index for label in LABELS] == [0, 1, 2, 3]
    assert BellLabel.PSI_MINUS.value == "PsiMinus"


def _to_bell_reference(s):
    # to_bell's body before it called np.vdot on the Bell states directly
    return BellCoefficients(*(inner(bell_state(label), s) for label in BellLabel))


@given(s=states(2))
@settings(max_examples=200, deadline=None)
@example(s=make_state([-0.6, 0.8j, 0, 0]))
def test_to_bell_matches_reference_bit_for_bit(s):
    assert to_bell(s).as_array().tobytes() == _to_bell_reference(s).as_array().tobytes()


def test_to_bell_pivot_edges_match_reference():
    for s in pivot_edge_examples(2):
        assert to_bell(s).as_array().tobytes() == _to_bell_reference(s).as_array().tobytes()
