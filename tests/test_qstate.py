"""State-vector core: construction, tensor products, gates, overlaps."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellsim.bellcore import BellCoefficients
from bellsim.qstate import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    apply_unitary,
    computational_state,
    fidelity,
    haar_random_state,
    make_state,
    phase_canonical,
    states_equal,
    tensor,
)

SQ2 = 1.0 / np.sqrt(2.0)


def test_make_state_basis():
    s = make_state([1, 0, 0, 0])
    assert s.n_qubits == 2
    assert not s.renormalized
    np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 0])


def test_make_state_renormalizes_and_reports():
    s = make_state([1, 0, 0, 1])
    assert s.renormalized
    np.testing.assert_allclose(s.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)


def test_make_state_null_vector():
    with pytest.raises(ValueError, match="null state"):
        make_state([0, 0, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_state_rejects_non_finite_norm(bad):
    with pytest.raises(ValueError, match="not finite"):
        make_state([bad, 0, 0, 0])


@pytest.mark.parametrize("scale", [1e200, 1e308, 1e-13, 5e-324])
def test_make_state_accepts_extreme_scale(scale):
    # the plain norm overflows or reads as null; the direction is still well defined
    s = make_state(np.array([1, 1j, 0, 0]) * scale)
    assert s.renormalized
    np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2 * 1j, 0, 0], atol=1e-15)


@given(
    parts=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8)
    .filter(lambda parts: max(map(abs, parts)) >= 1e-3),
    exponent=st.integers(min_value=-1074, max_value=1023),
)
@settings(max_examples=300, deadline=None)
@example(parts=[1e-3, 0, 0, 0, 0, 0, 0, 0], exponent=-1064)
@example(parts=[1, -1, 1, -1, 1, -1, 1, -1], exponent=1023)
def test_make_state_is_scale_free(parts, exponent):
    # a finite, non-zero 4-vector at any binary scale, from subnormal to huge
    raw = np.ldexp(np.array(parts, dtype=float), exponent).view(complex)
    assume((raw != 0).any())
    s = make_state(raw)
    # scaling back by the same power of two is exact, also for subnormals
    direction = np.ldexp(raw.view(float), -exponent).view(complex)
    np.testing.assert_allclose(s.amplitudes, direction / np.linalg.norm(direction), rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12
    BellCoefficients(*s.amplitudes)


def test_make_state_divides_by_norm_near_one():
    # a norm within ATOL of 1 is not flagged, but the amplitudes are still
    # the input over its norm, bit for bit
    raw = np.array([0.6, 0.8 * (1 + 2e-16), 0, 0], dtype=complex)
    s = make_state(raw)
    assert not s.renormalized
    np.testing.assert_array_equal(s.amplitudes, raw / np.linalg.norm(raw))


def test_make_state_bad_dimension():
    with pytest.raises(ValueError, match="bad dimension"):
        make_state([1, 0, 0])
    with pytest.raises(ValueError, match="bad dimension"):
        make_state([])


def test_statevector_rejects_non_normalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([bad, 0.0]))


def test_amplitudes_read_only():
    s = make_state([1, 0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_tensor_plus_minus():
    # |+> (x) |-> = |+-> , i.e. basis index 01
    s = tensor(computational_state("0"), computational_state("1"))
    np.testing.assert_array_equal(s.amplitudes, [0, 1, 0, 0])


def test_tensor_phi_plus_pair():
    # kron oracle: amplitude 1/2 exactly at indices 0000, 0011, 1100, 1111
    phi = make_state([1, 0, 0, 1])
    s = tensor(phi, phi)
    expected = np.kron(phi.amplitudes, phi.amplitudes)
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)
    hot = np.flatnonzero(np.abs(s.amplitudes) > 1e-12)
    np.testing.assert_array_equal(hot, [0b0000, 0b0011, 0b1100, 0b1111])
    np.testing.assert_allclose(s.amplitudes[hot], 0.5, atol=1e-15)


def test_tensor_scalar_identity():
    scalar = make_state([1])  # 0-qubit register
    s = haar_random_state(3, np.random.default_rng(5))
    np.testing.assert_array_equal(tensor(s, scalar).amplitudes, s.amplitudes)
    np.testing.assert_array_equal(tensor(scalar, s).amplitudes, s.amplitudes)


def test_tensor_associativity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = haar_random_state(1, rng)
        b = haar_random_state(2, rng)
        c = haar_random_state(1, rng)
        left = tensor(tensor(a, b), c).amplitudes
        right = tensor(a, tensor(b, c)).amplitudes
        np.testing.assert_allclose(left, right, atol=1e-15)


def test_apply_hadamard():
    s = apply_unitary(computational_state("0"), HADAMARD, [0])
    np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2], atol=1e-15)


def test_apply_cnot_truth_table():
    # CNOT(control 0, target 1): |-+> -> |-->
    s = apply_unitary(computational_state("10"), CNOT, [0, 1])
    np.testing.assert_array_equal(s.amplitudes, [0, 0, 0, 1])


def test_cnot_involution_against_matrix_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = haar_random_state(2, rng)
        twice = apply_unitary(apply_unitary(s, CNOT, [0, 1]), CNOT, [0, 1])
        oracle = (CNOT @ CNOT) @ s.amplitudes
        np.testing.assert_allclose(twice.amplitudes, oracle, atol=1e-12)
        np.testing.assert_allclose(twice.amplitudes, s.amplitudes, atol=1e-12)


def test_apply_unitary_on_middle_qubit_matches_kron_oracle():
    rng = np.random.default_rng(29)
    u = _haar_unitary(2, rng)
    s = haar_random_state(3, rng)
    full = np.kron(np.eye(2), u)  # qubits 1,2 of 3
    got = apply_unitary(s, u, [1, 2])
    np.testing.assert_allclose(got.amplitudes, full @ s.amplitudes, atol=1e-12)
    # reversed wire order equals conjugation by SWAP
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    got_rev = apply_unitary(s, u, [2, 1])
    full_rev = np.kron(np.eye(2), swap @ u @ swap)
    np.testing.assert_allclose(got_rev.amplitudes, full_rev @ s.amplitudes, atol=1e-12)


def test_apply_unitary_errors():
    s = computational_state("00")
    with pytest.raises(ValueError, match="repeated target index"):
        apply_unitary(s, CNOT, [0, 0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_unitary(s, CNOT, [0])
    with pytest.raises(ValueError, match="out of range"):
        apply_unitary(s, HADAMARD, [2])
    with pytest.raises(ValueError, match="non-unitary"):
        apply_unitary(s, np.array([[1, 0], [0, 2]], dtype=complex), [0])


def test_fidelity_identity_orthogonal_half():
    phi_plus = make_state([1, 0, 0, 1])
    psi_minus = make_state([0, 1, -1, 0])
    plus_plus = computational_state("00")
    assert fidelity(phi_plus, phi_plus) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(phi_plus, psi_minus) == pytest.approx(0.0, abs=1e-12)
    # |<Phi+|++>|^2 = 1/2 by direct expansion
    assert fidelity(phi_plus, plus_plus) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(plus_plus, phi_plus) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity(computational_state("0"), computational_state("00"))


def _haar_unitary(n_qubits, rng):
    dim = 1 << n_qubits
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_norm_preserved_for_random_unitaries():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        s = haar_random_state(n, rng)
        k = int(rng.integers(1, n + 1))
        targets = list(rng.choice(n, size=k, replace=False))
        u = _haar_unitary(k, rng)
        out = apply_unitary(s, u, targets)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_pauli_algebra():
    eye = np.eye(2)
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(sigma @ sigma, eye, atol=1e-15)
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=1e-15)
    np.testing.assert_allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X, atol=1e-15)
    np.testing.assert_allclose(PAULI_Z @ PAULI_X, 1j * PAULI_Y, atol=1e-15)


def test_phase_canonical_and_states_equal():
    rng = np.random.default_rng(37)
    s = haar_random_state(2, rng)
    rotated = StateVector(2, s.amplitudes * np.exp(1j * 1.234))
    assert states_equal(s, rotated)
    assert not states_equal(s, rotated, up_to_phase=False)
    canon = phase_canonical(rotated)
    pivot = canon.amplitudes[np.flatnonzero(np.abs(canon.amplitudes) > 1e-9)[0]]
    assert pivot.imag == pytest.approx(0.0, abs=1e-12)
    assert pivot.real > 0
