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
    haar_random_states,
    make_state,
    phase_canonical,
    states_equal,
    tensor,
)
from state_strategies import pivot_edge_examples, states

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
    # a Haar state is its Gaussian draw over np.linalg.norm, bit for bit
    for n_qubits in (1, 2, 3):
        for seed in range(8):
            gen = np.random.default_rng(seed)
            amps = gen.standard_normal(1 << n_qubits) + 1j * gen.standard_normal(1 << n_qubits)
            expected = (amps / np.linalg.norm(amps)).tobytes()
            assert haar_random_state(n_qubits, np.random.default_rng(seed)).amplitudes.tobytes() == expected


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


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-6, 1e-3),
    up_to_phase=st.booleans(),
)
@settings(max_examples=200, deadline=None)
@example(seed=0, scale=1e-3, up_to_phase=False)
def test_phase_canonical_and_states_equal(seed, scale, up_to_phase):
    rng = np.random.default_rng(37)
    s = haar_random_state(2, rng)
    rotated = StateVector(2, s.amplitudes * np.exp(1j * 1.234))
    assert states_equal(s, rotated)
    assert not states_equal(s, rotated, up_to_phase=False)
    canon = phase_canonical(rotated)
    pivot = canon.amplitudes[np.flatnonzero(np.abs(canon.amplitudes) > 1e-9)[0]]
    assert pivot.imag == pytest.approx(0.0, abs=1e-12)
    assert pivot.real > 0
    # states_equal is np.allclose (rtol 1e-5) just below, at and just above its tolerance
    gen = np.random.default_rng(seed)
    a = haar_random_state(2, gen)
    b = make_state(a.amplitudes + scale * (gen.standard_normal(4) + 1j * gen.standard_normal(4)))
    x, y = (phase_canonical(a), phase_canonical(b)) if up_to_phase else (a, b)
    edge = max(0.0, float(np.max(np.abs(x.amplitudes - y.amplitudes) - 1e-5 * np.abs(y.amplitudes))))
    for atol in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
        expected = np.allclose(x.amplitudes, y.amplitudes, atol=atol)
        assert states_equal(a, b, atol=atol, up_to_phase=up_to_phase) is expected


def _phase_canonical_reference(s):
    # phase_canonical's body before it found its pivot with a loop
    amps = s.amplitudes
    idx = np.flatnonzero(np.abs(amps) > 1e-9)
    if idx.size == 0:
        return s
    pivot = amps[idx[0]]
    return StateVector(s.n_qubits, amps * (abs(pivot) / pivot))


def _haar_random_state_reference(n_qubits, gen):
    # haar_random_state's body before it drew into one complex buffer
    dim = 1 << n_qubits
    amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    norm = np.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
    return StateVector(n_qubits, amps / norm)


@given(s=st.sampled_from((1, 2, 3, 6)).flatmap(states))
@settings(max_examples=200, deadline=None)
@example(s=make_state([-0.6, 0.8j, 0, 0]))
def test_phase_canonical_matches_reference_bit_for_bit(s):
    assert phase_canonical(s).amplitudes.tobytes() == _phase_canonical_reference(s).amplitudes.tobytes()


def test_phase_canonical_pivot_edges_match_reference():
    for n_qubits in (1, 2, 3):
        for s in pivot_edge_examples(n_qubits):
            got = phase_canonical(s).amplitudes
            assert got.tobytes() == _phase_canonical_reference(s).amplitudes.tobytes()
            # a modulus of exactly 1e-9 is not a pivot; one ulp above it is
            pivot = 1 if np.abs(s.amplitudes)[0] <= 1e-9 else 0
            assert got[pivot].real > 0 and abs(got[pivot].imag) <= 1e-15 * got[pivot].real


@given(n_qubits=st.sampled_from((1, 2, 3, 6)), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_haar_random_state_matches_reference_bit_for_bit(n_qubits, seed):
    gen, reference_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = haar_random_state(n_qubits, gen).amplitudes
        assert got.tobytes() == _haar_random_state_reference(n_qubits, reference_gen).amplitudes.tobytes()
    assert gen.bit_generator.state == reference_gen.bit_generator.state


@given(n_qubits=st.integers(1, 3), count=st.integers(1, 17), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_haar_random_states_are_one_state_draws_bit_for_bit(n_qubits, count, seed):
    gen, one_gen, reference_gen = (np.random.default_rng(seed) for _ in range(3))
    block = haar_random_states(n_qubits, gen, count)
    assert len(block) == count
    for s in block:
        assert s.n_qubits == n_qubits and not s.amplitudes.flags.writeable
        assert s.amplitudes.tobytes() == haar_random_state(n_qubits, one_gen).amplitudes.tobytes()
        assert s.amplitudes.tobytes() == _haar_random_state_reference(n_qubits, reference_gen).amplitudes.tobytes()
    assert gen.bit_generator.state == one_gen.bit_generator.state == reference_gen.bit_generator.state


@pytest.mark.parametrize("count, bad", [(1, 0), (5, 0), (5, 4)])
def test_haar_random_states_reject_a_nan_norm(count, bad):
    """The block's norm check is StateVector's: one NaN draw in any state of the block fails it."""
    class NanDraw:
        def standard_normal(self, shape):
            normals = np.random.default_rng(0).standard_normal(shape)
            normals[bad, 1, 0] = np.nan  # the first imaginary part of state ``bad``
            return normals

    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="state not normalized"):  # NaN / NaN
        haar_random_states(2, NanDraw(), count)
