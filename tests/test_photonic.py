"""Linear-optics model: register assembly, detection, label equivalence."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.bellcore import BellLabel, bell_state, classify, to_bell
from bellsim.cli import resolve_state
from bellsim.measure import RngStream
from bellsim.photonic import (
    REGISTER_A,
    REGISTER_B,
    DetectorIndex,
    build_photonic_run,
    detect,
    label_distribution,
    _EVENTS,
    photonic_label,
)
from bellsim.protocols import SCHEMES, analytic_label_distribution, outcome_distribution
from bellsim.qstate import bit_of, computational_state, haar_random_state
from one_state_routes import gate_by_gate


def port_probabilities(final, photon):
    """Marginal probability of each of one photon's four output ports, summed in index order over ``detect``'s events."""
    ports = [event["AB".index(photon)].port for event in _EVENTS]
    return np.bincount(ports, np.abs(final.amplitudes) ** 2, 4)


def test_register_layout():
    assert (REGISTER_A.polarization, REGISTER_A.path_z, REGISTER_A.path_x) == (0, 2, 4)
    assert (REGISTER_B.polarization, REGISTER_B.path_z, REGISTER_B.path_x) == (1, 3, 5)


def test_build_rejects_wrong_input_size():
    with pytest.raises(ValueError, match="2-qubit"):
        build_photonic_run(computational_state("0"))


def test_phi_plus_input_gives_even_z_parity():
    final = build_photonic_run(bell_state(BellLabel.PHI_PLUS))
    for t in range(200):
        a, b = detect(final, RngStream(5).substream(t))
        assert a.z_outcome * b.z_outcome == +1
        assert a.x_outcome * b.x_outcome == +1
    np.testing.assert_allclose(label_distribution(bell_state(BellLabel.PHI_PLUS)), [1, 0, 0, 0], atol=1e-12)


def test_psi_minus_input_flips_both_parities():
    final = build_photonic_run(bell_state(BellLabel.PSI_MINUS))
    for t in range(200):
        ports = detect(final, RngStream(7).substream(t))
        a, b = ports
        assert a.z_outcome * b.z_outcome == -1
        assert a.x_outcome * b.x_outcome == -1
        assert photonic_label(ports) is BellLabel.PSI_MINUS


def test_plus_plus_input_halves_between_phi_branches():
    # to_bell(|++>) = (1/sqrt2, 1/sqrt2, 0, 0): z parity fixed, x parity a coin
    s = computational_state("00")
    np.testing.assert_allclose(label_distribution(s), [0.5, 0.5, 0, 0], atol=1e-12)
    final = build_photonic_run(s)
    n_plus = 0
    for t in range(4000):
        a, b = detect(final, RngStream(11).substream(t))
        assert a.z_outcome * b.z_outcome == +1
        n_plus += a.x_outcome * b.x_outcome == +1
    assert abs(n_plus - 2000) < 4 * np.sqrt(4000 * 0.25)


def test_port_encodes_outcome_bits_bijectively():
    seen = set()
    for port in range(4):
        d = DetectorIndex("A", port)
        assert d.port == 2 * (1 - d.z_outcome) // 2 + (1 - d.x_outcome) // 2
        seen.add((d.z_outcome, d.x_outcome))
    assert seen == set(itertools.product((+1, -1), repeat=2))


def test_detector_index_validation():
    with pytest.raises(ValueError, match="port"):
        DetectorIndex("A", 4)
    with pytest.raises(ValueError, match="photon"):
        DetectorIndex("C", 0)


def test_all_sixteen_port_pairs_cover_labels_evenly():
    by_label = {}
    for pa, pb in itertools.product(range(4), repeat=2):
        label = photonic_label((DetectorIndex("A", pa), DetectorIndex("B", pb)))
        by_label.setdefault(label, []).append((pa, pb))
    assert set(by_label) == set(BellLabel)
    assert all(len(pairs) == 4 for pairs in by_label.values())


def test_exactly_one_detector_fires_per_photon():
    rng = np.random.default_rng(73)
    for _ in range(20):
        final = build_photonic_run(haar_random_state(2, rng))
        for photon in ("A", "B"):
            probs = port_probabilities(final, photon)
            assert np.all(probs >= -1e-15)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_readout_law_is_scheme_a_leaf_law(seed):
    """The 64 detection weights folded onto port pairs, read as (z_A, z_B; x_A, x_B), are scheme (a)'s 16-leaf law.

    Leaf (i, j) of scheme (a) weighs its first-stage (nonlocal S_zz) weight times its second-stage (local S_xx)
    weight, i and j the readout indices 2 * bit(A) + bit(B).
    """
    s = haar_random_state(2, np.random.default_rng(seed))
    z_a, z_b, x_a, x_b = REGISTER_A.path_z, REGISTER_B.path_z, REGISTER_A.path_x, REGISTER_B.path_x
    law = np.zeros((4, 4))
    for index, weight in enumerate(np.abs(build_photonic_run(s).amplitudes) ** 2):
        i = 2 * bit_of(index, z_a, 6) + bit_of(index, z_b, 6)
        j = 2 * bit_of(index, x_a, 6) + bit_of(index, x_b, 6)
        law[i, j] += weight
    first, child, _ = SCHEMES["scheme_a"].tree(s)
    leaves = np.array([first[i] * child(i)[0] for i in range(4)])
    np.testing.assert_allclose(law, leaves, rtol=0, atol=1e-15)


def test_index_tables_match_loop_reference():
    # the per-index loop the precomputed tables replace; the tables sum in the
    # same index order, so the results must be equal bit for bit
    rng = np.random.default_rng(101)
    for _ in range(50):
        s = haar_random_state(2, rng)
        probs = np.abs(build_photonic_run(s).amplitudes) ** 2
        labels, ports = np.zeros(4), {"A": np.zeros(4), "B": np.zeros(4)}
        for index, p in enumerate(probs):
            sign = {q: 1 - 2 * bit_of(index, q, 6) for q in range(2, 6)}
            labels[classify(sign[2] * sign[3], sign[4] * sign[5]).index] += p
            for reg in (REGISTER_A, REGISTER_B):
                ports[reg.photon][(bit_of(index, reg.path_z, 6) << 1) | bit_of(index, reg.path_x, 6)] += p
        np.testing.assert_array_equal(label_distribution(s), labels)
        for photon in ("A", "B"):
            np.testing.assert_array_equal(port_probabilities(build_photonic_run(s), photon), ports[photon])
    # on a basis-state register detection is certain: each photon's port is its path bits
    for index in range(64):
        basis = computational_state(format(index, "06b"))
        expected = tuple(
            DetectorIndex(reg.photon, (bit_of(index, reg.path_z, 6) << 1) | bit_of(index, reg.path_x, 6))
            for reg in (REGISTER_A, REGISTER_B)
        )
        assert detect(basis, RngStream(index)) == expected


def test_photonic_matches_abstract_scheme_analytically():
    rng = np.random.default_rng(79)
    for _ in range(500):
        s = haar_random_state(2, rng)
        np.testing.assert_allclose(
            label_distribution(s), analytic_label_distribution(s, "scheme_a"), atol=1e-12
        )
        np.testing.assert_allclose(label_distribution(s), to_bell(s).probabilities(), atol=1e-12)


NEAR_FLOOR, LEADING_MINUS = (resolve_state(spec, seed=0)[0] for spec in ("1,0,1.5e-6,2.5e-8", "-0.6,0.8i,0,0"))
NAMED_INPUTS = [bell_state(label) for label in BellLabel] + [
    computational_state(bits) for bits in ("00", "01", "10", "11")
] + [NEAR_FLOOR, LEADING_MINUS]


@given(
    s=st.one_of(
        st.sampled_from(NAMED_INPUTS),
        st.integers(0, 2**32 - 1).map(lambda seed: haar_random_state(2, np.random.default_rng(seed))),
    ),
)
@settings(max_examples=200, deadline=None)
@example(s=NEAR_FLOOR)
@example(s=LEADING_MINUS)
def test_build_replays_the_gate_circuit(s):
    # the gather plan is the gate circuit bit for bit, signed zeros included
    for order in ((REGISTER_A, REGISTER_B), (REGISTER_B, REGISTER_A)):
        assert build_photonic_run(s, block_order=order).amplitudes.tobytes() == gate_by_gate(s, order).tobytes()


def test_optical_block_order_is_irrelevant():
    rng = np.random.default_rng(83)
    for _ in range(20):
        s = haar_random_state(2, rng)
        ab = build_photonic_run(s, block_order=(REGISTER_A, REGISTER_B))
        ba = build_photonic_run(s, block_order=(REGISTER_B, REGISTER_A))
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


@pytest.mark.parametrize("order", [
    (), (REGISTER_A,), (REGISTER_A, REGISTER_A), (REGISTER_B, REGISTER_B),
    (REGISTER_A, REGISTER_B, REGISTER_A), ("A", "B"),
])
def test_block_order_must_be_a_permutation_of_both_registers(order):
    with pytest.raises(ValueError, match="permutation"):
        build_photonic_run(bell_state(BellLabel.PHI_PLUS), block_order=order)


def test_detect_requires_photonic_register():
    with pytest.raises(ValueError, match="6-qubit"):
        detect(bell_state(BellLabel.PHI_PLUS), RngStream(1))


def test_empirical_histogram_matches_analytic():
    s = haar_random_state(2, np.random.default_rng(89))
    probs = label_distribution(s)
    counts = outcome_distribution(s, "photonic", 10000, 97)
    for label in BellLabel:
        expected = 10000 * probs[label.index]
        sigma = np.sqrt(10000 * probs[label.index] * (1 - probs[label.index]))
        assert abs(counts[label] - expected) <= 4 * sigma + 1
