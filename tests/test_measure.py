"""Measurement engine: Pauli readout, both product strategies, POVMs, RNG."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.bellcore import BellLabel, bell_state, from_bell, BellCoefficients, spin_product, to_bell
from bellsim.measure import (
    LOCAL,
    NONLOCAL,
    MeasurementRecord,
    PovmElement,
    PROB_FLOOR,
    RngStream,
    _choose_outcome,
    local_product_measurement,
    meas_operator_family,
    measure_local_pauli,
    nonlocal_product_measurement,
    outcome_probability,
    povm_family,
)
from bellsim.qstate import computational_state, haar_random_state, make_state, states_equal

SQ2 = 1.0 / np.sqrt(2.0)
AXES = ("x", "y", "z")


# --- RngStream -------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_rng_stream_reproducible(seed):
    a = RngStream(seed)
    b = RngStream(seed)
    assert [a.uniform() for _ in range(8)] == [b.uniform() for _ in range(8)]
    assert a.counter == 8


def test_rng_substreams_deterministic_and_distinct():
    draws = {i: RngStream(99).substream(i).uniform() for i in range(16)}
    again = {i: RngStream(99).substream(i).uniform() for i in range(16)}
    assert draws == again
    assert len(set(draws.values())) == 16


def test_choose_outcome_respects_distribution():
    rng = RngStream(3)
    counts = np.zeros(3)
    for _ in range(30000):
        counts[_choose_outcome(np.array([0.2, 0.5, 0.3]), rng)] += 1
    np.testing.assert_allclose(counts / counts.sum(), [0.2, 0.5, 0.3], atol=0.02)


_WEIGHT = st.one_of(
    st.just(0.0),
    st.just(1e-13),
    st.just(PROB_FLOOR),
    st.floats(min_value=1e-13, max_value=1.0),
)


def test_choose_outcome_redirects_draw_on_dead_sliver():
    # place a sub-floor sliver exactly where the first draw of the stream lands
    u = RngStream(11).uniform()
    weights = np.array([u - 5e-14, 1e-13, 1.0 - u - 5e-14])
    cdf = np.cumsum(weights)
    assert cdf[0] <= u * cdf[-1] < cdf[1]
    rng = RngStream(11)
    assert _choose_outcome(weights, rng) == int(np.argmax(weights))
    assert rng.counter == 1


@given(
    weights=st.lists(_WEIGHT, min_size=1, max_size=8).filter(lambda w: max(w) > PROB_FLOOR),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=200, deadline=None)
@example(weights=[1e-13, 1.0, 0.0, 1e-13], seed=5)
@example(weights=[1e-13, 0.5, 1e-13, 0.5], seed=5)
def test_choose_outcome_floor_rule(weights, seed):
    weights = np.array(weights)
    rng = RngStream(seed)
    index = _choose_outcome(weights, rng)
    if np.count_nonzero(weights > PROB_FLOOR) <= 1:
        # a single live branch is taken without consuming randomness
        assert index == int(np.argmax(weights))
        assert rng.counter == 0
    else:
        assert rng.counter == 1
        assert weights[index] > PROB_FLOOR



# --- single-site Pauli measurement ------------------------------------------

def test_measure_z_on_eigenstate():
    outcome, post = measure_local_pauli(computational_state("0"), 0, "z", RngStream(1))
    assert outcome == +1
    np.testing.assert_array_equal(post.amplitudes, [1, 0])


def test_measure_x_on_plus_is_fair_coin():
    counts = {+1: 0, -1: 0}
    for t in range(4000):
        outcome, post = measure_local_pauli(computational_state("0"), 0, "x", RngStream(5).substream(t))
        counts[outcome] += 1
        expected = np.array([SQ2, outcome * SQ2])
        np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)
    # 4 sigma binomial bound around 2000
    assert abs(counts[+1] - 2000) < 4 * np.sqrt(4000 * 0.25)


def test_measure_z_on_entangled_pair_collapses_both():
    seen = set()
    for t in range(50):
        outcome, post = measure_local_pauli(bell_state(BellLabel.PHI_PLUS), 0, "z", RngStream(11).substream(t))
        target = computational_state("00" if outcome == +1 else "11")
        assert states_equal(post, target)
        seen.add(outcome)
    assert seen == {+1, -1}


def test_measure_local_pauli_validates_input():
    s = computational_state("0")
    with pytest.raises(ValueError, match="out of range"):
        measure_local_pauli(s, 1, "z", RngStream(0))
    with pytest.raises(ValueError, match="unknown axis"):
        measure_local_pauli(s, 0, "q", RngStream(0))


def test_never_returns_null_state_on_deterministic_branch():
    # p(-1) = 0 exactly; the surviving branch must be taken without sampling
    rng = RngStream(2)
    outcome, post = measure_local_pauli(computational_state("0"), 0, "z", rng)
    assert outcome == +1
    assert rng.counter == 0
    assert np.isfinite(post.amplitudes).all()


# --- local product strategy --------------------------------------------------

def test_local_szz_on_phi_plus():
    counts = {0: 0, 3: 0}
    for t in range(2000):
        rec, post = local_product_measurement(bell_state(BellLabel.PHI_PLUS), spin_product("z", "z"), RngStream(13).substream(t))
        assert rec.product_outcome == +1
        assert rec.strategy == LOCAL
        assert rec.ebits_consumed == 0
        idx = int(np.argmax(np.abs(post.amplitudes)))
        counts[idx] += 1
    # post-state is |++> or |--> each about half the time
    assert abs(counts[0] - 1000) < 4 * np.sqrt(2000 * 0.25)


def test_local_szz_on_joint_eigenstate_deterministic():
    rec, post = local_product_measurement(computational_state("01"), spin_product("z", "z"), RngStream(17))
    assert rec.product_outcome == -1
    assert rec.local_outcomes == (+1, -1)
    np.testing.assert_array_equal(post.amplitudes, [0, 1, 0, 0])


def test_local_szz_then_sxx_randomizes_second_outcome():
    # after the local S_zz the state is a z product state, so S_xx is a coin
    n_plus = 0
    trials = 4000
    for t in range(trials):
        rng = RngStream(19).substream(t)
        _, mid = local_product_measurement(bell_state(BellLabel.PHI_PLUS), spin_product("z", "z"), rng)
        rec2, _ = local_product_measurement(mid, spin_product("x", "x"), rng)
        if rec2.product_outcome == +1:
            n_plus += 1
    assert abs(n_plus - trials / 2) < 4 * np.sqrt(trials * 0.25)


# --- nonlocal strategy --------------------------------------------------------

def test_nonlocal_szz_preserves_eigenspace_superposition():
    rng_state = np.random.default_rng(101)
    hits = {+1: 0, -1: 0}
    for t in range(200):
        s = haar_random_state(2, rng_state)
        c = to_bell(s)
        rec, post = nonlocal_product_measurement(s, spin_product("z", "z"), RngStream(23).substream(t))
        hits[rec.product_outcome] += 1
        assert rec.strategy == NONLOCAL
        assert rec.ebits_consumed == 1
        if rec.product_outcome == +1:
            branch = np.array([c.c1, c.c2, 0, 0])
        else:
            branch = np.array([0, 0, c.c3, c.c4])
        branch = branch / np.linalg.norm(branch)
        expected = from_bell(BellCoefficients(*branch))
        assert states_equal(post, expected), f"branch mismatch at trial {t}"
    assert min(hits.values()) > 0


def test_nonlocal_szz_branch_probability():
    # m=+1 with p=|c1|^2+|c2|^2: frequency check on a fixed superposition
    s = from_bell(BellCoefficients(0.6, 0.0, 0.0, 0.8))
    trials, plus = 10000, 0
    for t in range(trials):
        rec, _ = nonlocal_product_measurement(s, spin_product("z", "z"), RngStream(29).substream(t))
        if rec.product_outcome == +1:
            plus += 1
    p = 0.36
    assert abs(plus - trials * p) < 4 * np.sqrt(trials * p * (1 - p))


def test_nonlocal_szz_on_psi_plus_deterministic():
    for t in range(100):
        rec, post = nonlocal_product_measurement(
            bell_state(BellLabel.PSI_PLUS), spin_product("z", "z"), RngStream(31).substream(t)
        )
        # the individual meter readouts are fair coins; only their product is fixed
        assert rec.product_outcome == -1
        assert states_equal(post, bell_state(BellLabel.PSI_PLUS))


def test_nonlocal_sxx_on_phi_minus_deterministic():
    rec, post = nonlocal_product_measurement(bell_state(BellLabel.PHI_MINUS), spin_product("x", "x"), RngStream(37))
    assert rec.product_outcome == -1
    assert states_equal(post, bell_state(BellLabel.PHI_MINUS))


def test_post_state_law_all_axes():
    # post = M s / ||M s|| with M the eigenspace projector, every axis pair
    rng_state = np.random.default_rng(103)
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        for t in range(20):
            s = haar_random_state(2, rng_state)
            rec, post = nonlocal_product_measurement(s, sp, RngStream(41).substream(t))
            branch = sp.projector(rec.product_outcome) @ s.amplitudes
            expected = make_state(branch)
            assert states_equal(post, expected)


# --- POVM / Kraus algebra ------------------------------------------------------

def test_povm_szz_plus_element():
    e_plus = povm_family(LOCAL, spin_product("z", "z"))[0]
    # Pi(++) + Pi(--) = Pi(Phi+) + Pi(Phi-) = (I + S_zz)/2
    direct = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(e_plus.matrix, direct, atol=1e-15)
    bell_sum = sum(
        np.outer(bell_state(l).amplitudes, bell_state(l).amplitudes.conj())
        for l in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS)
    )
    np.testing.assert_allclose(e_plus.matrix, bell_sum, atol=1e-15)


def test_povm_identical_across_strategies():
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        local = povm_family(LOCAL, sp)
        nonlocal_ = povm_family(NONLOCAL, sp)
        for e_l, e_n in zip(local, nonlocal_):
            assert e_l.label == e_n.label
            np.testing.assert_allclose(e_l.matrix, e_n.matrix, atol=1e-15)


def test_povm_family_sums_to_identity():
    for i, j in itertools.product(AXES, repeat=2):
        total = sum(e.matrix for e in povm_family(LOCAL, spin_product(i, j)))
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_kraus_completeness_both_strategies():
    for strategy in (LOCAL, NONLOCAL):
        for i, j in itertools.product(AXES, repeat=2):
            family = meas_operator_family(strategy, spin_product(i, j))
            total = sum(m.matrix.conj().T @ m.matrix for m in family)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_local_kraus_are_rank_one_site_projectors():
    family = meas_operator_family(LOCAL, spin_product("z", "z"))
    labels = {m.label for m in family}
    assert labels == {(+1, +1), (+1, -1), (-1, +1), (-1, -1)}
    for m in family:
        eig = np.linalg.eigvalsh(m.matrix)
        np.testing.assert_allclose(np.sort(eig), [0, 0, 0, 1], atol=1e-12)


def test_outcome_probability_examples():
    szz = spin_product("z", "z")
    sxx = spin_product("x", "x")
    e_plus_zz = povm_family(LOCAL, szz)[0]
    e_plus_xx = povm_family(LOCAL, sxx)[0]
    assert outcome_probability(bell_state(BellLabel.PHI_PLUS), e_plus_zz) == pytest.approx(1.0, abs=1e-12)
    assert outcome_probability(computational_state("01"), e_plus_zz) == pytest.approx(0.0, abs=1e-12)
    # |++> expanded in the x product basis puts half its weight in each branch
    assert outcome_probability(computational_state("00"), e_plus_xx) == pytest.approx(0.5, abs=1e-12)


def test_outcome_probability_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        outcome_probability(computational_state("0"), povm_family(LOCAL, spin_product("z", "z"))[0])


def test_povm_element_rejects_non_psd():
    with pytest.raises(ValueError, match="Hermitian"):
        PovmElement(+1, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="positive semidefinite"):
        PovmElement(+1, -np.eye(2, dtype=complex))


def test_strategies_agree_with_born_rule():
    # local and nonlocal empirical outcome frequencies both match <s|E|s>
    s = from_bell(BellCoefficients(0.5, 0.5j, -0.5, 0.5))
    sp = spin_product("z", "z")
    p_plus = outcome_probability(s, povm_family(LOCAL, sp)[0])
    trials = 6000
    for runner, seed in ((local_product_measurement, 43), (nonlocal_product_measurement, 47)):
        plus = sum(
            runner(s, sp, RngStream(seed).substream(t))[0].product_outcome == +1
            for t in range(trials)
        )
        assert abs(plus - trials * p_plus) < 4 * np.sqrt(trials * p_plus * (1 - p_plus))


def test_strategy_outcome_distributions_identical_on_random_states():
    rng_state = np.random.default_rng(107)
    for i, j in (("z", "z"), ("x", "x"), ("z", "y")):
        sp = spin_product(i, j)
        e_local = povm_family(LOCAL, sp)
        e_nonlocal = povm_family(NONLOCAL, sp)
        for _ in range(500):
            s = haar_random_state(2, rng_state)
            for e_l, e_n in zip(e_local, e_nonlocal):
                assert abs(outcome_probability(s, e_l) - outcome_probability(s, e_n)) <= 1e-12


def test_sampling_soundness_hundred_thousand_trials():
    # binomial 4-sigma band around the Born probability, one seed family
    s = from_bell(BellCoefficients(0.6, 0.0, 0.0, 0.8))
    sp = spin_product("z", "z")
    p_plus = outcome_probability(s, povm_family(NONLOCAL, sp)[0])
    assert p_plus == pytest.approx(0.36, abs=1e-12)
    trials = 100_000
    plus = sum(
        nonlocal_product_measurement(s, sp, RngStream(53).substream(t))[0].product_outcome == +1
        for t in range(trials)
    )
    assert abs(plus - trials * p_plus) < 4 * np.sqrt(trials * p_plus * (1 - p_plus))


def test_measurement_record_invariants():
    for z_a, z_b in itertools.product((+1, -1), repeat=2):
        local = MeasurementRecord("S_zz", LOCAL, (z_a, z_b))
        nonlocal_ = MeasurementRecord("S_zz", NONLOCAL, (z_a, z_b))
        assert local.product_outcome == nonlocal_.product_outcome == z_a * z_b
        assert (local.ebits_consumed, nonlocal_.ebits_consumed) == (0, 1)
    with pytest.raises(ValueError, match="strategy"):
        MeasurementRecord("S_zz", "psychic", (+1, -1))


def test_same_seed_gives_identical_record_sequences():
    s = from_bell(BellCoefficients(0.5, 0.5, 0.5, 0.5))
    def run(seed):
        rng = RngStream(seed)
        out = []
        state = s
        for _ in range(6):
            rec, state = nonlocal_product_measurement(state, spin_product("z", "z"), rng)
            out.append(rec)
            rec2, state = local_product_measurement(state, spin_product("x", "x"), rng)
            out.append(rec2)
        return out
    assert run(12345) == run(12345)
