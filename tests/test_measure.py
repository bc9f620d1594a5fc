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
    PROB_FLOOR,
    RngStream,
    _INJECT_PHI_PLUS,
    _choose_bit,
    _choose_outcome,
    local_branches,
    local_product_measurement,
    meas_operator_family,
    measure_local_pauli,
    nonlocal_branches,
    nonlocal_product_measurement,
    povm_family,
)
from bellsim.qstate import StateVector, computational_state, haar_random_state, make_state, states_equal

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


@pytest.mark.parametrize("make", [
    lambda: RngStream(-1),
    lambda: RngStream(2**64),
    lambda: RngStream(0).substream(-1),
    lambda: RngStream(0).substream(2**64),
])
def test_rng_stream_rejects_out_of_range_seeds_and_indices(make):
    # no aliasing: -1 is not 2**64 - 1 and 2**64 is not 0
    with pytest.raises(ValueError, match=r"in \[0, 2\*\*64\)"):
        make()


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


@given(
    w0=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from(
        [PROB_FLOOR, np.nextafter(PROB_FLOOR, 0), np.nextafter(PROB_FLOOR, 1),
         1 - PROB_FLOOR, np.nextafter(1 - PROB_FLOOR, 0), np.nextafter(1 - PROB_FLOOR, 2)])),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=300, deadline=None)
def test_choose_bit_is_choose_outcome_on_two_weights(w0, seed):
    scalar, vector = RngStream(seed), RngStream(seed)
    assert _choose_bit(w0, scalar) == _choose_outcome(np.array([w0, 1.0 - w0]), vector)
    assert scalar.counter == vector.counter



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


def test_sigma_z_branch_at_the_floor_takes_no_draw():
    # p(+1) == PROB_FLOOR exactly: the branch is dead, so the readout needs no draw
    s = StateVector(1, [1e-6, np.sqrt(1 - 1e-12)])
    assert abs(s.amplitudes[0]) ** 2 == PROB_FLOOR
    rng = RngStream(0)
    outcome, post = measure_local_pauli(s, 0, "z", rng)
    assert (outcome, rng.counter) == (-1, 0)
    np.testing.assert_array_equal(post.amplitudes, [0, 1])


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


# --- branch contract -----------------------------------------------------------

def test_injection_matches_explicit_cnot_permutation():
    # register bits [A_sys, B_sys, A_meter, B_meter], qubit 0 most significant
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2.0)
    expected = np.zeros((16, 4), dtype=complex)
    for k in range(4):
        a, b = k >> 1, k & 1
        for meter in range(4):
            m_a, m_b = (meter >> 1) ^ a, (meter & 1) ^ b
            expected[(a << 3) | (b << 2) | (m_a << 1) | m_b, k] = phi[meter]
    np.testing.assert_array_equal(_INJECT_PHI_PLUS, expected)
    assert not _INJECT_PHI_PLUS.flags.writeable


_KERNELS = (
    (local_branches, local_product_measurement, LOCAL),
    (nonlocal_branches, nonlocal_product_measurement, NONLOCAL),
)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_branch_contract_on_haar_states(seed):
    s = haar_random_state(2, np.random.default_rng(seed))
    for (i, j), (branches, kernel, strategy) in itertools.product(
        itertools.product(AXES, repeat=2), _KERNELS
    ):
        sp = spin_product(i, j)
        weights, post_of = branches(s.amplitudes, sp)
        assert weights.shape == (4,) and (weights >= 0).all()
        assert abs(weights.sum() - 1.0) <= 1e-12
        for index in np.flatnonzero(weights > PROB_FLOOR):
            post = post_of(index)
            assert abs(np.linalg.norm(post) - 1.0) <= 1e-12
            if strategy == NONLOCAL:
                m = (1 - 2 * (index >> 1)) * (1 - 2 * (index & 1))
                expected = make_state(sp.projector(m) @ s.amplitudes)
                assert states_equal(StateVector(2, post), expected)
        # the kernel is exactly "branches, then _choose_outcome"
        for k in range(3):
            index = _choose_outcome(weights, RngStream(k))
            record, post = kernel(s, sp, RngStream(k))
            assert record.strategy == strategy
            assert record.local_outcomes == (1 - 2 * (index >> 1), 1 - 2 * (index & 1))
            assert np.array_equal(post.amplitudes, post_of(index))


# --- POVM / Kraus algebra ------------------------------------------------------

def _born(s, e):
    """<s|E|s> for a 2-qubit state and a POVM element."""
    return float(np.vdot(s.amplitudes, e @ s.amplitudes).real)


def _by_product_outcome(weights):
    """Branch weights, indexed by readout bits, summed into {+1: p_+, -1: p_-}."""
    w = weights.reshape(2, 2)
    return {+1: w[0, 0] + w[1, 1], -1: w[0, 1] + w[1, 0]}


def test_povm_szz_plus_element():
    e_plus = povm_family(LOCAL, spin_product("z", "z"))[+1]
    # Pi(++) + Pi(--) = Pi(Phi+) + Pi(Phi-) = (I + S_zz)/2
    direct = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(e_plus, direct, atol=1e-15)
    bell_sum = sum(
        np.outer(bell_state(l).amplitudes, bell_state(l).amplitudes.conj())
        for l in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS)
    )
    np.testing.assert_allclose(e_plus, bell_sum, atol=1e-15)


def test_povm_identical_across_strategies():
    # derived from different Kraus families: four rank-1 site projectors
    # against two eigenspace projectors
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        local = povm_family(LOCAL, sp)
        nonlocal_ = povm_family(NONLOCAL, sp)
        assert set(local) == set(nonlocal_) == {+1, -1}
        for m in (+1, -1):
            np.testing.assert_allclose(local[m], nonlocal_[m], atol=1e-15)
            np.testing.assert_allclose(local[m], (np.eye(4) + m * sp.matrix) / 2, atol=1e-15)


def test_povm_family_sums_to_identity():
    for strategy in (LOCAL, NONLOCAL):
        for i, j in itertools.product(AXES, repeat=2):
            povm = povm_family(strategy, spin_product(i, j))
            np.testing.assert_allclose(povm[+1] + povm[-1], np.eye(4), atol=1e-12)


def test_kraus_completeness_both_strategies():
    for strategy in (LOCAL, NONLOCAL):
        for i, j in itertools.product(AXES, repeat=2):
            family = meas_operator_family(strategy, spin_product(i, j))
            total = sum(m.conj().T @ m for m in family.values())
            np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_nonlocal_kraus_are_the_eigenspace_projectors():
    sp = spin_product("x", "y")
    family = meas_operator_family(NONLOCAL, sp)
    assert family[+1] is sp.projector_plus and family[-1] is sp.projector_minus


def test_local_kraus_are_rank_one_site_projectors():
    family = meas_operator_family(LOCAL, spin_product("z", "z"))
    assert set(family) == {(+1, +1), (+1, -1), (-1, +1), (-1, -1)}
    for m in family.values():
        eig = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(np.sort(eig), [0, 0, 0, 1], atol=1e-12)


def test_outcome_probability_examples():
    szz = spin_product("z", "z")
    sxx = spin_product("x", "x")
    e_plus_zz = povm_family(LOCAL, szz)[+1]
    e_plus_xx = povm_family(LOCAL, sxx)[+1]
    assert _born(bell_state(BellLabel.PHI_PLUS), e_plus_zz) == pytest.approx(1.0, abs=1e-12)
    assert _born(computational_state("01"), e_plus_zz) == pytest.approx(0.0, abs=1e-12)
    # |++> expanded in the x product basis puts half its weight in each branch
    assert _born(computational_state("00"), e_plus_xx) == pytest.approx(0.5, abs=1e-12)


def test_strategies_agree_with_born_rule():
    # local and nonlocal empirical outcome frequencies both match <s|E|s>
    s = from_bell(BellCoefficients(0.5, 0.5j, -0.5, 0.5))
    sp = spin_product("z", "z")
    p_plus = _born(s, povm_family(LOCAL, sp)[+1])
    trials = 6000
    for runner, seed in ((local_product_measurement, 43), (nonlocal_product_measurement, 47)):
        plus = sum(
            runner(s, sp, RngStream(seed).substream(t))[0].product_outcome == +1
            for t in range(trials)
        )
        assert abs(plus - trials * p_plus) < 4 * np.sqrt(trials * p_plus * (1 - p_plus))


def test_strategy_outcome_distributions_identical_on_random_states():
    # each strategy's sampler, summed by product outcome, against the other
    # strategy's sampler and against <s|E_m|s> of its own Kraus-derived POVM
    rng_state = np.random.default_rng(107)
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        povms = {strategy: povm_family(strategy, sp) for strategy in (LOCAL, NONLOCAL)}
        for _ in range(200):
            s = haar_random_state(2, rng_state)
            local = _by_product_outcome(local_branches(s.amplitudes, sp)[0])
            nonlocal_ = _by_product_outcome(nonlocal_branches(s.amplitudes, sp)[0])
            for m in (+1, -1):
                assert abs(local[m] - nonlocal_[m]) <= 1e-12
                for strategy, sampled in ((LOCAL, local), (NONLOCAL, nonlocal_)):
                    assert abs(sampled[m] - _born(s, povms[strategy][m])) <= 1e-12


def test_sampling_soundness_hundred_thousand_trials():
    # binomial 4-sigma band around the Born probability, one seed family
    s = from_bell(BellCoefficients(0.6, 0.0, 0.0, 0.8))
    sp = spin_product("z", "z")
    p_plus = _born(s, povm_family(NONLOCAL, sp)[+1])
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
    for family in (meas_operator_family, povm_family):
        with pytest.raises(ValueError, match="unknown strategy 'psychic'"):
            family("psychic", spin_product("z", "z"))


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
