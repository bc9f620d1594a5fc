"""The batched outcome-tree sampler against the per-trial code it replays.

``OutcomeTree`` must reproduce, bit for bit, what the runners (and photonic
``detect``) draw on ``RngStream(seed).substream(t)``: the same keys, the same
draw numbers and the same floor rule as ``_choose_outcome``.
"""
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import cli, photonic
from bellsim.bellcore import BellCoefficients, BellLabel, bell_state, classify, from_bell, spin_product
from bellsim.measure import (
    _GOLDEN,
    LOCAL,
    PROB_FLOOR,
    FloorRule,
    RngStream,
    _choose_outcome,
    _keyed_draws,
    _mix64,
    _mix64_array,
    keyed_uniforms,
    local_product_measurement,
)
from bellsim.protocols import SCHEMES, TREE_CHUNK, OutcomeTree, _spin_product_tree, iterate_runs, outcome_distribution
from bellsim.qstate import fidelity, haar_random_state, make_state

SEEDS = st.one_of(st.sampled_from([0, 7, 2**64 - 1]), st.integers(min_value=0, max_value=2**64 - 1))
TRIALS = st.sampled_from([1, TREE_CHUNK - 1, TREE_CHUNK, TREE_CHUNK + 1, 3 * TREE_CHUNK + 5])
# the weight of a third input coefficient: none, at, around or just above the floor
NEAR_FLOOR = st.sampled_from(
    [0.0, PROB_FLOOR / 2, PROB_FLOOR, np.nextafter(PROB_FLOOR, 1.0), 2 * PROB_FLOOR, 2.5 * PROB_FLOOR, 1e-10]
)


def _spec(order, theta, eps, bell_basis):
    """Two coefficients split by ``theta`` and a third of weight ``eps``, in the Bell or computational basis.

    Two Bell coefficients that fig1 maps to one sigma_z value of Alice's wire
    give a first stage without a draw and a second stage with one.
    """
    c = np.zeros(4, dtype=complex)
    c[order[0]], c[order[1]] = np.sqrt(1.0 - eps) * np.cos(theta), np.sqrt(1.0 - eps) * np.sin(theta)
    c[order[2]] = np.sqrt(eps)
    return from_bell(BellCoefficients(*c)) if bell_basis else make_state(c)


STATES = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: haar_random_state(2, np.random.default_rng(seed))),
    st.sampled_from(list(BellLabel)).map(bell_state),
    st.builds(
        _spec,
        st.permutations(range(4)),
        st.one_of(st.sampled_from([0.0, np.pi / 4]), st.floats(0.0, np.pi / 2)),
        NEAR_FLOOR,
        st.booleans(),
    ),
)


def _reference(s, scheme, trials, seed):
    """Label counts and the worst filter fidelity, trial by trial on the scalar path."""
    counts = {label: 0 for label in BellLabel}
    worst = 1.0
    if scheme == "photonic":
        final = photonic.build_photonic_run(s)
        root = RngStream(seed)
        for t in range(trials):
            counts[photonic.photonic_label(photonic.detect(final, root.substream(t)))] += 1
        return counts, None
    for result in iterate_runs(s, scheme, trials, seed):
        counts[result.label] += 1
        if scheme == "scheme_b":
            worst = min(worst, fidelity(result.post_state, bell_state(result.label)))
    return counts, worst if scheme == "scheme_b" else None


@given(s=STATES, scheme=st.sampled_from(list(SCHEMES)), trials=TRIALS, seed=SEEDS)
@settings(max_examples=150, deadline=None)
@example(s=_spec((0, 2, 1, 3), np.pi / 4, 0.0, True), scheme="fig1", trials=TREE_CHUNK + 1, seed=7)
@example(s=_spec((3, 1, 0, 2), np.pi / 3, PROB_FLOOR, True), scheme="fig1", trials=3 * TREE_CHUNK + 5, seed=0)
@example(s=_spec((0, 1, 2, 3), 0.0, 2 * PROB_FLOOR, False), scheme="scheme_b", trials=TREE_CHUNK, seed=2**64 - 1)
def test_outcome_tree_matches_the_scalar_runners(s, scheme, trials, seed):
    counts, worst = _reference(s, scheme, trials, seed)
    assert outcome_distribution(s, scheme, trials, seed) == counts
    config = cli.RunConfig(scheme=scheme, state="-", trials=trials, seed=seed)
    assert cli._run_trials(s, config) == (counts, worst)  # fidelity compared with ==: bit-equal


@given(seed=SEEDS, start=st.integers(0, 2**40), size=st.integers(1, 5), counter=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
@example(seed=2**64 - 1, start=2**64 - 6, size=5, counter=2)
def test_keyed_uniforms_are_the_substream_draws(seed, start, size, counter):
    root = RngStream(seed)
    batched = keyed_uniforms(root.substream_keys(start, start + size), counter)
    expected = []
    for t in range(start, start + size):
        stream = root.substream(t)
        expected.append([stream.uniform() for _ in range(counter)][-1])
    assert batched.tolist() == expected


# buffers of 1, TREE_CHUNK and TREE_CHUNK + 1 words, with the edge words all
# zeros, all ones and multiples of the key step of trial streams
WORDS = st.one_of(
    st.sampled_from([0, 2**64 - 1]),
    st.integers(0, 4 * TREE_CHUNK).map(lambda k: k * _GOLDEN % 2**64),
    st.integers(0, 2**64 - 1),
)
BUFFERS = st.sampled_from([1, TREE_CHUNK, TREE_CHUNK + 1]).flatmap(lambda n: st.lists(WORDS, min_size=n, max_size=n))


@given(words=BUFFERS)
@settings(max_examples=25, deadline=None)
def test_in_place_mix_and_draws_are_the_scalar_ones(words):
    """The splitmix core and the draw written through a float view of its word, word for word."""
    x = np.array(words, np.uint64)
    assert _mix64_array(x, np.empty_like(x)) is x
    assert x.tolist() == [_mix64(w) for w in words]
    keys = np.array(words, np.uint64)
    u = _keyed_draws(keys, 3, np.empty_like(keys), np.empty_like(keys))
    assert keys.tolist() == words
    assert u.tolist() == [(_mix64(w + 3 * _GOLDEN) >> 11) * 2.0**-53 for w in words]


def _heap_peak(fn) -> int:
    """Bytes that ``fn()`` holds at its heap peak above the heap in use before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_sampling_memory_does_not_grow_with_trials(scheme):
    """A run's work buffers are a chunk's: ten chunks and a short one peak no higher than one chunk."""
    tree = OutcomeTree(haar_random_state(2, np.random.default_rng(11)), SCHEMES[scheme].tree)
    many = 10 * TREE_CHUNK + 3
    tree.sample(many, 5)  # builds every second stage a trial reaches
    gc.collect()
    one_chunk = _heap_peak(lambda: tree.sample(TREE_CHUNK, 5))
    assert _heap_peak(lambda: tree.sample(many, 5)) <= one_chunk + 512


def _tree(scheme, rng_seed=11):
    return OutcomeTree(haar_random_state(2, np.random.default_rng(rng_seed)), SCHEMES[scheme].tree)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_sampling_keeps_only_weights(scheme):
    """A sampled tree holds a reached second stage's weights, not its post-states: ``reached`` rebuilds those."""
    _tree(scheme, 10).sample(10 * TREE_CHUNK + 3, 5)  # numpy's first-call caches are not the tree's
    tree = _tree(scheme)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tree.sample(10 * TREE_CHUNK + 3, 5)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before <= 512
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_sampling_heap_per_chunk_trial(scheme):
    """A chunk-trial costs at most 36 bytes of heap peak: three uint64 words, two bytes and an intp leaf are 34."""
    tree = _tree(scheme)
    tree.sample(10 * TREE_CHUNK + 3, 5)  # builds every second stage a trial reaches
    gc.collect()

    def lowest_peak(trials):  # of two runs: the first traced call after the warm-up reads a few hundred bytes high
        return min(_heap_peak(lambda: tree.sample(trials, 5)) for _ in range(2))

    half = TREE_CHUNK // 2
    assert (lowest_peak(TREE_CHUNK) - lowest_peak(half)) / (TREE_CHUNK - half) <= 36


class _Fixed:
    """A stream whose every draw is ``u``; counts the draws taken."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def uniform(self):
        self.draws += 1
        return self.u


SLIVERS = st.sampled_from([0.0, PROB_FLOOR / 2, PROB_FLOOR, np.nextafter(PROB_FLOOR, 1.0), 3 * PROB_FLOOR])


@given(
    weights=st.lists(st.one_of(SLIVERS, st.floats(0.01, 1.0)), min_size=2, max_size=6).filter(
        lambda w: max(w) > PROB_FLOOR
    ),
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
)
@settings(max_examples=300, deadline=None)
@example(weights=[0.5, PROB_FLOOR, 0.5], extra=[])
@example(weights=[1.0, PROB_FLOOR], extra=[])
@example(weights=[0.25, PROB_FLOOR / 2, 0.75], extra=[])
def test_floor_rule_replays_choose_outcome(weights, extra):
    """Both pick paths agree with ``_choose_outcome``, also for draws on and beside a dead sliver."""
    weights = np.array(weights)
    cdf = np.cumsum(weights)
    edges = cdf[:-1] / cdf[-1]
    u = [v for edge in edges for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))]
    u = np.array([v for v in [*u, *extra] if 0.0 <= v < 1.0])
    expected, draws = [], set()
    for value in u:
        stream = _Fixed(float(value))
        expected.append(_choose_outcome(weights, stream))
        draws.add(stream.draws)
    one_row = FloorRule.empty(1, weights.size)
    one_row.set_row(0, weights)
    rows = FloorRule.empty(3, weights.size)
    rows.set_row(1, weights)
    assert one_row.pick(0, u).tolist() == expected
    assert rows.pick(np.ones(u.size, np.intp), u).tolist() == expected
    assert draws <= {int(one_row.draws[0])} and rows.draws.tolist() == [False, one_row.draws[0], False]


@given(s=STATES, trials=TRIALS, seed=SEEDS)
@settings(max_examples=100, deadline=None)
@example(s=bell_state(BellLabel.PHI_PLUS), trials=TREE_CHUNK + 1, seed=407)
def test_local_local_tree_matches_two_local_measurements(s, trials, seed):
    """The (LOCAL, LOCAL) builder, which no runner replays: local S_zz, then local S_xx, per trial."""
    szz, sxx = spin_product("z", "z"), spin_product("x", "x")
    counts = {label: 0 for label in BellLabel}
    for t in range(trials):
        rng = RngStream(seed).substream(t)
        first, mid = local_product_measurement(s, szz, rng)
        second, _ = local_product_measurement(mid, sxx, rng)
        counts[classify(first.product_outcome, second.product_outcome)] += 1
    tree = OutcomeTree(s, _spin_product_tree(LOCAL, LOCAL))
    assert tree.label_counts(tree.sample(trials, seed)) == counts


def test_outcome_tree_rejects_what_the_runners_reject():
    with pytest.raises(ValueError, match="unknown scheme"):
        outcome_distribution(bell_state(BellLabel.PHI_PLUS), "scheme_c", 1, 0)
    with pytest.raises(ValueError, match="2-qubit"):
        OutcomeTree(make_state([1.0] + [0.0] * 7), SCHEMES["scheme_a"].tree)
    with pytest.raises(ValueError, match="seed"):
        OutcomeTree(bell_state(BellLabel.PHI_PLUS), SCHEMES["photonic"].tree).sample(1, 2**64)
