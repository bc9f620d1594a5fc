"""The batched outcome-tree sampler against the per-trial code it replays.

``OutcomeTree`` must reproduce, bit for bit, what the runners (and photonic
``detect``) draw on ``RngStream(seed).substream(t)``: the same keys, the same
draw numbers and the same floor rule as ``_choose_outcome``.
"""
import gc
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import cli, measure, photonic
from bellsim.bellcore import BellCoefficients, BellLabel, bell_state, classify, from_bell, spin_product
from bellsim.measure import (
    _GOLDEN,
    _MIX_A,
    _MIX_B,
    _SCALE,
    _SHIFT_11,
    _SHIFT_27,
    _SHIFT_30,
    _SHIFT_31,
    _STEPS,
    LOCAL,
    PROB_FLOOR,
    TREE_CHUNK,
    TREE_LONG_CHUNK,
    TREE_LONG_RUN,
    TREE_WALK,
    FloorRule,
    OutcomeTree,
    RngStream,
    _ChunkWork,
    _choose_outcome,
    _keyed_draws,
    _mix64,
    _mix64_array,
    _operand,
    local_product_measurement,
)
from bellsim.protocols import (
    SCHEMES,
    _spin_product_scheme,
    iterate_runs,
    outcome_distribution,
)
from bellsim.qstate import fidelity, haar_random_state, make_state

from state_strategies import states

SEEDS = st.one_of(st.sampled_from([0, 7, 2**64 - 1]), st.integers(min_value=0, max_value=2**64 - 1))
# one trial and the sizes around the walk's crossover; then chunks: around one, and two with a short tail
WALKED = [1, TREE_WALK - 1, TREE_WALK, TREE_WALK + 1]
TRIALS = st.sampled_from([*WALKED, TREE_CHUNK - 1, TREE_CHUNK, TREE_CHUNK + 1, 2 * TREE_CHUNK + 3])
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
@example(s=_spec((3, 1, 0, 2), np.pi / 3, PROB_FLOOR, True), scheme="fig1", trials=2 * TREE_CHUNK + 3, seed=0)
@example(s=_spec((0, 1, 2, 3), 0.0, 2 * PROB_FLOOR, False), scheme="scheme_b", trials=TREE_CHUNK, seed=2**64 - 1)
def test_outcome_tree_matches_the_scalar_runners(s, scheme, trials, seed):
    counts, worst = _reference(s, scheme, trials, seed)
    assert outcome_distribution(s, scheme, trials, seed) == counts
    config = cli.RunConfig(scheme=scheme, state="-", trials=trials, seed=seed)
    assert cli._run_trials(s, config) == (counts, worst)  # fidelity compared with ==: bit-equal


@given(s=STATES, scheme=st.sampled_from(list(SCHEMES)), trials=st.sampled_from(WALKED), seed=SEEDS)
@settings(max_examples=150, deadline=None)
@example(s=_spec((0, 2, 1, 3), np.pi / 4, 0.0, True), scheme="fig1", trials=TREE_WALK, seed=7)
@example(s=_spec((0, 1, 2, 3), 0.0, 2 * PROB_FLOOR, False), scheme="scheme_b", trials=TREE_WALK - 1, seed=2**64 - 1)
def test_walk_matches_the_chunks(s, scheme, trials, seed):
    """Trial by trial, the walk reaches the leaves the chunks reach; each tree builds its second stages itself."""
    walked, chunked = (OutcomeTree(s, SCHEMES[scheme].tree) for _ in range(2))
    root = RngStream(seed)
    leaves = np.zeros(walked.labels.shape, np.int64)
    for t in range(trials):
        leaves[walked.walk(root.substream(t))] += 1
    assert chunked._chunks(root, trials).tolist() == leaves.tolist()
    assert walked.sample(trials, seed).tolist() == leaves.tolist()  # on either side of TREE_WALK


# chunk sizes: one trial, an odd size, and the two the rule picks
CHUNKS = st.sampled_from([1, 7, TREE_CHUNK, TREE_LONG_CHUNK])
NEVER = 2**63


@given(
    s=STATES, scheme=st.sampled_from(list(SCHEMES)), seed=SEEDS,
    trials=st.one_of(st.sampled_from([1, 8, 9, 10, 300, 301, 511, 512, 513, 1027]), st.integers(1, 1100)),
    chunk=CHUNKS, long_chunk=CHUNKS, long_run=st.sampled_from([0, 300, TREE_LONG_RUN]),
    walk=st.sampled_from([0, TREE_WALK, NEVER]),
)
@settings(max_examples=100, deadline=None)
@example(s=_spec((0, 2, 1, 3), np.pi / 4, 0.0, True), scheme="fig1", seed=7, trials=TREE_LONG_RUN + 1,
         chunk=TREE_CHUNK, long_chunk=TREE_LONG_CHUNK, long_run=TREE_LONG_RUN, walk=TREE_WALK)
@example(s=_spec((0, 1, 2, 3), 0.0, 2 * PROB_FLOOR, False), scheme="scheme_b", seed=2**64 - 1,
         trials=4 * TREE_LONG_CHUNK + 3, chunk=TREE_CHUNK, long_chunk=TREE_LONG_CHUNK, long_run=TREE_LONG_RUN,
         walk=TREE_WALK)
def test_leaves_do_not_depend_on_the_chunk_sizes_or_the_walk(s, scheme, seed, trials, chunk, long_chunk, long_run,
                                                             walk):
    """A run's leaf histogram is its trials walked one by one, whatever the chunk sizes and thresholds are."""
    walked = OutcomeTree(s, SCHEMES[scheme].tree)
    root = RngStream(seed)
    leaves = np.zeros(walked.labels.shape, np.int64)
    for t in range(trials):
        leaves[walked.walk(root.substream(t))] += 1
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (("TREE_CHUNK", chunk), ("TREE_LONG_CHUNK", long_chunk), ("TREE_LONG_RUN", long_run),
                            ("TREE_WALK", walk)):
            patch.setattr(measure, name, value)
        assert OutcomeTree(s, SCHEMES[scheme].tree).sample(trials, seed).tolist() == leaves.tolist()


def _pick_law(rule, row):
    """The exact law of the leaf a pick of ``row`` keeps, over the 2**53 draw words m of a draw m * 2**-53.

    The pick compares fl(m * 2**-53 * total) with the running sums; that value is monotone in m, so a
    bisection finds how many words fall below each sum. Each branch's words go to the leaf ``kept`` names.
    """
    k = rule.cdf.shape[1]
    law = np.zeros(rule.kept.size)
    if not rule.draws[row]:
        law[rule.kept[row * k]] = 1.0
        return law[row * k:(row + 1) * k]
    cdf = rule.cdf[row].tolist()
    below = []
    for c in cdf:
        lo, hi = 0, 2**53
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if mid * 2.0**-53 * cdf[-1] < c else (lo, mid)
        below.append(lo)
    assert below[-1] == 2**53  # every draw lands below the total: no pick runs past the last branch
    for j, words in enumerate(np.diff([0, *below]).tolist()):
        law[rule.kept[row * k + j]] += words * 2.0**-53
    return law[row * k:(row + 1) * k]


def _moved(weights):
    """The Born mass a pick on ``weights`` moves: its dead branches', and what the row's total lacks of 1.

    A pick draws on the weights over their total. That total is 1 within a few ulps (1.6e-15 at most on
    3000 Haar states), or a wrong weight could hide in this allowance.
    """
    assert abs(1.0 - weights.sum()) <= 1e-14
    return weights[weights <= PROB_FLOOR].sum() / weights.sum() + abs(1.0 - weights.sum())


def _sampler_law(s, scheme):
    """The label law the sampler draws, with no sampling noise, and the Born mass it moved, stage by stage."""
    weights, child, labels = SCHEMES[scheme].tree(s)
    first = FloorRule.empty(1, weights.size)
    first.set_row(0, weights)
    law, moved = _pick_law(first, 0), _moved(weights)
    leaves = law[:, None] * np.ones(labels.shape)
    if child is not None:
        second = FloorRule.empty(*labels.shape)
        for i in np.flatnonzero(law).tolist():  # a row no pick keeps is never built
            inner = child(i)[0]
            second.set_row(i, inner)
            leaves[i] *= _pick_law(second, i)
            moved += weights[i] * _moved(inner)
    return np.bincount(labels.ravel(), leaves.ravel(), len(BellLabel)), moved


@given(s=st.one_of(STATES, states(2)))
@settings(max_examples=60, deadline=None)
@example(s=cli.resolve_state("1,0,1.5e-6,2.5e-8", 0)[0])
@example(s=_spec((0, 1, 2, 3), np.pi / 4, PROB_FLOOR, True))
@example(s=_spec((2, 0, 1, 3), np.pi / 3, np.nextafter(PROB_FLOOR, 1.0), False))
def test_sampler_law_is_the_analytic_law_up_to_the_moved_mass(s):
    """Every scheme's exact sampler law, summed onto labels, is its analytic law within 1e-15 plus the moved mass.

    The weights' total counts: on Haar state 1481 (``default_rng(1481)``) the photonic register's weights sum
    to 1 - 1.2e-15 and the gap reads 1.2e-15, while the sampler law is within 1.4e-16 of the weights over their total.
    """
    for scheme, row in SCHEMES.items():
        law, moved = _sampler_law(s, scheme)
        assert abs(law.sum() - 1.0) <= 1e-15
        assert np.abs(law - row.analytic(s.amplitudes[None])[0]).max() <= 1e-15 + moved


@given(seed=SEEDS, start=st.integers(0, 2**40), size=st.integers(1, 5), counter=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
@example(seed=2**64 - 1, start=2**64 - 6, size=5, counter=2)
def test_keyed_draws_are_the_substream_draws(seed, start, size, counter):
    """Keys and draws written over buffers of all-ones words, reused from one start to the next."""
    root = RngStream(seed)
    work = _ChunkWork.of(*np.full((3, size), 2**64 - 1, np.uint64))
    for first in (start // 2, start):
        root._keys_into(first, work.keys, work.scratch)
        batched = _keyed_draws(work, counter)
        expected = []
        for t in range(first, first + size):
            stream = root.substream(t)
            expected.append([stream.uniform() for _ in range(counter)][-1])
        assert batched.tolist() == expected


# edge words: all zeros, all ones and multiples of the key step of trial streams
WORDS = st.one_of(
    st.sampled_from([0, 2**64 - 1]),
    st.integers(0, 4 * TREE_CHUNK).map(lambda k: k * _GOLDEN % 2**64),
    st.integers(0, 2**64 - 1),
)


def _long_buffer(n, head, tail, fill_seed):
    """``n`` words: Hypothesis words at both ends, seeded random words between."""
    fill = np.random.default_rng(fill_seed).integers(0, 2**64, n - len(head) - len(tail), np.uint64)
    return head + fill.tolist() + tail


# buffers of 1, TREE_CHUNK and TREE_CHUNK + 1 words
BUFFERS = st.one_of(
    st.lists(WORDS, min_size=1, max_size=1),
    st.builds(
        _long_buffer, st.sampled_from([TREE_CHUNK, TREE_CHUNK + 1]),
        st.lists(WORDS, max_size=4), st.lists(WORDS, max_size=4), st.integers(0, 2**32 - 1),
    ),
)


@given(words=BUFFERS)
@settings(max_examples=25, deadline=None)
def test_in_place_mix_and_draws_are_the_scalar_ones(words):
    """The splitmix core and the draw written through a float view of its word, word for word."""
    x = np.array(words, np.uint64)
    assert _mix64_array(x, np.empty_like(x)) is x
    assert x.tolist() == [_mix64(w) for w in words]
    work = _ChunkWork.of(*np.array([words] * 3, np.uint64))
    u = _keyed_draws(work, 3)
    assert u is work.u and work.keys.tolist() == words
    assert u.tolist() == [(_mix64(w + 3 * _GOLDEN) >> 11) * 2.0**-53 for w in words]


def test_shared_chunk_operands_are_read_only_and_exact():
    """The 0-d operands every chunk shares stand for their scalars and refuse writes, which would change later draws."""
    words = [
        (_MIX_A, 0xBF58476D1CE4E5B9), (_MIX_B, 0x94D049BB133111EB),
        (_SHIFT_30, 30), (_SHIFT_27, 27), (_SHIFT_31, 31), (_SHIFT_11, 11),
        (_STEPS[1], _GOLDEN), (_STEPS[2], 2 * _GOLDEN % 2**64),
    ]
    operands = [*((op, value, np.uint64) for op, value in words), (_SCALE, 2.0**-53, np.float64)]
    operands.append((_operand(4, np.intp), 4, np.intp))  # a row width, built on first use
    assert _operand(4, np.intp) is operands[-1][0] and _operand(4.0, np.float64) is not operands[-1][0]
    assert sorted(_STEPS) == [1, 2]
    for operand, value, dtype in operands:
        assert operand.shape == () and operand.dtype == dtype and not operand.flags.writeable
        assert type(operand.item()) is type(value) and operand.item() == value
        with pytest.raises(ValueError, match="read-only"):
            operand[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.add(operand, operand, out=operand)
        assert operand.item() == value


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
    # the lower of two: the first traced call after the warm-up reads a few hundred bytes high
    one_chunk = min(_heap_peak(lambda: tree.sample(TREE_CHUNK, 5)) for _ in range(2))
    assert _heap_peak(lambda: tree.sample(many, 5)) <= one_chunk + 512


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_long_run_memory_does_not_grow_with_trials(scheme):
    """A long run's work buffers are a long chunk's: twenty long chunks and a short one peak no higher than the
    shortest long run, three long chunks and a short one."""
    tree = _tree(scheme)
    many = 20 * TREE_LONG_CHUNK + 3
    tree.sample(many, 5)  # builds every second stage a trial reaches
    gc.collect()
    # the lower of two: the first traced call after the warm-up reads a few hundred bytes high
    first_long = min(_heap_peak(lambda: tree.sample(TREE_LONG_RUN + 1, 5)) for _ in range(2))
    assert _heap_peak(lambda: tree.sample(many, 5)) <= first_long + 512


@pytest.mark.parametrize("trials, size", [
    (TREE_WALK, TREE_WALK),  # a run shorter than a chunk: buffers of its own length
    (TREE_LONG_RUN, TREE_CHUNK),  # the longest run that keeps the short chunks, as perfbench's 2000-trial runs do
    (TREE_LONG_RUN + 1, TREE_LONG_CHUNK),
])
def test_runs_longer_than_tree_long_run_take_long_chunks(monkeypatch, trials, size):
    sizes = []

    class Spy(_ChunkWork):
        @classmethod
        def of(cls, keys, word, scratch):
            sizes.append(keys.size)
            return _ChunkWork.of(keys, word, scratch)

    monkeypatch.setattr(measure, "_ChunkWork", Spy)
    _tree("scheme_b").sample(trials, 5)
    assert sizes == [size]


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
    """A chunk-trial costs at most 36 bytes of heap peak: three uint64 words and an intp leaf are 32."""
    tree = _tree(scheme)
    tree.sample(10 * TREE_CHUNK + 3, 5)  # builds every second stage a trial reaches
    gc.collect()

    def lowest_peak(trials):  # of two runs: the first traced call after the warm-up reads a few hundred bytes high
        return min(_heap_peak(lambda: tree.sample(trials, 5)) for _ in range(2))

    half = TREE_CHUNK // 2
    assert (lowest_peak(TREE_CHUNK) - lowest_peak(half)) / (TREE_CHUNK - half) <= 36


def test_traced_run_heap_peak(tmp_path):
    """A traced 7-trial scheme_b run holds one stage of its 34-event trace at a time, not the whole trace.

    A leaf rendered also holds the encoded lines of the stages before the one rendering, since every stage is
    encoded before the first is written; a leaf written before holds only its kept lines. The lower of two peaks
    into a file the caller opened (2 cores, Python 3.11.7, numpy 2.4.6): 13.6 KB rendered (16.2 KB with the whole
    trace's events held first) and 7.1 KB written from the kept lines.
    """
    s = haar_random_state(2, np.random.default_rng(11))
    path = tmp_path / "t.jsonl"
    config = cli.RunConfig(scheme="scheme_b", state="-", trials=7, seed=1, emit_trace=str(path))
    with open(path, "wb", buffering=0) as trace:
        cli._run_trials(s, config, trace)  # numpy's and the file system's first-call caches are not the run's
        gc.collect()

        def rendered():
            cli._trace_lines.cache_clear()
            cli._run_trials(s, config, trace)

        # the lower of two: the first traced call after the warm-up reads about 3 KB high
        cold = min(_heap_peak(rendered) for _ in range(2))
        warm = min(_heap_peak(lambda: cli._run_trials(s, config, trace)) for _ in range(2))
    assert cold <= 14_000
    assert warm <= 8_500 and warm <= cold


def _reference_choose_outcome(weights, rng):
    """The floor rule written out on its own, without ``measure._floor_rule``: the reference every pick path replays."""
    weights = weights.tolist()
    if len([w for w in weights if w > PROB_FLOOR]) <= 1:
        return weights.index(max(weights))
    cdf = list(accumulate(weights))
    index = bisect_right(cdf, rng.uniform() * cdf[-1])
    if weights[index] <= PROB_FLOOR:
        index = weights.index(max(weights))
    return index


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
    """``_choose_outcome`` and both batch pick paths agree with the reference, also for draws on and beside a dead sliver."""
    weights = np.array(weights)
    cdf = np.cumsum(weights)
    edges = cdf[:-1] / cdf[-1]
    u = [v for edge in edges for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))]
    u = np.array([v for v in [*u, *extra] if 0.0 <= v < 1.0])
    expected, draws = [], set()
    for value in u:
        stream, scalar = _Fixed(float(value)), _Fixed(float(value))
        expected.append(_reference_choose_outcome(weights, stream))
        draws.add(stream.draws)
        assert _choose_outcome(weights, scalar) == expected[-1] and scalar.draws == stream.draws
    one_row = FloorRule.empty(1, weights.size)
    one_row.set_row(0, weights)
    rows = FloorRule.empty(3, weights.size)
    rows.set_row(1, weights)
    # all-ones work buffers: no stale word may reach a pick
    work = _ChunkWork.of(*np.full((3, u.size), 2**64 - 1, np.uint64))
    assert one_row.leaves_in_row(u.copy()).tolist() == expected
    leaf = np.ones(u.size, np.intp)
    assert rows.leaves_by_row(leaf, u.copy(), work) is leaf
    assert (leaf - weights.size).tolist() == expected
    assert draws <= {int(one_row.draws[0])} and rows.draws.tolist() == [False, one_row.draws[0], False]


@given(
    weights=st.lists(st.one_of(SLIVERS, st.floats(0.01, 1.0)), min_size=2, max_size=64).filter(
        lambda w: max(w) > PROB_FLOOR
    ),
    row=st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
@example(weights=[0.5, PROB_FLOOR, 0.5], row=1)
@example(weights=[1.0, PROB_FLOOR], row=2)
def test_walked_pick_replays_choose_outcome(weights, row):
    """The walk's one-stream pick agrees with the reference on draws on and beside every running sum."""
    weights = np.array(weights)
    cdf = np.cumsum(weights)
    edges = [0.0, *(cdf[:-1] / cdf[-1])]
    rule = FloorRule.empty(3, weights.size)
    rule.set_row(row, weights)
    for u in [v for edge in edges for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)) if 0.0 <= v < 1.0]:
        expected, walked = _Fixed(float(u)), _Fixed(float(u))
        assert rule.choose(row, walked) - row * weights.size == _reference_choose_outcome(weights, expected)
        assert walked.draws == expected.draws


@given(s=STATES, trials=TRIALS, seed=SEEDS)
@settings(max_examples=100, deadline=None)
@example(s=bell_state(BellLabel.PHI_PLUS), trials=TREE_CHUNK + 1, seed=407)
def test_local_local_tree_matches_two_local_measurements(s, trials, seed):
    """The (LOCAL, LOCAL) row's tree, which no scheme samples: local S_zz, then local S_xx, per trial."""
    szz, sxx = spin_product("z", "z"), spin_product("x", "x")
    counts = {label: 0 for label in BellLabel}
    for t in range(trials):
        rng = RngStream(seed).substream(t)
        first, mid = local_product_measurement(s, szz, rng)
        second, _ = local_product_measurement(mid, sxx, rng)
        counts[classify(first.product_outcome, second.product_outcome)] += 1
    tree = OutcomeTree(s, _spin_product_scheme(LOCAL, LOCAL).tree)
    assert tree.label_counts(tree.sample(trials, seed)) == counts


def test_outcome_tree_rejects_what_the_runners_reject():
    with pytest.raises(ValueError, match="unknown scheme"):
        outcome_distribution(bell_state(BellLabel.PHI_PLUS), "scheme_c", 1, 0)
    with pytest.raises(ValueError, match="2-qubit"):
        OutcomeTree(make_state([1.0] + [0.0] * 7), SCHEMES["scheme_a"].tree)
    with pytest.raises(ValueError, match="seed"):
        OutcomeTree(bell_state(BellLabel.PHI_PLUS), SCHEMES["photonic"].tree).sample(1, 2**64)
