"""Measurement engine for spin products: local and nonlocal strategies.

Two routes to measuring S_ij = sigma_i (x) sigma_j on a shared qubit pair:

* local: each party projectively measures their own Pauli and the outcomes
  are multiplied. Destroys superpositions inside the S_ij eigenspaces (the
  post-state is a local product state), so a subsequent measurement of a
  second, commuting spin product no longer sees the original state.
* nonlocal: the parties consume a shared |Phi+> meter pair, each applies a
  CNOT from their system qubit onto their meter qubit, and reads the meter
  out in sigma_z. The product of the meter readouts is the S_ij outcome and
  the system is left in (I + m S_ij)/2 applied to the input, renormalized:
  superpositions within the eigenspace survive.

Both strategies realize the same POVM {(I + S_ij)/2, (I - S_ij)/2}; they
differ only in the measurement (Kraus) operators and hence the post-state.
Each strategy is one entry of :data:`STRATEGIES`: its branch function (the
sampler) and its Kraus family, from which :func:`povm_family` derives the
POVM.

Sampling is Born-rule exact and driven by :class:`RngStream`, a seeded,
splittable stream, so every run is reproducible. :class:`OutcomeTree`
samples untraced runs of a scheme: a few trial by trial, more in batches.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .bellcore import _LABELS, BellLabel, SpinProduct, bell_state
from .qstate import (
    BASIS_CHANGE,
    CNOT,
    StateVector,
    _apply_matrix,
    _require_two_qubits,
    _wrap,
)

LOCAL = "local"
NONLOCAL = "nonlocal"
ALICE = "alice"
BOB = "bob"

# Branches at or below this probability are never taken, and a single live
# branch is taken without a draw (avoids renormalizing a ~null state).
PROB_FLOOR = 1e-12


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DRAW_SCALE = 2.0 ** -53  # a draw is the top 53 bits of a mix, scaled into [0, 1)


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64 bits."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@lru_cache(maxsize=None, typed=True)
def _operand(value, dtype=np.uint64) -> np.ndarray:
    """``value`` as a shared, read-only 0-d array: a ufunc converts a Python scalar operand on every call."""
    operand = np.array(value, dtype)
    operand.flags.writeable = False
    return operand


# the chunks' shared operands: _mix64's multipliers and shifts, the draw's shift and scale,
# and the counter offsets counter * _GOLDEN of draws 1 and 2
_MIX_A, _MIX_B = _operand(0xBF58476D1CE4E5B9), _operand(0x94D049BB133111EB)
_SHIFT_30, _SHIFT_27, _SHIFT_31, _SHIFT_11 = (_operand(n) for n in (30, 27, 31, 11))
_SCALE = _operand(_DRAW_SCALE, np.float64)
_STEPS = {counter: _operand(counter * _GOLDEN & _MASK64) for counter in (1, 2)}


def _mix64_array(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`_mix64` in place on a ``uint64`` array (array arithmetic wraps without warning).

    ``scratch``, like ``x``, takes each shifted word.
    """
    np.right_shift(x, _SHIFT_30, out=scratch)
    x ^= scratch
    x *= _MIX_A
    np.right_shift(x, _SHIFT_27, out=scratch)
    x ^= scratch
    x *= _MIX_B
    np.right_shift(x, _SHIFT_31, out=scratch)
    x ^= scratch
    return x


class _ChunkWork(NamedTuple):
    """The work buffers of a batch of draws and picks, with the views they are read through.

    Three ``uint64`` words per trial, viewed once per buffer size rather
    than once per chunk. The two byte rows of a pick (``count`` and
    ``below``) are the first bytes of ``keys``: a chunk draws its last draw
    before it picks, and no pick reads a key.
    """

    keys: np.ndarray  # uint64: the substream keys
    word: np.ndarray  # uint64: the draw word
    u: np.ndarray  # its float64 view: the draws
    scratch: np.ndarray  # uint64: shifted words
    x: np.ndarray  # its float64 view: gathered running sums
    counted: np.ndarray  # its intp view: the counts widened
    count: np.ndarray  # uint8: running sums at or below each draw
    count_mask: np.ndarray  # its bool view
    below: np.ndarray  # uint8: one column's comparison
    below_mask: np.ndarray  # its bool view

    @classmethod
    def of(cls, keys: np.ndarray, word: np.ndarray, scratch: np.ndarray) -> "_ChunkWork":
        """Views of three contiguous ``uint64`` buffers of one size."""
        n = keys.size
        count, below = keys.view(np.uint8)[:n], keys.view(np.uint8)[n:2 * n]
        return cls(
            keys, word, word.view(np.float64), scratch, scratch.view(np.float64), scratch.view(np.intp),
            count, count.view(bool), below, below.view(bool),
        )

    def head(self, n: int) -> "_ChunkWork":
        """The first ``n`` columns of the same buffers."""
        return self.of(self.keys[:n], self.word[:n], self.scratch[:n])


def _keyed_draws(work: _ChunkWork, counter: int) -> np.ndarray:
    """Draw ``counter`` (1-based) of the streams whose keys ``work.keys`` holds, as ``uniform()`` makes it.

    Written into ``work.word`` and returned as its ``float64`` view ``work.u``.
    """
    keys, word, u, scratch = work[:4]
    step = _STEPS[counter] if counter in _STEPS else np.array(counter * _GOLDEN & _MASK64, np.uint64)
    np.add(keys, step, out=word)
    _mix64_array(word, scratch)
    word >>= _SHIFT_11
    np.copyto(u, word)  # elementwise in place: each 53-bit word converts exactly
    u *= _SCALE
    return u


def _in_range(value, what: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer (not a bool) in [0, 2**64), so no other value aliases it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value <= _MASK64:
        raise ValueError(f"{what} must be an integer in [0, 2**64)")
    return int(value)


class RngStream:
    """Deterministic, counter-based random stream.

    Draw i of a stream is a pure function of (seed, path, i) -- the
    splitmix64 sequence keyed by the stream -- so the same seed and draw
    history always reproduce the same outcomes, independent of platform and
    scheduling. ``substream(i)`` derives the independent stream with path
    extended by i, how per-trial streams split; seed and i lie in [0, 2**64).
    """

    __slots__ = ("seed", "path", "counter", "_key")

    def __init__(self, seed: int):
        self.seed = _in_range(seed, "seed")
        self.path = ()
        self.counter = 0
        self._key = _mix64(self.seed)

    def uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the event counter."""
        self.counter += 1
        return (_mix64(self._key + self.counter * _GOLDEN) >> 11) * _DRAW_SCALE

    def substream(self, index: int) -> "RngStream":
        """The stream of path ``path + (index,)``: its key is this stream's key folded with ``index``."""
        index = _in_range(index, "substream index")
        child = object.__new__(RngStream)  # no seed to check, and no key to mix from it
        child.seed, child.path, child.counter = self.seed, (*self.path, index), 0
        child._key = _mix64(self._key + ((index + 1) * _GOLDEN & _MASK64))
        return child

    def _keys_into(self, start: int, keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Keys of ``substream(i)`` from i = ``start``, as many as ``keys`` holds, written into it for :func:`_keyed_draws`."""
        np.multiply(np.arange(start + 1, start + 1 + keys.size, dtype=np.uint64), _STEPS[1], out=keys)
        keys += np.array(self._key, np.uint64)
        return _mix64_array(keys, scratch)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, path={self.path}, counter={self.counter})"


@dataclass(frozen=True)
class MeasurementRecord:
    """One spin-product measurement event.

    ``local_outcomes`` are the two +-1 site readouts (meter readouts for the
    nonlocal strategy).
    """

    observable: str
    strategy: str
    local_outcomes: tuple[int, int]

    def __post_init__(self) -> None:
        get_strategy(self.strategy)
        if len(self.local_outcomes) != 2 or any(r not in (1, -1) for r in self.local_outcomes):
            raise ValueError(f"readouts must be two of +1 and -1, got {self.local_outcomes!r}")

    @property
    def product_outcome(self) -> int:
        """The S_ij outcome: the product of the two site readouts."""
        z_a, z_b = self.local_outcomes
        return z_a * z_b

    @property
    def ebits_consumed(self) -> int:
        """One |Phi+> meter pair per nonlocal measurement, none for a local one."""
        return STRATEGIES[self.strategy].ebits


def _z_branches(amps: np.ndarray, qubit: int):
    """(weights, post_of) of a sigma_z readout of ``qubit`` on a flat amplitude array.

    ``weights`` are [w0, 1 - w0], w0 the Born weight of readout +1;
    post_of(bit) is the collapsed, renormalized array (bit 0 for +1). Views
    the array as (pre, 2, post).
    """
    view = amps.reshape(1 << qubit, 2, -1)
    branch0 = view[:, 0, :]
    w0 = float(np.vdot(branch0, branch0).real)
    weights = np.array([w0, 1.0 - w0])

    def post_of(bit: int) -> np.ndarray:
        post = np.zeros_like(amps)
        np.multiply(
            view[:, bit, :],
            1.0 / np.sqrt(weights[bit]),
            out=post.reshape(1 << qubit, 2, -1)[:, bit, :],
        )
        return post

    return weights, post_of


def _floor_rule(weights: list) -> tuple[bool, Callable[[int], int]]:
    """The PROB_FLOOR rule on a row of Born weights: (draws, keep), keep(j) the branch that a pick of branch j keeps.

    A pick draws if more than one branch is above the floor. A branch keeps itself, or the row's heaviest
    branch if it is dead (at or below the floor): no pick keeps a ~null state. A row without a draw has
    at most one branch above the floor, its heaviest, so each of its picks keeps that one.
    """
    draws = len([w for w in weights if w > PROB_FLOOR]) > 1
    top = weights.index(max(weights))
    return draws, lambda j: j if weights[j] > PROB_FLOOR else top


def _choose_outcome(weights: np.ndarray, rng: RngStream) -> int:
    """Pick an index by its Born weight under :func:`_floor_rule`, drawing only if the row draws; pure Python."""
    weights = weights.tolist()
    draws, keep = _floor_rule(weights)
    if not draws:
        return keep(0)
    cdf = list(accumulate(weights))  # the same sums, in the same order, as np.cumsum
    return keep(bisect_right(cdf, rng.uniform() * cdf[-1]))


class FloorRule(NamedTuple):
    """:func:`_choose_outcome` on rows of Born weights, replayed on batches of draws or on one stream.

    Branch j of row r is leaf r * k + j. The batch picks work in place on
    one-dimensional arrays the caller owns: numpy's broadcasting and
    fancy-indexing machinery allocates more than the arrays themselves.
    """

    draws: np.ndarray  # (rows,) whether the row takes a draw, as _floor_rule decides
    cdf: np.ndarray  # (rows, k) running sums of the weights
    kept: np.ndarray  # (rows * k,) the leaf a pick keeps, as _floor_rule decides

    @classmethod
    def empty(cls, rows: int, k: int) -> "FloorRule":
        """Tables for ``rows`` rows of ``k`` branches; a pick reads a row only after :meth:`set_row` fills it."""
        return cls(np.zeros(rows, bool), np.ones((rows, k)), np.empty(rows * k, np.intp))

    def set_row(self, row: int, weights: np.ndarray) -> None:
        """Fill one row from its weights."""
        k = weights.size
        self.draws[row], keep = _floor_rule(weights.tolist())
        self.kept[row * k:(row + 1) * k] = [row * k + keep(j) for j in range(k)]
        self.cdf[row] = weights.cumsum()

    def choose(self, row: int, rng: RngStream) -> int:
        """:func:`_choose_outcome` on one row for one stream: the leaf it keeps, drawing only if the row draws."""
        leaf = row * self.cdf.shape[1]
        if self.draws[row]:
            cdf = self.cdf[row]
            leaf += bisect_right(cdf, rng.uniform() * cdf[-1])
        return int(self.kept[leaf])

    def leaves_in_row(self, u: np.ndarray) -> np.ndarray:
        """A new array of the leaves that draws ``u`` (scaled in place) select in the first row."""
        u *= self.cdf[0, -1, ...]  # the row's total, as a 0-d view
        return self.keep(self.cdf[0].searchsorted(u, side="right"))

    def leaves_by_row(self, leaf: np.ndarray, u: np.ndarray, work: _ChunkWork) -> np.ndarray:
        """In place: each row in ``leaf`` becomes the leaf its draw in ``u`` (scaled in place) selects.

        ``u`` is one of ``work``'s views or an array of its size; the picks work in ``work``'s other buffers.
        """
        k = self.cdf.shape[1]
        x, counted, count, count_mask, below, below_mask = work[4:]
        leaf *= _operand(k, np.intp)  # the step from a row to its first leaf
        flat = self.cdf.reshape(-1)  # running sum j of row r at leaf r * k + j
        # mode "clip" never clips here (the leaves are in range); mode "raise" would buffer the result
        flat[k - 1:].take(leaf, out=x, mode="clip")
        u *= x
        # searchsorted(side="right") counts the running sums at or below the draw;
        # the last, the total, is above every u * total (u < 1, so the product rounds below it)
        flat.take(leaf, out=x, mode="clip")
        np.less_equal(x, u, out=count_mask)  # the first comparison starts the count
        for j in range(1, k - 1):
            flat[j:].take(leaf, out=x, mode="clip")
            np.less_equal(x, u, out=below_mask)
            count += below
        np.copyto(counted, count)
        leaf += counted
        return self.keep(leaf)

    def keep(self, leaf: np.ndarray) -> np.ndarray:
        """In place: each picked leaf becomes the leaf the floor rule keeps.

        ``take`` reads index i before it writes slot i, so the gather needs no copy.
        """
        return self.kept.take(leaf, out=leaf, mode="clip")


# Every trial of a run starts from the same state, and a stage's post-state
# depends only on the branch it took, so all trials walk one tree: a first
# stage, then a second stage after each first-stage branch. A builder returns
# (first-stage weights, child, labels): child(i) is (weights, post_of) of the
# second stage after branch i (None when there is no second stage), and
# labels[i, j] is the index of the Bell label that leaf (i, j) names.

# Trials per chunk of OutcomeTree.sample. A chunk costs about the same numpy
# calls whatever its size, so what bounds it is a run's heap peak: the
# second-stage weights the tree keeps, plus 32 bytes per chunk-trial of work
# buffers, plus the report (the CLI's parser is built once per process). The
# largest call of perfbench mc-throughput (2000-trial runs; 2 cores, Python
# 3.11.7, numpy 2.4.6) peaks at 17.6 KB at 64, 128 and 192 alike and at
# 19.7 KB at 256: 192 is the largest of these that adds nothing to the peak.
# Runs of more than TREE_LONG_RUN trials take chunks of TREE_LONG_CHUNK, which
# spreads a chunk's 30-40 us of set-up over more trials: sampling 1e4-1e6
# trials takes 62-77 ns per trial at 512 against 93-145 ns at 192 (43-53 ns
# at 1024). 512 is the largest chunk that keeps the heap peak of bellsim
# verify, whose born-rule group samples 2e4 trials: 47.6 KB at 512, 48.1 KB
# at 192, 51.0 KB at 768, 59.0 KB at 1024 (BENCH_32.json). 2000 keeps the
# short chunks, and their peak, for runs of up to 2000 trials, the size of
# perfbench mc-throughput's runs.
TREE_CHUNK = 192
TREE_LONG_RUN, TREE_LONG_CHUNK = 2000, 512
# Runs of fewer trials are walked trial by trial (OutcomeTree.walk): a walked
# trial costs 6-12 us, a run's first chunk 60-200 us whatever its size. Summed
# over the four schemes, cli._run_trials is cheaper walked up to 8 trials,
# within 2 % either way at 9 and cheaper chunked from 10 (photonic crosses
# near 7, the others near 9-10; 2 cores, Python 3.11.7, numpy 2.4.6; the
# sweeps are in BENCH_16.json). With the chunks' scalar operands prebuilt the
# sum crosses near 7 (BENCH_19.json), and between 7 and 8 with the long
# chunks and Haar blocks (two sweeps, BENCH_32.json); the constant stays
# until alternating perfbench small-runs pairs show a smaller one worse on
# no metric.
TREE_WALK = 9


class OutcomeTree:
    """Batched Monte Carlo of untraced runs, bit-identical to the runners.

    Trial t replays what the runner draws on ``RngStream(seed).substream(t)``:
    draw 1 for the first stage, draw 1 + (draws the first stage took) for
    the second, none for a stage with one live branch (:class:`FloorRule`).
    A second stage's weights are built when a trial first reaches them.
    ``build`` is a tree builder of the shape above, such as a scheme's ``tree``.
    A leaf is (i, j): branch i of the first stage, then branch j of the
    second (0 when there is none), the index of ``labels`` it names.
    """

    def __init__(self, s: StateVector, build: Callable):
        _require_two_qubits(s)
        weights, self._child, self.labels = build(s)
        self._first = FloorRule.empty(1, weights.size)
        self._first.set_row(0, weights)
        if self._child:
            self._second = FloorRule.empty(*self.labels.shape)
            self._second_draws = False  # a second stage built so far takes a draw
            self._unbuilt = set(self._first.kept.tolist())

    def walk(self, rng: RngStream) -> tuple[int, int]:
        """The leaf that the run drawing on ``rng`` reaches: one trial of :meth:`sample`, as the runner draws it."""
        i = self._first.choose(0, rng)
        if not self._child:
            return i, 0
        self._reach(i)
        return divmod(self._second.choose(i, rng), self.labels.shape[1])

    def sample(self, trials: int, seed: int) -> np.ndarray:
        """Leaf histogram of ``trials`` runs; trial t draws from ``RngStream(seed).substream(t)``.

        Fewer than :data:`TREE_WALK` trials are walked one by one; more are
        replayed in chunks of :data:`TREE_CHUNK`, or of :data:`TREE_LONG_CHUNK`
        in runs of more than :data:`TREE_LONG_RUN` trials.
        """
        root = RngStream(seed)
        if trials < TREE_WALK:
            leaves = np.zeros(self.labels.shape, np.int64)
            for t in range(trials):
                leaves[self.walk(root.substream(t))] += 1
            return leaves
        return self._chunks(root, trials)

    def _chunks(self, root: RngStream, trials: int) -> np.ndarray:
        """:meth:`sample` in chunks.

        Each chunk works in the same three words per trial and the same views of them
        (:class:`~bellsim.measure._ChunkWork`): the substream keys, the draw word and a scratch word.
        """
        size = TREE_CHUNK if trials <= TREE_LONG_RUN else TREE_LONG_CHUNK
        work = _ChunkWork.of(*np.empty((3, min(size, trials)), np.uint64))
        leaves = np.zeros(self.labels.size, dtype=np.int64)
        for start in range(0, trials, size):
            if trials - start < work.keys.size:  # the last chunk is short
                work = work.head(trials - start)
            leaves += np.bincount(self._chunk(root, start, work), minlength=leaves.size)
        return leaves.reshape(self.labels.shape)

    def _chunk(self, root: RngStream, start: int, work: _ChunkWork) -> np.ndarray:
        """The leaf of each trial of the chunk from ``start``, one per column of the buffers."""
        first_draws = bool(self._first.draws[0])
        if first_draws:
            root._keys_into(start, work.keys, work.scratch)
            leaf = self._first.leaves_in_row(_keyed_draws(work, 1))
        else:
            leaf = np.full(work.keys.size, self._first.kept[0])
        if not self._child:
            return leaf
        if self._unbuilt:
            hit = np.bincount(leaf, minlength=len(self.labels))
            for i in [i for i in self._unbuilt if hit[i]]:
                self._reach(i)
        if not self._second_draws:  # every row reached keeps its heaviest branch
            leaf *= _operand(self.labels.shape[1], np.intp)
            return self._second.keep(leaf)
        if not first_draws:
            root._keys_into(start, work.keys, work.scratch)
        return self._second.leaves_by_row(leaf, _keyed_draws(work, 1 + first_draws), work)

    def _reach(self, i: int) -> None:
        """Build the second stage after first-stage branch ``i`` when a trial first reaches it."""
        if i in self._unbuilt:
            self._second.set_row(i, self._child(i)[0])
            self._second_draws |= bool(self._second.draws[i])
            self._unbuilt.discard(i)

    def label_counts(self, leaves: np.ndarray) -> dict:
        """Histogram over the four Bell labels of a leaf histogram."""
        totals = np.bincount(self.labels.ravel(), leaves.ravel(), len(_LABELS))
        return {label: int(total) for label, total in zip(_LABELS, totals)}

    def reached(self, leaves: np.ndarray):
        """Yield (leaf, label, post-state) of every two-stage leaf a trial reached; each reached row is rebuilt once."""
        for i in np.flatnonzero(leaves.any(axis=1)).tolist():
            post_of = self._child(i)[1]
            for j in np.flatnonzero(leaves[i]).tolist():
                yield (i, j), _LABELS[self.labels[i, j]], _wrap(2, post_of(j))


def measure_local_pauli(s: StateVector, qubit: int, axis: str, rng: RngStream):
    """Projective measurement of sigma_axis on one qubit.

    Returns (outcome +-1, post-measurement state). The outcome is sampled
    with its Born probability and the state is projected and renormalized.
    """
    if qubit < 0 or qubit >= s.n_qubits:
        raise ValueError("target index out of range")
    if axis not in BASIS_CHANGE:
        raise ValueError(f"unknown axis {axis!r}")
    u = BASIS_CHANGE[axis]
    amps = s.amplitudes
    if axis != "z":
        amps = _apply_matrix(amps, s.n_qubits, u, [qubit])
    weights, post_of = _z_branches(amps, qubit)
    bit = _choose_outcome(weights, rng)
    amps = post_of(bit)
    if axis != "z":
        amps = _apply_matrix(amps, s.n_qubits, u.conj().T, [qubit])
    return 1 - 2 * bit, _wrap(s.n_qubits, amps)


# A nonlocal measurement's wire plan on [A_sys, B_sys, A_meter, B_meter], as (step, party, op, qubits)
# rows: a |Phi+> meter qubit to each party, then each party's CNOT from its system onto its meter qubit.
# The kernels' map is built from the CNOT rows and traces render every row, for the LOCC audit to check.
NONLOCAL_WIRES = (
    ("distribute-ebit", ALICE, "ebit", (2,)),
    ("distribute-ebit", BOB, "ebit", (3,)),
    ("local-cnot", ALICE, "gate:CNOT", (0, 2)),
    ("local-cnot", BOB, "gate:CNOT", (1, 3)),
)


def _coupled_injection(wires=NONLOCAL_WIRES) -> np.ndarray:
    """16x4 map: system amplitudes -> joint state with a |Phi+> meter after the ``gate:CNOT`` rows of ``wires``."""
    phi = bell_state(BellLabel.PHI_PLUS).amplitudes
    columns = np.empty((16, 4), dtype=complex)
    for k, joint in enumerate(np.kron(np.eye(4), phi)):
        for _, _, op, qubits in wires:
            if op == "gate:CNOT":
                joint = _apply_matrix(joint, 4, CNOT, qubits)
        columns[:, k] = joint
    columns.setflags(write=False)
    return columns

_INJECT_PHI_PLUS = _coupled_injection()

_COMPUTATIONAL_COLUMNS = np.eye(4, dtype=complex)
_COMPUTATIONAL_COLUMNS.setflags(write=False)


# kron(u_i, u_j) and its inverse for every S_ij but S_zz, which needs no rotation
_ROTATIONS = MappingProxyType({
    (i, j): (u, u.conj().T)
    for i in BASIS_CHANGE for j in BASIS_CHANGE if (i, j) != ("z", "z")
    for u in [np.kron(BASIS_CHANGE[i], BASIS_CHANGE[j])]
})
for _pair in _ROTATIONS.values():
    for _arr in _pair:
        _arr.setflags(write=False)


def _to_zz_basis(amps: np.ndarray, sp: SpinProduct):
    """(kron(u_i, u_j) amps, its inverse): S_ij read as S_zz; no rotation for S_zz."""
    if sp.i == "z" and sp.j == "z":
        return amps, None
    u, back = _ROTATIONS[sp.i, sp.j]
    return u @ amps, back


def local_branches(amps: np.ndarray, sp: SpinProduct):
    """(weights, post_of) of the local S_ij measurement, as :func:`nonlocal_branches`.

    A branch's post-state is the joint eigenvector of the two commuting site
    observables, carrying the input's phase.
    """
    amps, rot_back = _to_zz_basis(amps, sp)

    def post_of(index: int) -> np.ndarray:
        pivot = amps[index]
        eigenvector = _COMPUTATIONAL_COLUMNS[index] if rot_back is None else rot_back[:, index]
        return eigenvector * (pivot / abs(pivot))

    return np.abs(amps) ** 2, post_of


def nonlocal_branches(amps: np.ndarray, sp: SpinProduct):
    """(weights, post_of) of the nonlocal S_ij measurement on 2-qubit amplitudes.

    ``weights`` are the four Born weights, indexed by the readout bits
    2 * bit(z_A) + bit(z_B) (bit 0 for +1); ``post_of(index)`` builds that
    branch's renormalized post-state with the collapsed meter traced out.
    """
    amps, rot_back = _to_zz_basis(amps, sp)
    by_meter = (_INJECT_PHI_PLUS @ amps).reshape(4, 2, 2)
    weights = (np.abs(by_meter) ** 2).sum(axis=0).reshape(-1)

    def post_of(index: int) -> np.ndarray:
        post = by_meter[:, index >> 1, index & 1] / np.sqrt(weights[index])
        return post if rot_back is None else rot_back @ post

    return weights, post_of


def _local_kraus(sp: SpinProduct) -> dict:
    """Rank-1 projectors onto the site observables' joint eigenvectors, keyed (mu, nu)."""
    family = {}
    u_a, u_b = BASIS_CHANGE[sp.i], BASIS_CHANGE[sp.j]
    for mu, col_a in ((+1, 0), (-1, 1)):
        for nu, col_b in ((+1, 0), (-1, 1)):
            vec = np.multiply.outer(u_a.conj().T[:, col_a], u_b.conj().T[:, col_b]).ravel()
            family[(mu, nu)] = np.outer(vec, vec.conj())
    return family


def _nonlocal_kraus(sp: SpinProduct) -> dict:
    """The two eigenspace projectors M_+- = (I +- S_ij)/2, keyed by the product outcome."""
    return {+1: sp.projector_plus, -1: sp.projector_minus}


class Strategy(NamedTuple):
    """A spin-product measurement: sampler and Kraus family, built independently."""

    ebits: int  # |Phi+> meter pairs spent per measurement
    branches: Callable  # (amps, sp) -> (weights, post_of)
    kraus: Callable  # sp -> {outcome: Kraus operator}


STRATEGIES = {
    LOCAL: Strategy(0, local_branches, _local_kraus),
    NONLOCAL: Strategy(1, nonlocal_branches, _nonlocal_kraus),
}


def get_strategy(name: str) -> Strategy:
    """The table entry for ``name``; ``ValueError`` for an unknown strategy."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}") from None


def _branch_record(sp: SpinProduct, strategy: str, index: int) -> MeasurementRecord:
    """The record of a spin-product measurement that took branch ``index``, 2 * bit(z_A) + bit(z_B)."""
    return MeasurementRecord(sp.name, strategy, (1 - 2 * (index >> 1), 1 - 2 * (index & 1)))


def _product_measurement(s: StateVector, sp: SpinProduct, rng: RngStream, strategy: str):
    """Draw one branch of a spin-product measurement and record its readouts."""
    _require_two_qubits(s)
    weights, post_of = STRATEGIES[strategy].branches(s.amplitudes, sp)
    index = _choose_outcome(weights, rng)
    return _branch_record(sp, strategy, index), _wrap(2, post_of(index))


def local_product_measurement(s: StateVector, sp: SpinProduct, rng: RngStream):
    """Measure S_ij by simultaneous local Pauli measurements plus a product.

    The post-state is one of the four joint eigenvectors of the local
    factors, i.e. a product state: eigenspace superpositions do not survive.
    """
    return _product_measurement(s, sp, rng, LOCAL)


def nonlocal_product_measurement(s: StateVector, sp: SpinProduct, rng: RngStream):
    """Measure S_ij with a fresh shared |Phi+> meter pair, preserving the state.

    Register layout during the measurement: [A_sys, B_sys, A_meter,
    B_meter]. Each party applies CNOT(system -> meter) and reads their meter
    out in sigma_z; for axes other than z the system wires are conjugated by
    the single-qubit basis change before and after the block. The collapsed
    meter register is discarded after readout.

    The post-state equals (I + m S_ij)/2 applied to the input, renormalized,
    where m is the product outcome. The meter is always |Phi+>: any other
    Bell state would flip the product outcome, and a non-maximally entangled
    pair would not realize the measurement.
    """
    return _product_measurement(s, sp, rng, NONLOCAL)


def meas_operator_family(strategy: str, sp: SpinProduct) -> dict:
    """Measurement (Kraus) operators of a spin-product measurement, {outcome: matrix}.

    The local strategy has four rank-1 projectors keyed by the site outcome
    pair (mu, nu); the nonlocal strategy has the two eigenspace projectors
    keyed by the product outcome.
    """
    return get_strategy(strategy).kraus(sp)


def povm_family(strategy: str, sp: SpinProduct) -> dict[int, np.ndarray]:
    """POVM {+1: E_+, -1: E_-} of a spin-product measurement, derived from its Kraus family.

    E_m sums M^dag M over the Kraus operators whose outcomes multiply to m.
    Both strategies should give (I +- S_ij)/2; ``bellsim verify`` checks it.
    """
    family = meas_operator_family(strategy, sp)
    return {
        m: sum(op.conj().T @ op for key, op in family.items() if (key[0] * key[1] if isinstance(key, tuple) else key) == m)
        for m in (+1, -1)
    }
