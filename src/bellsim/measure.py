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
splittable stream, so every run is reproducible.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .bellcore import BellLabel, SpinProduct, bell_state
from .qstate import (
    BASIS_CHANGE,
    CNOT,
    StateVector,
    _apply_matrix,
    _wrap,
)

LOCAL = "local"
NONLOCAL = "nonlocal"

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


_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)  # _mix64's multipliers


def _mix64_array(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`_mix64` in place on a ``uint64`` array (array arithmetic wraps without warning).

    ``scratch``, like ``x``, takes each shifted word; without it one is allocated.
    """
    if scratch is None:
        scratch = np.empty_like(x)
    np.right_shift(x, 30, out=scratch)
    x ^= scratch
    x *= _MIX_A
    np.right_shift(x, 27, out=scratch)
    x ^= scratch
    x *= _MIX_B
    np.right_shift(x, 31, out=scratch)
    x ^= scratch
    return x


def _keyed_draws(keys: np.ndarray, counter: int, word: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`keyed_uniforms` written into ``word`` and returned as its ``float64`` view."""
    np.add(keys, np.uint64(counter * _GOLDEN & _MASK64), out=word)
    _mix64_array(word, scratch)
    word >>= 11
    u = word.view(np.float64)
    np.copyto(u, word)  # elementwise in place: each 53-bit word converts exactly
    u *= _DRAW_SCALE
    return u


def keyed_uniforms(keys: np.ndarray, counter: int) -> np.ndarray:
    """Draw ``counter`` (1-based) of the streams with these keys, as ``uniform()`` makes it."""
    return _keyed_draws(keys, counter, np.empty_like(keys), np.empty_like(keys))


class RngStream:
    """Deterministic, counter-based random stream.

    Draw i of a stream is a pure function of (seed, path, i) -- the
    splitmix64 sequence keyed by the stream -- so the same seed and draw
    history always reproduce the same outcomes, independent of platform and
    scheduling. ``substream(i)`` derives the independent stream with path
    extended by i, how per-trial streams split; seed and i lie in [0, 2**64).
    """

    __slots__ = ("seed", "path", "counter", "_key")

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be in [0, 2**64)")
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        self.counter = 0
        key = _mix64(self.seed)
        for p in self.path:
            key = _mix64(key + ((p + 1) * _GOLDEN & _MASK64))
        self._key = key

    def uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the event counter."""
        self.counter += 1
        return (_mix64(self._key + self.counter * _GOLDEN) >> 11) * _DRAW_SCALE

    def substream(self, index: int) -> "RngStream":
        if not 0 <= index <= _MASK64:
            raise ValueError("substream index must be in [0, 2**64)")
        return RngStream(self.seed, self.path + (index,))

    def substream_keys(self, start: int, stop: int) -> np.ndarray:
        """Keys of ``substream(i)`` for i in [start, stop), a ``uint64`` array for :func:`keyed_uniforms`."""
        keys = np.empty(stop - start, np.uint64)
        return self._keys_into(start, keys, np.empty_like(keys))

    def _keys_into(self, start: int, keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """:meth:`substream_keys` from ``start``, as many as ``keys`` holds, written into it."""
        np.multiply(np.arange(start + 1, start + 1 + keys.size, dtype=np.uint64), np.uint64(_GOLDEN), out=keys)
        keys += np.uint64(self._key)
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


def _choose_outcome(weights: np.ndarray, rng: RngStream) -> int:
    """Pick an index by its Born weight; branches at or below PROB_FLOOR are dead.

    A single surviving branch is taken without consuming randomness, and a
    draw that lands on a dead sliver is redirected to the heaviest branch
    (never a ~null state). Pure Python: on a handful of weights numpy's
    per-call cost would be most of the work.
    """
    weights = weights.tolist()
    if len([w for w in weights if w > PROB_FLOOR]) <= 1:
        return weights.index(max(weights))
    cdf = list(accumulate(weights))  # the same sums, in the same order, as np.cumsum
    index = bisect_right(cdf, rng.uniform() * cdf[-1])
    if weights[index] <= PROB_FLOOR:
        index = weights.index(max(weights))
    return index


class FloorRule(NamedTuple):
    """:func:`_choose_outcome` on rows of Born weights, replayed on batches of draws.

    Branch j of row r is leaf r * k + j. The batch picks work in place on
    one-dimensional arrays the caller owns: numpy's broadcasting and
    fancy-indexing machinery allocates more than the arrays themselves.
    """

    draws: np.ndarray  # (rows,) more than one live branch: the row takes a draw
    cdf: np.ndarray  # (rows, k) running sums of the weights
    # (rows * k,) the leaf a pick keeps: itself, or its row's argmax when it is dead
    # (at or below PROB_FLOOR, or any pick of a drawless row)
    kept: np.ndarray

    @classmethod
    def empty(cls, rows: int, k: int) -> "FloorRule":
        """Rows that take branch 0 without a draw until :meth:`set_row` fills them."""
        return cls(np.zeros(rows, bool), np.ones((rows, k)), np.arange(rows * k) // k * k)

    def set_row(self, row: int, weights: np.ndarray) -> None:
        dead = weights <= PROB_FLOOR
        self.draws[row] = np.count_nonzero(~dead) > 1
        self.cdf[row] = weights.cumsum()
        k = weights.size
        kept = np.where(dead | ~self.draws[row], weights.argmax(), np.arange(k))
        self.kept[row * k:row * k + k] = row * k + kept

    def pick(self, rows, u: np.ndarray) -> np.ndarray:
        """The branch of row ``rows[k]`` that uniform ``u[k]`` selects; an int ``rows`` is one row for all."""
        u, scratch = np.array(u, float), np.empty(len(u), np.uint64)
        if isinstance(rows, int):
            leaf = self.leaves_in_row(rows, u, scratch)
        else:
            leaf = self.leaves_by_row(np.array(rows, np.intp), u, scratch, np.empty((2, u.size), np.uint8))
        return leaf % self.cdf.shape[1]

    def leaves_in_row(self, row: int, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """A new array of the leaves that draws ``u`` (scaled in place) select in one row."""
        cdf = self.cdf[row]
        u *= cdf[-1]
        leaf = cdf.searchsorted(u, side="right")
        if row:
            leaf += row * cdf.size
        return self.keep(leaf, scratch)

    def leaves_by_row(self, leaf: np.ndarray, u: np.ndarray, scratch: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """In place: each row in ``leaf`` becomes the leaf its draw in ``u`` (scaled in place) selects.

        ``scratch`` (``uint64``) and ``flags`` (``uint8``, two rows) are work buffers of u's size.
        """
        k = self.cdf.shape[1]
        x, (count, below), below_mask = scratch.view(np.float64), flags, flags[1].view(bool)
        leaf *= k
        flat = self.cdf.reshape(-1)  # running sum j of row r at leaf r * k + j
        # mode "clip" never clips here (the leaves are in range); mode "raise" would buffer the result
        flat[k - 1:].take(leaf, out=x, mode="clip")
        u *= x
        count.fill(0)
        # searchsorted(side="right") counts the running sums at or below the draw;
        # the last, the total, is above every u * total (u < 1, so the product rounds below it)
        for j in range(k - 1):
            flat[j:].take(leaf, out=x, mode="clip")
            np.less_equal(x, u, out=below_mask)
            count += below
        counted = scratch.view(np.intp)
        np.copyto(counted, count)
        leaf += counted
        return self.keep(leaf, scratch)

    def keep(self, leaf: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """In place: each picked leaf becomes the leaf the floor rule keeps."""
        kept = scratch.view(np.intp)
        self.kept.take(leaf, out=kept, mode="clip")
        np.copyto(leaf, kept)
        return leaf


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


def _coupled_injection() -> np.ndarray:
    """16x4 map: system amplitudes -> post-CNOT joint state with a |Phi+> meter.

    Both parties' system->meter CNOTs act on the [A_sys, B_sys, A_meter,
    B_meter] register, applied to each system basis state (they commute).
    """
    phi = bell_state(BellLabel.PHI_PLUS).amplitudes
    columns = np.empty((16, 4), dtype=complex)
    for k, joint in enumerate(np.kron(np.eye(4), phi)):
        for targets in ((0, 2), (1, 3)):
            joint = _apply_matrix(joint, 4, CNOT, targets)
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
            vec = np.kron(u_a.conj().T[:, col_a], u_b.conj().T[:, col_b])
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


def _product_measurement(s: StateVector, sp: SpinProduct, rng: RngStream, strategy: str):
    """Draw one branch of a spin-product measurement and record its readouts."""
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit state")
    weights, post_of = STRATEGIES[strategy].branches(s.amplitudes, sp)
    index = _choose_outcome(weights, rng)
    readouts = (1 - 2 * (index >> 1), 1 - 2 * (index & 1))
    return MeasurementRecord(sp.name, strategy, readouts), _wrap(2, post_of(index))


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
        m: sum(op.conj().T @ op for key, op in family.items() if np.prod(key) == m)
        for m in (+1, -1)
    }
