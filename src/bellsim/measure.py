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

from dataclasses import dataclass
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


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64 bits."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


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
        return (_mix64(self._key + self.counter * _GOLDEN) >> 11) * 1.1102230246251565e-16

    def substream(self, index: int) -> "RngStream":
        if not 0 <= index <= _MASK64:
            raise ValueError("substream index must be in [0, 2**64)")
        return RngStream(self.seed, self.path + (index,))

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
    """(w0, post_of) of a sigma_z readout of ``qubit`` on a flat amplitude array.

    w0 is the Born weight of readout +1; post_of(bit) is the collapsed,
    renormalized array (bit 0 for +1). Views the array as (pre, 2, post).
    """
    view = amps.reshape(1 << qubit, 2, -1)
    branch0 = view[:, 0, :]
    w0 = float(np.vdot(branch0, branch0).real)

    def post_of(bit: int) -> np.ndarray:
        post = np.zeros_like(amps)
        np.multiply(
            view[:, bit, :],
            1.0 / np.sqrt(w0 if bit == 0 else 1.0 - w0),
            out=post.reshape(1 << qubit, 2, -1)[:, bit, :],
        )
        return post

    return w0, post_of


def _choose_bit(w0: float, rng: RngStream) -> int:
    """:func:`_choose_outcome` on (w0, 1 - w0): w0 + fl(1 - w0) == 1, so u < w0."""
    if w0 <= PROB_FLOOR:
        return 1
    if 1.0 - w0 <= PROB_FLOOR:
        return 0
    return 0 if rng.uniform() < w0 else 1


def _choose_outcome(weights: np.ndarray, rng: RngStream) -> int:
    """Pick an index by its Born weight; branches at or below PROB_FLOOR are dead.

    A single surviving branch is taken without consuming randomness, and a
    draw that lands on a dead sliver is redirected to the heaviest branch
    (never a ~null state).
    """
    alive = weights > PROB_FLOOR
    n_alive = int(np.count_nonzero(alive))
    if n_alive <= 1:
        return int(np.argmax(weights))
    cdf = np.cumsum(weights)
    index = int(np.searchsorted(cdf, rng.uniform() * cdf[-1], side="right"))
    if weights[index] <= PROB_FLOOR:
        index = int(np.argmax(weights))
    return index


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
    w0, post_of = _z_branches(amps, qubit)
    bit = _choose_bit(w0, rng)
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

_ROTATIONS: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}


def _to_zz_basis(amps: np.ndarray, sp: SpinProduct):
    """(kron(u_i, u_j) amps, its inverse): S_ij read as S_zz; no rotation for S_zz."""
    if sp.i == "z" and sp.j == "z":
        return amps, None
    hit = _ROTATIONS.get((sp.i, sp.j))
    if hit is None:
        u = np.kron(BASIS_CHANGE[sp.i], BASIS_CHANGE[sp.j])
        hit = (u, u.conj().T)
        for arr in hit:
            arr.setflags(write=False)
        _ROTATIONS[(sp.i, sp.j)] = hit
    return hit[0] @ amps, hit[1]


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
