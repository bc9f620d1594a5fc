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

Sampling is Born-rule exact and driven by :class:`RngStream`, a seeded,
splittable stream, so every run is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellcore import BellLabel, SpinProduct, bell_state
from .qstate import (
    ATOL,
    BASIS_CHANGE,
    CNOT,
    StateVector,
    _apply_matrix,
    _wrap,
    fidelity,
)

LOCAL = "local"
NONLOCAL = "nonlocal"

# Branches below this probability are never sampled; the surviving branch is
# taken deterministically (avoids renormalizing a ~null state).
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
    extended by i, which is how per-trial streams are split.
    """

    __slots__ = ("seed", "path", "counter", "_key")

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed) & _MASK64
        self.path = tuple(int(p) & _MASK64 for p in _path)
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
        return RngStream(self.seed, self.path + (index,))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, path={self.path}, counter={self.counter})"


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One POVM outcome: a label and a positive semidefinite matrix."""

    label: object
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise ValueError("POVM element not Hermitian")
        if np.linalg.eigvalsh(m).min() < -ATOL:
            raise ValueError("POVM element not positive semidefinite")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class MeasOperator:
    """One measurement (Kraus) operator; a family satisfies sum M^dag M = I."""

    label: object
    matrix: np.ndarray


@dataclass(frozen=True)
class MeasurementRecord:
    """One spin-product measurement event.

    ``local_outcomes`` are the two +-1 site readouts (meter readouts for the
    nonlocal strategy); ``product_outcome`` is their product.
    """

    observable: str
    strategy: str
    local_outcomes: tuple[int, int]
    product_outcome: int
    ebits_consumed: int

    def __post_init__(self) -> None:
        if self.strategy not in (LOCAL, NONLOCAL):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        z_a, z_b = self.local_outcomes
        if self.product_outcome != z_a * z_b:
            raise ValueError("product outcome inconsistent with local outcomes")
        if self.ebits_consumed != (0 if self.strategy == LOCAL else 1):
            raise ValueError("ebit count inconsistent with strategy")


def _sample_z(amps: np.ndarray, n: int, qubit: int, rng: RngStream):
    """Born-sample a sigma_z readout of ``qubit`` on a flat amplitude array.

    Returns (outcome +-1, collapsed renormalized array, branch probability).
    Deterministic branches (probability within PROB_FLOOR of 0 or 1) consume
    no randomness. Views the array as (pre, 2, post) so no transpose is
    needed.
    """
    view = amps.reshape(1 << qubit, 2, -1)
    branch0 = view[:, 0, :]
    w0 = float(np.vdot(branch0, branch0).real)
    if w0 < PROB_FLOOR:
        bit = 1
    elif w0 > 1.0 - PROB_FLOOR:
        bit = 0
    else:
        bit = 0 if rng.uniform() < w0 else 1
    prob = w0 if bit == 0 else 1.0 - w0
    post = np.zeros_like(amps)
    np.multiply(
        view[:, bit, :],
        1.0 / np.sqrt(prob),
        out=post.reshape(1 << qubit, 2, -1)[:, bit, :],
    )
    return 1 - 2 * bit, post, prob


def _choose_outcome(weights: np.ndarray, rng: RngStream) -> int:
    """Pick an index by its Born weight; branches below PROB_FLOOR are dead.

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
    outcome, amps, _ = _sample_z(amps, s.n_qubits, qubit, rng)
    if axis != "z":
        amps = _apply_matrix(amps, s.n_qubits, u.conj().T, [qubit])
    return outcome, _wrap(s.n_qubits, amps)


def local_product_measurement(s: StateVector, sp: SpinProduct, rng: RngStream):
    """Measure S_ij by simultaneous local Pauli measurements plus a product.

    The post-state is one of the four joint eigenvectors of the local
    factors, i.e. a product state: eigenspace superpositions do not survive.
    """
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit state")
    amps = s.amplitudes
    rotated = sp.i != "z" or sp.j != "z"
    if rotated:
        rot, rot_back = _system_rotation(sp.i, sp.j)
        amps = rot @ amps
    # both site readouts commute: one Born draw over the four joint
    # eigenvectors is the exact sequential measurement
    index = _choose_outcome(np.abs(amps) ** 2, rng)
    z_a, z_b = 1 - 2 * (index >> 1), 1 - 2 * (index & 1)
    pivot = amps[index]
    eigenvector = rot_back[:, index] if rotated else _COMPUTATIONAL_COLUMNS[index]
    post = eigenvector * (pivot / abs(pivot))
    record = MeasurementRecord(
        observable=sp.name,
        strategy=LOCAL,
        local_outcomes=(z_a, z_b),
        product_outcome=z_a * z_b,
        ebits_consumed=0,
    )
    return record, _wrap(2, post)


_DEFAULT_METER: StateVector | None = None


def default_meter() -> StateVector:
    """The canonical |Phi+> meter pair (shared immutable instance)."""
    global _DEFAULT_METER
    if _DEFAULT_METER is None:
        _DEFAULT_METER = bell_state(BellLabel.PHI_PLUS)
    return _DEFAULT_METER


def _embed(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Expand a gate on ``targets`` to the full 2^n x 2^n matrix."""
    dim = 1 << n
    full = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        full[:, col] = _apply_matrix(basis, n, u, targets)
    return full


def _coupled_injection() -> np.ndarray:
    """16x4 map: system amplitudes -> post-CNOT joint state with a |Phi+> meter.

    Both parties' system->meter CNOTs act on the [A_sys, B_sys, A_meter,
    B_meter] register, fused into one matrix (they commute).
    """
    coupling = _embed(CNOT, (1, 3), 4) @ _embed(CNOT, (0, 2), 4)
    phi = default_meter().amplitudes
    columns = np.zeros((16, 4), dtype=complex)
    for k in range(4):
        system = np.zeros(4, dtype=complex)
        system[k] = 1.0
        columns[:, k] = coupling @ np.multiply.outer(system, phi).ravel()
    columns.setflags(write=False)
    return columns

_INJECT_DEFAULT_METER = _coupled_injection()

_COMPUTATIONAL_COLUMNS = np.eye(4, dtype=complex)
_COMPUTATIONAL_COLUMNS.setflags(write=False)

_ROTATIONS: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}


def _system_rotation(i: str, j: str):
    """kron(u_i, u_j) basis change on the system pair, plus its inverse."""
    hit = _ROTATIONS.get((i, j))
    if hit is None:
        u = np.kron(BASIS_CHANGE[i], BASIS_CHANGE[j])
        hit = (u, u.conj().T)
        for arr in hit:
            arr.setflags(write=False)
        _ROTATIONS[(i, j)] = hit
    return hit


def nonlocal_product_measurement(
    s: StateVector,
    sp: SpinProduct,
    rng: RngStream,
    meter: StateVector | None = None,
):
    """Measure S_ij with a shared entangled meter pair, preserving the state.

    Register layout during the measurement: [A_sys, B_sys, A_meter,
    B_meter]. Each party applies CNOT(system -> meter) and reads their meter
    out in sigma_z; for axes other than z the system wires are conjugated by
    the single-qubit basis change before and after the block. The collapsed
    meter register is discarded after readout.

    The post-state equals (I + m S_ij)/2 applied to the input, renormalized,
    where m is the product outcome. The meter must be |Phi+> up to global
    phase: any other Bell state would flip the product outcome, and a
    non-maximally entangled pair would not realize the measurement.
    """
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit state")
    if meter is not None and meter is not default_meter() and not (
        meter.n_qubits == 2 and fidelity(meter, default_meter()) >= 1.0 - ATOL
    ):
        raise ValueError("bad meter resource")

    amps = s.amplitudes
    rotated = sp.i != "z" or sp.j != "z"
    if rotated:
        rot, rot_back = _system_rotation(sp.i, sp.j)
        amps = rot @ amps

    joint = _INJECT_DEFAULT_METER @ amps

    # Both meter readouts commute: draw the (z_A, z_B) pair jointly, then
    # project and trace the collapsed meter out in one slice.
    by_meter = joint.reshape(4, 2, 2)
    weights = (np.abs(by_meter) ** 2).sum(axis=0).reshape(-1)
    index = _choose_outcome(weights, rng)
    bit_a, bit_b = index >> 1, index & 1
    z_a, z_b = 1 - 2 * bit_a, 1 - 2 * bit_b
    post = by_meter[:, bit_a, bit_b] / np.sqrt(weights[index])

    if rotated:
        post = rot_back @ post

    record = MeasurementRecord(
        observable=sp.name,
        strategy=NONLOCAL,
        local_outcomes=(z_a, z_b),
        product_outcome=z_a * z_b,
        ebits_consumed=1,
    )
    return record, _wrap(2, post)


def povm_family(strategy: str, sp: SpinProduct) -> list[PovmElement]:
    """POVM {E_+, E_-} of a spin-product measurement.

    Identical for both strategies: E_+- = (I +- S_ij)/2, the projectors onto
    the +-1 eigenspaces.
    """
    if strategy not in (LOCAL, NONLOCAL):
        raise ValueError(f"unknown strategy {strategy!r}")
    return [
        PovmElement(+1, sp.projector_plus),
        PovmElement(-1, sp.projector_minus),
    ]


def meas_operator_family(strategy: str, sp: SpinProduct) -> list[MeasOperator]:
    """Measurement (Kraus) operators of a spin-product measurement.

    The local strategy has four rank-1 projectors onto the joint eigenstates
    of the site observables, labelled by the outcome pair (mu, nu); the
    nonlocal strategy has the two eigenspace projectors M_+- = (I +- S_ij)/2.
    """
    if strategy == NONLOCAL:
        return [
            MeasOperator(+1, sp.projector_plus),
            MeasOperator(-1, sp.projector_minus),
        ]
    if strategy == LOCAL:
        family = []
        u_a, u_b = BASIS_CHANGE[sp.i], BASIS_CHANGE[sp.j]
        for mu, col_a in ((+1, 0), (-1, 1)):
            for nu, col_b in ((+1, 0), (-1, 1)):
                vec = np.kron(u_a.conj().T[:, col_a], u_b.conj().T[:, col_b])
                family.append(MeasOperator((mu, nu), np.outer(vec, vec.conj())))
        return family
    raise ValueError(f"unknown strategy {strategy!r}")


def outcome_probability(s: StateVector, e: PovmElement) -> float:
    """Born probability <s|E|s>, clamped to [0, 1]."""
    if e.matrix.shape[0] != s.dim:
        raise ValueError("dimension mismatch")
    p = np.vdot(s.amplitudes, e.matrix @ s.amplitudes).real
    return min(1.0, max(0.0, float(p)))
