"""Dense complex state-vector core: registers, gates, projectors, overlaps.

Qubit ordering convention used across the package: qubit 0 is the leftmost
tensor factor, i.e. the most significant bit of the amplitude index. At equal
register depth Alice's wire precedes Bob's. The computational labels follow
the spin shorthand |+> = |0> (sigma_z eigenvalue +1) and |-> = |1>
(eigenvalue -1).

All values are immutable after construction and every operation is a pure
function, so states are safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerance for norm / unitarity / hermiticity checks. Circuits here are a
# handful of gates on <= 12 qubits; double precision leaves huge headroom.
ATOL = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
# Control is the first wire, target the second.
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# Single-qubit basis change u with u^dag sigma_z u = sigma_axis. Measuring
# sigma_axis is: apply u, read out sigma_z, apply u^dag.
BASIS_CHANGE = {
    "z": ID2,
    "x": HADAMARD,
    "y": HADAMARD @ PHASE_S.conj().T,
}

for _const in (ID2, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, PHASE_S, CNOT, *BASIS_CHANGE.values()):
    _const.setflags(write=False)


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=ATOL)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over ``n_qubits`` qubits.

    ``amplitudes`` has length ``2**n_qubits`` and unit norm (within 1e-12);
    constructors other than :func:`make_state` reject non-normalized input.
    ``renormalized`` records whether :func:`make_state` had to rescale.
    """

    n_qubits: int
    amplitudes: np.ndarray
    renormalized: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != 1 << self.n_qubits:
            raise ValueError("bad dimension")
        # negated so that a NaN norm fails too
        if not abs(np.vdot(amps, amps).real - 1.0) <= ATOL:
            raise ValueError("state not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(n_qubits={self.n_qubits}, amplitudes={self.amplitudes!r})"


def _require_two_qubits(s: StateVector) -> None:
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit state")


def _wrap(n_qubits: int, amplitudes: np.ndarray) -> StateVector:
    """Trusted constructor for kernel outputs that are normalized by design.

    Skips the validation pass; only for internal use on freshly allocated
    arrays coming out of the measurement/gate kernels.
    """
    amplitudes.setflags(write=False)
    sv = object.__new__(StateVector)
    object.__setattr__(sv, "n_qubits", n_qubits)
    object.__setattr__(sv, "amplitudes", amplitudes)
    object.__setattr__(sv, "renormalized", False)
    return sv


def make_state(amplitudes) -> StateVector:
    """Build a state from raw amplitudes, normalizing if necessary.

    The one constructor that accepts non-normalized input (convenient at the
    CLI boundary); the result records whether renormalization occurred.
    Finite amplitudes of any scale are accepted, also when their norm
    overflows or falls below ``ATOL``. Raises ``ValueError("null state")``
    for a zero vector, ``ValueError("norm is not finite")`` for NaN or
    infinite amplitudes and ``ValueError("bad dimension")`` when the length
    is not a power of two.
    """
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    n = amps.size
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("bad dimension")
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        norm = float(np.linalg.norm(amps))
    renormalized = abs(norm - 1.0) > ATOL
    if not ATOL <= norm < np.inf and np.isfinite(amps).all():
        # extreme scale: divide the real and imaginary parts by the largest
        # of them first (the largest modulus can overflow, and a complex
        # division by a subnormal overflows); only inputs rejected otherwise
        # take this path, so ordinary specs keep their bits
        parts = amps.view(float)
        scale = np.abs(parts).max()
        if scale > 0:
            amps = (parts / scale).view(complex)
            norm = float(np.linalg.norm(amps))
    if not np.isfinite(norm):
        raise ValueError("norm is not finite")
    if norm < ATOL:
        raise ValueError("null state")
    # always divide: the amplitudes are the input over its norm, bit for bit,
    # also when the norm is within ATOL of 1 and the flag stays False
    return StateVector(n.bit_length() - 1, amps / norm, renormalized=renormalized)


def computational_state(bits) -> StateVector:
    """Basis state for a bit pattern, e.g. '01' or (0, 1) -> |+->."""
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[index] = 1.0
    return StateVector(len(bits), amps)


def bit_of(basis_index: int, qubit: int, n_qubits: int) -> int:
    """Extract the bit of ``qubit`` from an amplitude index (qubit 0 = MSB)."""
    return (basis_index >> (n_qubits - 1 - qubit)) & 1


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; ``a``'s qubits precede ``b``'s in the ordering."""
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).ravel()
    return StateVector(a.n_qubits + b.n_qubits, amps)


def _axis_orders(n: int, targets: tuple[int, ...]):
    """Permutations moving ``targets`` to the front and back again."""
    perm = list(targets) + [i for i in range(n) if i not in targets]
    inv = [0] * n
    for position, axis in enumerate(perm):
        inv[axis] = position
    return perm, inv


def _apply_matrix(amps: np.ndarray, n: int, u: np.ndarray, targets) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given target qubits of a flat array.

    No unitarity check: also used for projectors. Returns a fresh array.
    """
    targets = tuple(targets)
    k = len(targets)
    if k == n and targets == tuple(range(n)):
        return u @ amps
    perm, inv = _axis_orders(n, targets)
    psi = amps.reshape((2,) * n).transpose(perm)
    psi = u @ psi.reshape(1 << k, -1)
    return psi.reshape((2,) * n).transpose(inv).reshape(-1)


def apply_unitary(s: StateVector, u: np.ndarray, targets) -> StateVector:
    """Apply a unitary to the listed qubits (order of ``targets`` = wire order).

    Raises ``ValueError`` on a dimension mismatch, a repeated target index or
    a non-unitary matrix.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("repeated target index")
    if any(t < 0 or t >= s.n_qubits for t in targets):
        raise ValueError("target index out of range")
    u = np.asarray(u, dtype=complex)
    if u.shape != (1 << len(targets), 1 << len(targets)):
        raise ValueError("dimension mismatch")
    if not is_unitary(u):
        raise ValueError("non-unitary operator")
    return StateVector(s.n_qubits, _apply_matrix(s.amplitudes, s.n_qubits, u, targets))


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped to [0, 1]. Symmetric in its arguments."""
    overlap = inner(a, b)
    return min(1.0, max(0.0, abs(overlap) ** 2))


def phase_canonical(s: StateVector) -> StateVector:
    """Fix the global phase so the first nonzero amplitude is real positive."""
    amps = s.amplitudes
    # np.abs, not abs(): the scalar modulus can differ from the ufunc's by an ulp
    for k, modulus in enumerate(np.abs(amps).tolist()):
        if modulus > 1e-9:
            pivot = amps[k]
            return StateVector(s.n_qubits, amps * (abs(pivot) / pivot))
    return s  # cannot happen for a normalized state


def states_equal(a: StateVector, b: StateVector, up_to_phase: bool = True) -> bool:
    """Amplitude-wise equality, by default after global-phase canonicalization."""
    if a.n_qubits != b.n_qubits:
        return False
    if up_to_phase:
        a, b = phase_canonical(a), phase_canonical(b)
    # np.allclose(rtol=1e-5, atol=ATOL) on finite input, without its wrapper overhead
    return bool((np.abs(a.amplitudes - b.amplitudes) <= ATOL + 1e-5 * np.abs(b.amplitudes)).all())


def haar_random_states(n_qubits: int, gen: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-uniform pure states via normalized complex Gaussian amplitudes, one per row of a read-only
    ``(count, 2**n_qubits)`` block.

    Row k is, bit for bit, the state that call k of :func:`haar_random_state` draws, and ``gen`` ends at the
    same position. Raises ``ValueError("state not normalized")`` if a norm is off (NaN included).
    """
    dim = 1 << n_qubits
    amps = np.empty((count, dim), dtype=complex)
    # per state, dim normals for the real parts, then dim for the imaginary parts
    amps.view(float).reshape(count, dim, 2).transpose(0, 2, 1)[...] = gen.standard_normal((count, 2, dim))
    for row in amps:
        # the expression np.linalg.norm evaluates for a complex vector, row by row: a batched norm rounds otherwise
        row /= np.sqrt(row.real.dot(row.real) + row.imag.dot(row.imag))
    # StateVector's check, once for the block; negated so that a NaN norm fails too
    if not abs(np.square(amps.view(float)).sum(axis=1) - 1.0).max() <= ATOL:
        raise ValueError("state not normalized")
    amps.setflags(write=False)
    return amps


def haar_random_state(n_qubits: int, gen: np.random.Generator) -> StateVector:
    """Haar-uniform pure state via normalized complex Gaussian amplitudes: the one row of :func:`haar_random_states`.

    The state owns its amplitudes: a row view would hold the block and its header for as long as the state.
    """
    return _wrap(n_qubits, haar_random_states(n_qubits, gen, 1)[0].copy())
