"""Bell bases, Bell-coefficient expansion and nonlocal spin-product operators.

The four Bell states are

    |Phi+-> = (|++> +- |-->)/sqrt(2)      |Psi+-> = (|+-> +- |-+>)/sqrt(2)

with |+> = |0>, |-> = |1>. A spin product S_ij = sigma_i (x) sigma_j acts
jointly on Alice's and Bob's qubits; its eigenvalues +1 and -1 are each
doubly degenerate. The Bell states are the common eigenbasis of S_zz and
S_xx, which commute, and the outcome pair (m, n) of those two observables
identifies a Bell state uniquely (see :func:`classify`).

Eigenspaces are exposed through the rank-2 projectors (I +- S_ij)/2 rather
than any particular eigenvector pair, since the choice of basis inside each
degenerate eigenspace is free.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .qstate import ATOL, PAULIS, StateVector, _require_two_qubits

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class BellLabel(Enum):
    """The four Bell states, in coefficient order c1..c4."""

    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"

    @property
    def index(self) -> int:
        """Position in the coefficient expansion: 0 for c1 ... 3 for c4."""
        return _LABEL_INDEX[self]


_LABELS = tuple(BellLabel)  # in index order
_LABEL_INDEX = {label: k for k, label in enumerate(_LABELS)}

# the four Bell states, built once at import (immutable, so shared)
_BELL_STATES = MappingProxyType({
    BellLabel.PHI_PLUS: StateVector(2, np.array([1, 0, 0, 1], dtype=complex) * _SQRT2_INV),
    BellLabel.PHI_MINUS: StateVector(2, np.array([1, 0, 0, -1], dtype=complex) * _SQRT2_INV),
    BellLabel.PSI_PLUS: StateVector(2, np.array([0, 1, 1, 0], dtype=complex) * _SQRT2_INV),
    BellLabel.PSI_MINUS: StateVector(2, np.array([0, 1, -1, 0], dtype=complex) * _SQRT2_INV),
})

# (m, n) = (S_zz outcome, S_xx outcome) <-> Bell label, a bijection.
_CLASSIFY = {
    (+1, +1): BellLabel.PHI_PLUS,
    (+1, -1): BellLabel.PHI_MINUS,
    (-1, +1): BellLabel.PSI_PLUS,
    (-1, -1): BellLabel.PSI_MINUS,
}
_OUTCOME_PAIR = {label: pair for pair, label in _CLASSIFY.items()}


def bell_state(label: BellLabel) -> StateVector:
    """The Bell state for ``label``, first nonzero amplitude real positive."""
    return _BELL_STATES[label]


@dataclass(frozen=True)
class BellCoefficients:
    """Amplitudes (c1..c4) of a two-qubit state in the Bell basis."""

    c1: complex
    c2: complex
    c3: complex
    c4: complex

    def __post_init__(self) -> None:
        # negated so that a NaN norm fails too
        if not abs(sum(abs(c) ** 2 for c in self.as_tuple()) - 1.0) <= ATOL:
            raise ValueError("non-normalized input")

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.c1, self.c2, self.c3, self.c4)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=complex)

    def probabilities(self) -> np.ndarray:
        """Born probabilities (|c1|^2, ..., |c4|^2) of the four Bell outcomes."""
        return np.abs(self.as_array()) ** 2


def to_bell(s: StateVector) -> BellCoefficients:
    """Expand a 2-qubit state in the Bell basis."""
    _require_two_qubits(s)
    return BellCoefficients(*(complex(np.vdot(bell.amplitudes, s.amplitudes)) for bell in _BELL_STATES.values()))


def from_bell(c: BellCoefficients) -> StateVector:
    """Reassemble the state c1|Phi+> + c2|Phi-> + c3|Psi+> + c4|Psi->."""
    amps = sum(
        coeff * _BELL_STATES[label].amplitudes
        for coeff, label in zip(c.as_tuple(), BellLabel)
    )
    return StateVector(2, amps)


@dataclass(frozen=True, eq=False)
class SpinProduct:
    """A nonlocal spin product sigma_i (x) sigma_j with its eigenprojectors.

    ``projector_plus``/``projector_minus`` are the rank-2 projectors onto the
    +1 / -1 eigenspaces, computed as (I +- matrix)/2 and cached read-only.
    """

    i: str
    j: str
    matrix: np.ndarray
    projector_plus: np.ndarray
    projector_minus: np.ndarray

    @property
    def name(self) -> str:
        return f"S_{self.i}{self.j}"

    def projector(self, outcome: int) -> np.ndarray:
        if outcome == +1:
            return self.projector_plus
        if outcome == -1:
            return self.projector_minus
        raise ValueError("outcome must be +1 or -1")


def _spin_product(i: str, j: str) -> SpinProduct:
    matrix = np.kron(PAULIS[i], PAULIS[j])
    eye = np.eye(4, dtype=complex)
    arrays = (matrix, (eye + matrix) / 2, (eye - matrix) / 2)  # S_ij and its two eigenprojectors
    for arr in arrays:
        arr.setflags(write=False)
    return SpinProduct(i, j, *arrays)


# the nine spin products, built once at import
_SPIN_PRODUCTS = MappingProxyType({(i, j): _spin_product(i, j) for i in PAULIS for j in PAULIS})


def spin_product(i: str, j: str) -> SpinProduct:
    """The spin product S_ij for axes i, j in {'x', 'y', 'z'}."""
    try:
        return _SPIN_PRODUCTS[i, j]
    except KeyError:
        raise ValueError(f"unknown axis pair ({i!r}, {j!r})") from None


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba for equal-dimension square matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dimension mismatch")
    return a @ b - b @ a


def classify(m: int, n: int) -> BellLabel:
    """Map the (S_zz, S_xx) outcome pair to the Bell state it identifies."""
    try:
        return _CLASSIFY[(m, n)]
    except KeyError:
        raise ValueError("outcomes must be +1 or -1") from None


def outcome_pair(label: BellLabel) -> tuple[int, int]:
    """Inverse of :func:`classify`."""
    return _OUTCOME_PAIR[label]
