"""Hypothesis strategy for the state helpers' bit-identity tests.

Covers the inputs whose pivot or expansion is easiest to get subtly wrong:
Haar states, Bell and basis states under a global phase, leading-minus specs
and states whose first nonzero amplitude has modulus 1e-9 or one ulp either
side of it (the pivot threshold of ``phase_canonical``).
"""
import numpy as np
from hypothesis import strategies as st

from bellsim.bellcore import BellLabel, bell_state
from bellsim.qstate import StateVector, computational_state, haar_random_state, make_state

PIVOT_EDGES = (np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, 1.0))
PHASES = (1, -1, 1j, -1j, np.exp(0.7j))


@st.composite
def states(draw, n_qubits):
    """A state on ``n_qubits`` qubits of one of the kinds above."""
    dim = 1 << n_qubits
    kind = draw(st.sampled_from(("haar", "bell", "basis", "leading-minus", "pivot-edge")))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    if kind == "haar":
        return haar_random_state(n_qubits, rng)
    phase = draw(st.sampled_from(PHASES))
    if kind == "bell" and n_qubits == 2:
        return StateVector(2, bell_state(draw(st.sampled_from(list(BellLabel)))).amplitudes * phase)
    if kind in ("bell", "basis"):
        basis = computational_state(format(draw(st.integers(0, dim - 1)), f"0{n_qubits}b"))
        return StateVector(n_qubits, basis.amplitudes * phase)
    rest = haar_random_state(n_qubits, rng).amplitudes
    if kind == "leading-minus":
        return make_state(np.concatenate(([-draw(st.floats(1e-6, 1.0))], rest[1:])))
    k = draw(st.integers(0, dim - 2))
    amps = np.zeros(dim, dtype=complex)
    amps[k] = draw(st.sampled_from(PIVOT_EDGES)) * phase
    amps[k + 1:] = rest[k + 1:] / np.linalg.norm(rest[k + 1:])
    return StateVector(n_qubits, amps)


# np.abs puts its modulus one ulp above 1e-9, abs() of the numpy scalar on
# 1e-9 (numpy 2.4, x86-64): a pivot found with the scalar would move
SPLIT_MODULUS = complex(-1.2748076127660413e-10, -9.918410434663095e-10)


def pivot_edge_examples(n_qubits):
    """Each pivot edge at index 0 under each phase, the rest on the next amplitude."""
    out = []
    for first in [edge * phase for edge in PIVOT_EDGES for phase in PHASES] + [SPLIT_MODULUS]:
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0], amps[1] = first, -1.0
        out.append(StateVector(n_qubits, amps))
    return out
