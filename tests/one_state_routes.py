"""Each analytic route on one state, as written before the routes took a stack of states.

These are the references of the stacked routes: a route's row k must equal
its reference on state k, bit for bit. The photonic reference builds its
register gate by gate, the circuit that ``test_photonic.py`` replays the
gather plan against.
"""
import numpy as np

from bellsim import photonic, protocols
from bellsim.bellcore import BellLabel, bell_state
from bellsim.photonic import REGISTER_A, REGISTER_B
from bellsim.qstate import CNOT, HADAMARD, _apply_matrix, computational_state, tensor


def gate_by_gate(s, block_order=(REGISTER_A, REGISTER_B)):
    """Reference build: the register pushed through each photon's gate list, one gate at a time."""
    amps = tensor(tensor(s, bell_state(BellLabel.PHI_PLUS)), computational_state("00")).amplitudes
    for reg in block_order:
        amps = _apply_matrix(amps, 6, CNOT, (reg.polarization, reg.path_z))  # PBS(Z)
        amps = _apply_matrix(amps, 6, HADAMARD, (reg.polarization,))  # HWP
        amps = _apply_matrix(amps, 6, CNOT, (reg.polarization, reg.path_x))  # PBS(X)
    return amps


def fig1(s):
    return np.bincount(protocols._FIG1_LABELS.ravel(), np.abs(protocols._FIG1_UNITARY @ s.amplitudes) ** 2, 4)


def scheme_a(s):
    return np.array([np.vdot(s.amplitudes, row).real for row in protocols._SCHEME_A_POVM @ s.amplitudes])


def scheme_b(s):
    return np.array([float(np.linalg.norm(op @ s.amplitudes) ** 2) for op in protocols._SCHEME_B_OPS])


def photonic_route(s):
    return np.bincount(photonic._LABEL_INDEX, np.abs(gate_by_gate(s)) ** 2, 4)


ONE_STATE = {"fig1": fig1, "scheme_a": scheme_a, "scheme_b": scheme_b, "photonic": photonic_route}
