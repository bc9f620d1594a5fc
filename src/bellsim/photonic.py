"""Qubit-level model of the linear-optics Bell measurement proposal.

Each photon carries three logical qubits: its polarization (the system),
a path qubit entangled with the partner photon's path qubit in |Phi+> (the
shared meter), and a second, locally prepared path qubit. The optical
elements act as ideal logic: a polarizing beamsplitter routes by
polarization, i.e. a CNOT from the polarization onto a path qubit, and a
half-wave plate acts as a Hadamard on the polarization.

Per photon the optical block is PBS(Z), HWP, PBS(X):

    CNOT(pol -> path_z), H(pol), CNOT(pol -> path_x)

so the first path qubit records the sigma_z outcome and the second the
sigma_x outcome. Detecting the photon at one of four output ports reads
both path bits at once; the port products across the two photons give the
(m, n) outcome pair, exactly the nonlocal-S_zz + local-S_xx scheme realized
optically. Photon loss, mode mismatch and multi-pair emission are out of
scope: the model is the ideal logical circuit.

Register layout (qubit 0 = leftmost factor):

    0 polarization A   1 polarization B
    2 path_z A         3 path_z B      (shared |Phi+> meter)
    4 path_x A         5 path_x B      (local, start in |+> = |0>)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellcore import BellLabel, bell_state, classify
from .measure import RngStream, _choose_outcome
from .qstate import HADAMARD, StateVector, _axis_orders, _require_two_qubits, bit_of, computational_state

N_QUBITS = 6


@dataclass(frozen=True)
class PhotonRegister:
    """Qubit indices carried by one photon."""

    photon: str
    polarization: int
    path_z: int
    path_x: int


REGISTER_A = PhotonRegister("A", polarization=0, path_z=2, path_x=4)
REGISTER_B = PhotonRegister("B", polarization=1, path_z=3, path_x=5)


@dataclass(frozen=True)
class DetectorIndex:
    """Which of a photon's four output ports fired.

    The port encodes the (z, x) readout bit pair: port = 2*bit(z) + bit(x),
    a bijection between ports and outcome pairs.
    """

    photon: str
    port: int

    def __post_init__(self) -> None:
        if self.photon not in ("A", "B"):
            raise ValueError("photon must be 'A' or 'B'")
        if self.port not in (0, 1, 2, 3):
            raise ValueError("port must be in 0..3")

    @property
    def z_outcome(self) -> int:
        return 1 - 2 * (self.port >> 1)

    @property
    def x_outcome(self) -> int:
        return 1 - 2 * (self.port & 1)


def _cnot_gather(control: int, target: int) -> np.ndarray:
    """CNOT(control -> target) on the register as a gather: ``amps[g]`` is the gate applied."""
    index = np.arange(1 << N_QUBITS)
    return index ^ (((index >> (N_QUBITS - 1 - control)) & 1) << (N_QUBITS - 1 - target))


def _gather_plan(block_order) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three gathers around the Hadamards of the two optical blocks.

    Each Hadamard acts on the register with its polarization moved to the
    front axis, the ``(2, 32)`` layout ``_apply_matrix`` hands to the matmul,
    so it rounds as the gate does. The CNOTs and axis moves between two
    Hadamards only permute amplitudes, so they compose into one index array.
    """
    plan, pending = [], np.arange(1 << N_QUBITS)
    for reg in block_order:
        perm, _ = _axis_orders(N_QUBITS, (reg.polarization,))
        to_front = np.arange(1 << N_QUBITS).reshape((2,) * N_QUBITS).transpose(perm).reshape(-1)
        plan.append(pending[_cnot_gather(reg.polarization, reg.path_z)][to_front])
        pending = np.argsort(to_front)[_cnot_gather(reg.polarization, reg.path_x)]
    plan.append(pending)
    for gather in plan:
        gather.setflags(write=False)
    return tuple(plan)


# block order -> its gather plan, built once (read-only, so shared)
_PLANS = {order: _gather_plan(order) for order in ((REGISTER_A, REGISTER_B), (REGISTER_B, REGISTER_A))}
# the two local path qubits start in |00>
_TAIL = computational_state("00").amplitudes


def build_photonic_run(s: StateVector, block_order=(REGISTER_A, REGISTER_B)) -> StateVector:
    """Assemble the 6-qubit register and push it through both optical blocks.

    ``s`` is the 2-qubit polarization state. The two per-photon blocks act
    on disjoint qubits, so ``block_order`` has no physical effect; it exists
    to let tests demonstrate exactly that.
    """
    _require_two_qubits(s)
    plan = _PLANS.get(tuple(block_order))
    if plan is None:
        raise ValueError("block_order must be a permutation of (REGISTER_A, REGISTER_B)")
    first, middle, last = plan
    meter = bell_state(BellLabel.PHI_PLUS).amplitudes
    amps = np.multiply.outer(np.multiply.outer(s.amplitudes, meter).ravel(), _TAIL).ravel()
    amps = HADAMARD @ amps[first].reshape(2, -1)
    amps = HADAMARD @ amps.reshape(-1)[middle].reshape(2, -1)
    return StateVector(N_QUBITS, amps.reshape(-1)[last])


def detect(final: StateVector, rng: RngStream) -> tuple[DetectorIndex, DetectorIndex]:
    """Sample the detection event: one output port per photon.

    All six readouts are commuting sigma_z measurements, so a single joint
    Born draw over the 64 basis outcomes is exact. The polarization readout
    is absorbed into the detection event (the photon is destroyed) and does
    not appear in the port index.
    """
    if final.n_qubits != N_QUBITS:
        raise ValueError("expected the 6-qubit photonic register")
    return _EVENTS[_choose_outcome(np.abs(final.amplitudes) ** 2, rng)]


def photonic_label(ports: tuple[DetectorIndex, DetectorIndex]) -> BellLabel:
    """Combine the two detection ports into the measured Bell label."""
    a, b = ports
    m = a.z_outcome * b.z_outcome
    n = a.x_outcome * b.x_outcome
    return classify(m, n)


def _port(index: int, reg: PhotonRegister) -> DetectorIndex:
    """The output port of ``reg``'s photon that fires on register basis state ``index``."""
    return DetectorIndex(reg.photon, (bit_of(index, reg.path_z, N_QUBITS) << 1) | bit_of(index, reg.path_x, N_QUBITS))


# register basis index -> its detection event (immutable, so shared)
_EVENTS = tuple((_port(index, REGISTER_A), _port(index, REGISTER_B)) for index in range(1 << N_QUBITS))
# register basis index -> index of the Bell label its port pair names
_LABEL_INDEX = np.array([photonic_label(event).index for event in _EVENTS])


def label_distribution(s: StateVector) -> np.ndarray:
    """Analytic label probabilities (order Phi+, Phi-, Psi+, Psi-).

    Computed from the joint path-readout marginals of the assembled optical
    state, independently of the abstract protocol route.
    """
    final = build_photonic_run(s)
    return np.bincount(_LABEL_INDEX, np.abs(final.amplitudes) ** 2, 4)
