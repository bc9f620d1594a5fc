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
from .qstate import CNOT, HADAMARD, StateVector, _apply_matrix, bit_of, computational_state, tensor

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


def _optical_block(amps: np.ndarray, reg: PhotonRegister) -> np.ndarray:
    """PBS(Z), HWP, PBS(X) on one photon's qubits of the register amplitudes."""
    amps = _apply_matrix(amps, N_QUBITS, CNOT, (reg.polarization, reg.path_z))
    amps = _apply_matrix(amps, N_QUBITS, HADAMARD, (reg.polarization,))
    return _apply_matrix(amps, N_QUBITS, CNOT, (reg.polarization, reg.path_x))


def build_photonic_run(s: StateVector, block_order=(REGISTER_A, REGISTER_B)) -> StateVector:
    """Assemble the 6-qubit register and push it through both optical blocks.

    ``s`` is the 2-qubit polarization state. The two per-photon blocks act
    on disjoint qubits, so ``block_order`` has no physical effect; it exists
    to let tests demonstrate exactly that.
    """
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit polarization state")
    amps = tensor(tensor(s, bell_state(BellLabel.PHI_PLUS)), computational_state("00")).amplitudes
    for reg in block_order:
        amps = _optical_block(amps, reg)
    return StateVector(N_QUBITS, amps)


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


def _port_table(reg: PhotonRegister) -> np.ndarray:
    """Register basis index -> the output port of ``reg``'s photon that fires."""
    return np.array([
        (bit_of(index, reg.path_z, N_QUBITS) << 1) | bit_of(index, reg.path_x, N_QUBITS)
        for index in range(1 << N_QUBITS)
    ])


# np.bincount over these tables sums in index order, as a loop would
_PORTS_A = _port_table(REGISTER_A)
_PORTS_B = _port_table(REGISTER_B)
# register basis index -> its detection event (immutable, so shared)
_EVENTS = tuple(
    (DetectorIndex("A", int(a)), DetectorIndex("B", int(b))) for a, b in zip(_PORTS_A, _PORTS_B)
)
# register basis index -> index of the Bell label its port pair names
_LABEL_INDEX = np.array([photonic_label(event).index for event in _EVENTS])


def port_probabilities(final: StateVector, photon: str) -> np.ndarray:
    """Marginal probability of each of one photon's four output ports."""
    table = {"A": _PORTS_A, "B": _PORTS_B}.get(photon)
    if table is None:
        raise ValueError("photon must be 'A' or 'B'")
    return np.bincount(table, np.abs(final.amplitudes) ** 2, 4)


def label_distribution(s: StateVector) -> np.ndarray:
    """Analytic label probabilities (order Phi+, Phi-, Psi+, Psi-).

    Computed from the joint path-readout marginals of the assembled optical
    state, independently of the abstract protocol route.
    """
    final = build_photonic_run(s)
    return np.bincount(_LABEL_INDEX, np.abs(final.amplitudes) ** 2, 4)
