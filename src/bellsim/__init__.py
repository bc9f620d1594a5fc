"""Simulator for complete, deterministic Bell state measurement protocols.

Builds Bell measurement out of nonlocal spin-product measurements backed by
shared entanglement, including the state-preserving Bell filter and a
qubit-level model of the linear-optics realization.
"""

from .bellcore import (
    BellCoefficients,
    BellLabel,
    SpinProduct,
    bell_state,
    classify,
    commutator,
    from_bell,
    outcome_pair,
    spin_product,
    to_bell,
)
from .measure import (
    MeasurementRecord,
    RngStream,
    local_product_measurement,
    meas_operator_family,
    measure_local_pauli,
    nonlocal_product_measurement,
    povm_family,
)
from .photonic import build_photonic_run, detect, photonic_label
from .protocols import (
    AuditReport,
    ClassicalMessage,
    Party,
    ProtocolResult,
    ResourceLedger,
    TraceEvent,
    analytic_label_distribution,
    locc_audit,
    outcome_distribution,
    run_fig1,
    run_scheme_a,
    run_scheme_b,
    trace_to_jsonl,
)
from .qstate import (
    StateVector,
    apply_unitary,
    computational_state,
    fidelity,
    haar_random_state,
    make_state,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BellCoefficients",
    "BellLabel",
    "ClassicalMessage",
    "MeasurementRecord",
    "Party",
    "ProtocolResult",
    "ResourceLedger",
    "RngStream",
    "SpinProduct",
    "StateVector",
    "TraceEvent",
    "analytic_label_distribution",
    "apply_unitary",
    "bell_state",
    "build_photonic_run",
    "classify",
    "commutator",
    "computational_state",
    "detect",
    "fidelity",
    "from_bell",
    "haar_random_state",
    "local_product_measurement",
    "locc_audit",
    "make_state",
    "meas_operator_family",
    "measure_local_pauli",
    "nonlocal_product_measurement",
    "outcome_distribution",
    "outcome_pair",
    "photonic_label",
    "povm_family",
    "run_fig1",
    "run_scheme_a",
    "run_scheme_b",
    "spin_product",
    "tensor",
    "to_bell",
    "trace_to_jsonl",
]
