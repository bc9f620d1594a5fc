"""End-to-end Bell measurement protocols over a two-party LOCC engine.

Three physical routes to the same four-outcome Bell POVM:

* ``run_fig1``      -- the textbook circuit: CNOT across the two qubits, then
  a Hadamard on Alice's wire and local readout. Simple, but the CNOT spans
  both parties, so the trace fails the LOCC audit.
* ``run_scheme_a``  -- nonlocal S_zz (one shared ebit) followed by a local
  S_xx; complete and deterministic, LOCC, but the final local measurement
  destroys the Bell superposition (no post-state).
* ``run_scheme_b``  -- nonlocal S_zz then nonlocal S_xx (two ebits); a
  complete Bell filter: the system leaves in the Bell state named by the
  outcome.

Every run produces a :class:`ProtocolResult` with the outcome pair (m, n),
the inferred Bell label, an ebit ledger and, when tracing is enabled, an
ordered event trace (local operations, classical messages, measurements)
that :func:`locc_audit` can check for locality violations.

Classical communication is a symmetric exchange of outcome bits, recorded
as ``send`` events in the trace; each party then computes the product, and
the result records it once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bellcore import BellLabel, classify, spin_product
from .measure import (
    RngStream,
    local_product_measurement,
    measure_local_pauli,
    nonlocal_product_measurement,
)
from .qstate import CNOT, HADAMARD, ID2, StateVector
from . import bellcore, photonic

ALICE = "alice"
BOB = "bob"

# Register wire plan shared by the LOCC schemes: system qubits 0 (Alice) and
# 1 (Bob); meter qubits 2 (Alice) and 3 (Bob), reused per nonlocal stage.
_SYSTEM_A, _SYSTEM_B, _METER_A, _METER_B = 0, 1, 2, 3

_H_ON_A = np.kron(HADAMARD, ID2)


@dataclass(frozen=True)
class Party:
    """One protocol participant and the register indices it may touch."""

    id: str
    owned_qubits: frozenset[int]


_SYSTEM_PARTIES = (
    Party(ALICE, frozenset({_SYSTEM_A})),
    Party(BOB, frozenset({_SYSTEM_B})),
)
_EXTENDED_PARTIES = (
    Party(ALICE, frozenset({_SYSTEM_A, _METER_A})),
    Party(BOB, frozenset({_SYSTEM_B, _METER_B})),
)


@dataclass(frozen=True)
class ClassicalMessage:
    """A classical payload (named +-1 bits only, never amplitudes)."""

    sender: str
    recipient: str
    payload: dict
    step: str


@dataclass
class ResourceLedger:
    """Ebit accounting for one protocol run: consumed never exceeds granted."""

    ebits_granted: int = 0
    ebits_consumed: int = 0

    def consume(self, n: int = 1) -> None:
        if self.ebits_consumed + n > self.ebits_granted:
            raise ValueError("insufficient ebits")
        self.ebits_consumed += n


@dataclass(frozen=True)
class TraceEvent:
    """One protocol event: a local op, a measurement or a classical message."""

    step: str
    party: str | None
    op: str
    qubits: tuple[int, ...] = ()
    message: ClassicalMessage | None = None
    outcome: object = None

    def as_dict(self) -> dict:
        d = {"step": self.step, "party": self.party, "op": self.op, "qubits": list(self.qubits)}
        if self.message is not None:
            d["message"] = {
                "from": self.message.sender,
                "to": self.message.recipient,
                "payload": dict(self.message.payload),
                "step": self.message.step,
            }
        if self.outcome is not None:
            d["outcome"] = self.outcome
        return d


def trace_to_jsonl(trace) -> str:
    """Serialize a trace as line-delimited JSON, one event per line."""
    return "\n".join(json.dumps(event.as_dict(), sort_keys=True) for event in trace)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one protocol run.

    ``post_state`` is present only for state-preserving protocols: the Bell
    filter (scheme b) and the computational output of the fig1 circuit.
    """

    outcomes: tuple[int, int]
    post_state: StateVector | None
    trace: tuple[TraceEvent, ...]
    ledger: ResourceLedger

    @property
    def label(self) -> BellLabel:
        """The Bell state named by the outcome pair."""
        return classify(*self.outcomes)


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple[str, ...]
    events_checked: int


_BASIS_GATE_OP = {"x": "gate:H", "y": "gate:HSdg"}


class _ProtocolRun:
    """Mutable context for one run: register state, trace, ledger.

    The ledger grants the scheme's ebits per run from :data:`SCHEMES`.
    """

    __slots__ = ("state", "rng", "ledger", "trace")

    def __init__(self, state, rng, scheme, record_trace):
        _require_two_qubits(state)
        self.state = state
        self.rng = rng
        self.ledger = ResourceLedger(SCHEMES[scheme].ebits_per_run)
        self.trace = [] if record_trace else None

    def emit(self, step, party, op, qubits=(), message=None, outcome=None):
        if self.trace is not None:
            self.trace.append(TraceEvent(step, party, op, tuple(qubits), message, outcome))

    def declare_ownership(self, step, *parties):
        for party in parties:
            self.emit(step, party.id, "own", tuple(sorted(party.owned_qubits)))

    def declare_system_ownership(self):
        if self.trace is not None:
            self.declare_ownership("setup", *_SYSTEM_PARTIES)

    def exchange_and_derive(self, stage, op, a_outcome, b_outcome, derived):
        """Symmetric classical exchange, then each party derives the result."""
        if self.trace is None:
            return
        step = f"{stage}:exchange-outcomes"
        for sender, recipient, value in ((ALICE, BOB, a_outcome), (BOB, ALICE, b_outcome)):
            message = ClassicalMessage(sender, recipient, {"outcome": value}, step)
            self.emit(step, sender, "send", (), message=message)
        self.emit(f"{stage}:{op}", ALICE, op, (), outcome=derived)
        self.emit(f"{stage}:{op}", BOB, op, (), outcome=derived)

    def nonlocal_stage(self, stage, sp):
        """One ancilla-assisted spin-product measurement, traced step by step."""
        self.ledger.consume(1)
        tracing = self.trace is not None
        if tracing:
            self.declare_ownership(f"{stage}:distribute-ebit", *_EXTENDED_PARTIES)
            self.emit(f"{stage}:distribute-ebit", ALICE, "ebit", (_METER_A,))
            self.emit(f"{stage}:distribute-ebit", BOB, "ebit", (_METER_B,))
            if sp.i != "z":
                self.emit(f"{stage}:local-basis", ALICE, _BASIS_GATE_OP[sp.i], (_SYSTEM_A,))
            if sp.j != "z":
                self.emit(f"{stage}:local-basis", BOB, _BASIS_GATE_OP[sp.j], (_SYSTEM_B,))
            self.emit(f"{stage}:local-cnot", ALICE, "gate:CNOT", (_SYSTEM_A, _METER_A))
            self.emit(f"{stage}:local-cnot", BOB, "gate:CNOT", (_SYSTEM_B, _METER_B))
        record, self.state = nonlocal_product_measurement(self.state, sp, self.rng)
        z_a, z_b = record.local_outcomes
        if tracing:
            self.emit(f"{stage}:meter-readout", ALICE, "measure:z", (_METER_A,), outcome=z_a)
            self.emit(f"{stage}:meter-readout", BOB, "measure:z", (_METER_B,), outcome=z_b)
            self.emit(f"{stage}:meter-discard", ALICE, "discard", (_METER_A,))
            self.emit(f"{stage}:meter-discard", BOB, "discard", (_METER_B,))
            if sp.i != "z":
                self.emit(f"{stage}:local-basis", ALICE, _BASIS_GATE_OP[sp.i], (_SYSTEM_A,))
            if sp.j != "z":
                self.emit(f"{stage}:local-basis", BOB, _BASIS_GATE_OP[sp.j], (_SYSTEM_B,))
        product = record.product_outcome
        self.exchange_and_derive(stage, "multiply", z_a, z_b, product)
        return product

    def local_stage(self, stage, sp):
        """One local spin-product measurement: per-site Pauli readout + product."""
        record, self.state = local_product_measurement(self.state, sp, self.rng)
        z_a, z_b = record.local_outcomes
        self.emit(f"{stage}:local-measure", ALICE, f"measure:{sp.i}", (_SYSTEM_A,), outcome=z_a)
        self.emit(f"{stage}:local-measure", BOB, f"measure:{sp.j}", (_SYSTEM_B,), outcome=z_b)
        product = record.product_outcome
        self.exchange_and_derive(stage, "multiply", z_a, z_b, product)
        return product

    def trace_tuple(self):
        return () if self.trace is None else tuple(self.trace)


def _require_two_qubits(s: StateVector) -> None:
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit state")


def run_fig1(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Textbook Bell measurement circuit: CNOT across both wires, H, readout.

    Maps Phi+, Phi-, Psi+, Psi- to the computational outputs |++>, |-+>,
    |+->, |--> respectively. The CNOT touches both parties' qubits, so the
    trace is marked nonlocal and fails :func:`locc_audit`. Consumes no ebits.
    """
    run = _ProtocolRun(s, rng, "fig1", record_trace)
    run.declare_system_ownership()
    run.emit("circuit", None, "gate:CNOT", (_SYSTEM_A, _SYSTEM_B))
    state = StateVector(2, CNOT @ s.amplitudes)
    run.emit("circuit", ALICE, "gate:H", (_SYSTEM_A,))
    state = StateVector(2, _H_ON_A @ state.amplitudes)
    z_a, state = measure_local_pauli(state, _SYSTEM_A, "z", rng)
    z_b, state = measure_local_pauli(state, _SYSTEM_B, "z", rng)
    run.emit("readout", ALICE, "measure:z", (_SYSTEM_A,), outcome=z_a)
    run.emit("readout", BOB, "measure:z", (_SYSTEM_B,), outcome=z_b)
    # the wire carrying the Hadamard resolves +/-, the other Phi/Psi
    m, n = z_b, z_a
    run.exchange_and_derive("readout", "classify", z_a, z_b, classify(m, n).value)
    return ProtocolResult((m, n), state, run.trace_tuple(), run.ledger)


def run_scheme_a(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Complete Bell measurement via nonlocal S_zz then local S_xx (1 ebit).

    LOCC throughout. The final local measurement collapses the system to an
    x product state, so no post-state is reported.
    """
    run = _ProtocolRun(s, rng, "scheme_a", record_trace)
    run.declare_system_ownership()
    m = run.nonlocal_stage("szz", spin_product("z", "z"))
    n = run.local_stage("sxx", spin_product("x", "x"))
    return ProtocolResult((m, n), None, run.trace_tuple(), run.ledger)


def run_scheme_b(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Complete Bell filter: nonlocal S_zz then nonlocal S_xx (2 ebits).

    LOCC throughout, and the post-state is exactly the Bell state named by
    the outcome pair (up to global phase).
    """
    run = _ProtocolRun(s, rng, "scheme_b", record_trace)
    run.declare_system_ownership()
    m = run.nonlocal_stage("szz", spin_product("z", "z"))
    n = run.nonlocal_stage("sxx", spin_product("x", "x"))
    return ProtocolResult((m, n), run.state, run.trace_tuple(), run.ledger)


# --- LOCC audit ---------------------------------------------------------------

_GATE_OPS_PREFIXES = ("gate:", "measure:")
_DERIVE_OPS = ("multiply", "classify")


def _stage_of(step: str) -> str:
    return step.split(":", 1)[0]


def locc_audit(trace) -> AuditReport:
    """Check a trace for LOCC discipline.

    Passes iff every unitary and measurement acts within a single party's
    owned qubit set and every cross-party derivation (product / label) was
    preceded by a classical message delivering the other party's outcome.
    Raises ``ValueError("malformed trace")`` on structurally broken traces.
    """
    ownership: dict[str, set[int]] = {}
    delivered: set[tuple[str, str]] = set()  # (recipient, stage)
    violations: list[str] = []
    checked = 0
    for idx, event in enumerate(trace):
        if not isinstance(event, TraceEvent):
            raise ValueError("malformed trace")
        checked += 1
        op = event.op
        if op == "own":
            if event.party is None:
                raise ValueError("malformed trace")
            ownership[event.party] = set(event.qubits)
        elif op.startswith(_GATE_OPS_PREFIXES) or op in ("ebit", "discard"):
            if event.party is None:
                violations.append(
                    f"event {idx}: {op} on qubits {list(event.qubits)} is not local to one party"
                )
                continue
            owned = ownership.get(event.party)
            if owned is None:
                raise ValueError("malformed trace")
            if not set(event.qubits) <= owned:
                violations.append(
                    f"event {idx}: {event.party} touched qubits {list(event.qubits)} "
                    f"outside its owned set {sorted(owned)}"
                )
        elif op == "send":
            message = event.message
            if message is None or message.sender != event.party:
                raise ValueError("malformed trace")
            if not all(isinstance(v, (int, np.integer, str)) for v in message.payload.values()):
                violations.append(f"event {idx}: message payload is not classical data")
            else:
                delivered.add((message.recipient, _stage_of(message.step)))
        elif op in _DERIVE_OPS:
            if event.party is None:
                violations.append(f"event {idx}: {op} not attributed to a party")
            elif (event.party, _stage_of(event.step)) not in delivered:
                violations.append(
                    f"event {idx}: {event.party} derived '{op}' without a prior "
                    "classical exchange for this stage"
                )
        else:
            raise ValueError("malformed trace")
    return AuditReport(not violations, tuple(violations), checked)


# --- Scheme table and Monte Carlo / analytic distributions ---------------------


class Scheme(NamedTuple):
    """One route to the Bell measurement."""

    ebits_per_run: int
    # traced protocol runner; None for the photonic model, which has no trace
    runner: Callable[..., ProtocolResult] | None


# The photonic run spends its path-entangled pair: the same one-ebit meter.
SCHEMES = {
    "fig1": Scheme(0, run_fig1),
    "scheme_a": Scheme(1, run_scheme_a),
    "scheme_b": Scheme(2, run_scheme_b),
    "photonic": Scheme(1, None),
}


def get_scheme(name: str) -> Scheme:
    """The table entry for ``name``; ``ValueError`` for an unknown scheme."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None


def iterate_runs(s: StateVector, scheme: str, trials: int, seed: int):
    """Yield untraced results for ``trials`` independent runs of a scheme.

    Trial t uses the RNG substream (seed, t), so runs are reproducible and
    may be re-executed or sharded in any order.
    """
    runner = get_scheme(scheme).runner
    if runner is None:
        raise ValueError(f"scheme {scheme!r} has no protocol runner")
    root = RngStream(seed)
    for t in range(trials):
        yield runner(s, root.substream(t), record_trace=False)


def outcome_distribution(s: StateVector, scheme: str, trials: int, seed: int) -> dict:
    """Histogram over the four Bell labels from ``trials`` sampled runs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = {label: 0 for label in BellLabel}
    if get_scheme(scheme).runner is None:
        final = photonic.build_photonic_run(s)
        root = RngStream(seed)
        for t in range(trials):
            ports = photonic.detect(final, root.substream(t))
            counts[photonic.photonic_label(ports)] += 1
    else:
        for result in iterate_runs(s, scheme, trials, seed):
            counts[result.label] += 1
    return counts


def fig1_unitary() -> np.ndarray:
    """The full fig1 circuit matrix: Hadamard on Alice's wire after a CNOT."""
    return _H_ON_A @ CNOT


def scheme_a_povm() -> dict[tuple[int, int], np.ndarray]:
    """The four analytic POVM elements E_mn of scheme (a), composed honestly.

    E_mn = M_m^dag E_n M_m with M_m the S_zz eigenprojector (first stage
    Kraus) and E_n the S_xx POVM element (second stage). Each equals the
    rank-1 projector onto the Bell state classify(m, n).
    """
    szz, sxx = spin_product("z", "z"), spin_product("x", "x")
    out = {}
    for m in (+1, -1):
        for n in (+1, -1):
            k = szz.projector(m)
            out[(m, n)] = k.conj().T @ sxx.projector(n) @ k
    return out


def scheme_b_measurement_operators() -> dict[tuple[int, int], np.ndarray]:
    """The composed measurement operators M_mn of the Bell filter."""
    szz, sxx = spin_product("z", "z"), spin_product("x", "x")
    return {
        (m, n): sxx.projector(n) @ szz.projector(m)
        for m in (+1, -1)
        for n in (+1, -1)
    }


# fig1 output index (bits z_a z_b) -> Bell label of the input
_FIG1_INDEX_LABELS = (
    BellLabel.PHI_PLUS,   # |++>
    BellLabel.PSI_PLUS,   # |+->
    BellLabel.PHI_MINUS,  # |-+>
    BellLabel.PSI_MINUS,  # |-->
)


def analytic_label_distribution(s: StateVector, scheme: str) -> np.ndarray:
    """Exact label probabilities (order Phi+, Phi-, Psi+, Psi-) for a scheme.

    Computed along each scheme's own route: the circuit matrix for fig1, the
    composed POVM for scheme (a), the composed measurement operators for
    scheme (b), and path-readout marginals for the photonic model.
    """
    _require_two_qubits(s)
    if scheme == "fig1":
        probs_by_index = np.abs(fig1_unitary() @ s.amplitudes) ** 2
        out = np.zeros(4)
        for index, label in enumerate(_FIG1_INDEX_LABELS):
            out[label.index] = probs_by_index[index]
        return out
    if scheme == "scheme_a":
        povm = scheme_a_povm()
        return np.array(
            [
                np.vdot(s.amplitudes, povm[bellcore.outcome_pair(label)] @ s.amplitudes).real
                for label in BellLabel
            ]
        )
    if scheme == "scheme_b":
        ops = scheme_b_measurement_operators()
        return np.array(
            [
                float(np.linalg.norm(ops[bellcore.outcome_pair(label)] @ s.amplitudes) ** 2)
                for label in BellLabel
            ]
        )
    if scheme == "photonic":
        return photonic.label_distribution(s)
    raise ValueError(f"unknown scheme {scheme!r}")
