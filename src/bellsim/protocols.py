"""Bell measurement protocols: per-trial runners, their traces, the LOCC audit and the scheme table.

:data:`SCHEMES` has one row per route to the four-outcome Bell POVM:
``fig1`` (the textbook circuit), ``scheme_a`` and ``scheme_b`` (spin
products measured on shared ebits) and ``photonic`` (the optical model of
:mod:`bellsim.photonic`). Each runner's docstring says what its route does.

A runner is the physics of one run: it calls the measurement kernels, debits
the ebits they spent and returns a :class:`ProtocolResult` with the outcome
pair (m, n), the Bell label and the ledger. When asked, it then renders the
run's event trace, as ``--emit-trace`` does, with its row's ``stages`` from
the leaf of the outcome tree that its readouts name: local operations,
measurements and the symmetric exchange of outcome bits (``send`` events),
after which each party derives the result. :func:`locc_audit` checks a trace
for locality violations, and :func:`outcome_distribution` samples untraced
runs on a scheme's tree (:class:`bellsim.measure.OutcomeTree`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .bellcore import _LABELS, BellLabel, SpinProduct, classify, outcome_pair, spin_product
from .measure import (
    ALICE,
    BOB,
    LOCAL,
    NONLOCAL,
    NONLOCAL_WIRES,
    STRATEGIES,
    MeasurementRecord,
    OutcomeTree,
    RngStream,
    _branch_record,
    _z_branches,
    local_product_measurement,
    measure_local_pauli,
    nonlocal_product_measurement,
)
from .qstate import CNOT, HADAMARD, ID2, StateVector, _require_two_qubits
from . import photonic

# The qubits the LOCC audit lets each party touch: system qubits 0 (Alice) and 1 (Bob); meter qubits
# 2 (Alice) and 3 (Bob), as measure.NONLOCAL_WIRES hands them out, reused per nonlocal stage.
_SYSTEM_A, _SYSTEM_B, _METER_A, _METER_B = 0, 1, 2, 3

# fig1's circuit on [A, B] as (step, party, op, qubits) rows, which its trace shows: a CNOT across
# both wires, then H on Alice's. The runners apply each row's 4x4 matrix in turn.
_FIG1_GATES = (("circuit", None, "gate:CNOT", (0, 1)), ("circuit", ALICE, "gate:H", (0,)))
_ON_BOTH_WIRES = {("gate:CNOT", (0, 1)): CNOT, ("gate:H", (0,)): np.kron(HADAMARD, ID2)}  # a gate row's 4x4 matrix
_FIG1_MATRICES = tuple(_ON_BOTH_WIRES[op, qubits] for _, _, op, qubits in _FIG1_GATES)


def _fig1_circuit(amps: np.ndarray) -> np.ndarray:
    """fig1's gate rows applied to ``amps`` (a state, or the columns of a matrix) one by one."""
    return reduce(lambda state, u: u @ state, _FIG1_MATRICES, amps)


@dataclass(frozen=True)
class Party:
    """One protocol participant and the register indices it may touch."""

    id: str
    owned_qubits: frozenset[int]


_SYSTEM_PARTIES = (Party(ALICE, frozenset({_SYSTEM_A})), Party(BOB, frozenset({_SYSTEM_B})))
# while a nonlocal stage runs, each party also owns its meter qubit
_EXTENDED_PARTIES = (Party(ALICE, frozenset({_SYSTEM_A, _METER_A})), Party(BOB, frozenset({_SYSTEM_B, _METER_B})))


class ClassicalMessage(NamedTuple):
    """A classical payload (named +-1 bits only, never amplitudes)."""

    sender: str
    recipient: str
    payload: dict
    step: str


@dataclass
class ResourceLedger:
    """Ebit accounting for one protocol run: consumed never exceeds granted."""

    ebits_granted: int
    ebits_consumed: int = 0

    def consume(self, n: int) -> None:
        if self.ebits_consumed + n > self.ebits_granted:
            raise ValueError("insufficient ebits")
        self.ebits_consumed += n


class TraceEvent(NamedTuple):
    """One protocol event: a local op, a measurement or a classical message."""

    step: str
    party: str | None
    op: str
    qubits: tuple[int, ...] = ()
    message: ClassicalMessage | None = None
    outcome: object = None


def _json(value) -> str:
    """``value`` as json.dumps(value, sort_keys=True) writes it; exact ints, None, str, str-keyed dicts directly."""
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is dict and all(isinstance(key, str) for key in value):
        return "{" + ", ".join(f"{encode_basestring_ascii(k)}: {_json(v)}" for k, v in sorted(value.items())) + "}"
    return json.dumps(value, sort_keys=True)  # anything else, a numpy integer's TypeError included


def _event_json(event: TraceEvent) -> str:
    """One event as a JSON object with sorted keys; ``message`` and ``outcome`` only when set."""
    m = event.message
    message = "" if m is None else (
        f'"message": {{"from": {_json(m.sender)}, "payload": {_json(dict(m.payload))}, '
        f'"step": {_json(m.step)}, "to": {_json(m.recipient)}}}, '
    )
    outcome = "" if event.outcome is None else f'"outcome": {_json(event.outcome)}, '
    return (
        f'{{{message}"op": {_json(event.op)}, {outcome}"party": {_json(event.party)}, '
        f'"qubits": [{", ".join(map(_json, event.qubits))}], "step": {_json(event.step)}}}'
    )


def trace_to_jsonl(trace) -> str:
    """Serialize a trace as line-delimited JSON, one event per line."""
    return "\n".join(map(_event_json, trace))


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


_SZZ, _SXX = spin_product("z", "z"), spin_product("x", "x")


# --- Traces: rendered from a leaf of the outcome tree, stage by stage -----------

_BASIS_GATE_OP = {"x": "gate:H", "y": "gate:HSdg"}


def _own(step: str, parties) -> list[TraceEvent]:
    return [TraceEvent(step, party.id, "own", tuple(sorted(party.owned_qubits))) for party in parties]


def _exchange(stage: str, op: str, a_outcome, b_outcome, derived) -> list[TraceEvent]:
    """Symmetric classical exchange, then each party derives the result."""
    step = f"{stage}:exchange-outcomes"
    return [
        TraceEvent(step, ALICE, "send", message=ClassicalMessage(ALICE, BOB, {"outcome": a_outcome}, step)),
        TraceEvent(step, BOB, "send", message=ClassicalMessage(BOB, ALICE, {"outcome": b_outcome}, step)),
        TraceEvent(f"{stage}:{op}", ALICE, op, outcome=derived),
        TraceEvent(f"{stage}:{op}", BOB, op, outcome=derived),
    ]


def _basis_change(stage: str, sp: SpinProduct) -> list[TraceEvent]:
    """Each party's single-qubit rotation of S_ij's axis onto z; none for z."""
    return [
        TraceEvent(f"{stage}:local-basis", party, _BASIS_GATE_OP[axis], (qubit,))
        for party, axis, qubit in ((ALICE, sp.i, _SYSTEM_A), (BOB, sp.j, _SYSTEM_B))
        if axis != "z"
    ]


def _render_nonlocal(stage: str, sp: SpinProduct, record: MeasurementRecord, wires=NONLOCAL_WIRES) -> list[TraceEvent]:
    """One ancilla-assisted spin-product measurement, step by step: its ebits and gates are the rows of ``wires``."""
    z_a, z_b = record.local_outcomes
    rows = [TraceEvent(f"{stage}:{step}", party, op, qubits) for step, party, op, qubits in wires]
    return [
        *_own(f"{stage}:distribute-ebit", _EXTENDED_PARTIES),
        *(event for event in rows if event.op == "ebit"),
        *_basis_change(stage, sp),
        *(event for event in rows if event.op != "ebit"),
        TraceEvent(f"{stage}:meter-readout", ALICE, "measure:z", (_METER_A,), outcome=z_a),
        TraceEvent(f"{stage}:meter-readout", BOB, "measure:z", (_METER_B,), outcome=z_b),
        TraceEvent(f"{stage}:meter-discard", ALICE, "discard", (_METER_A,)),
        TraceEvent(f"{stage}:meter-discard", BOB, "discard", (_METER_B,)),
        *_basis_change(stage, sp),
        *_exchange(stage, "multiply", z_a, z_b, record.product_outcome),
    ]


def _render_local(stage: str, sp: SpinProduct, record: MeasurementRecord) -> list[TraceEvent]:
    """One local spin-product measurement: per-site Pauli readout, then the product."""
    z_a, z_b = record.local_outcomes
    return [
        TraceEvent(f"{stage}:local-measure", ALICE, f"measure:{sp.i}", (_SYSTEM_A,), outcome=z_a),
        TraceEvent(f"{stage}:local-measure", BOB, f"measure:{sp.j}", (_SYSTEM_B,), outcome=z_b),
        *_exchange(stage, "multiply", z_a, z_b, record.product_outcome),
    ]


# the trace of one spin-product stage, keyed by its strategy as STRATEGIES
_RENDER_STAGE = {NONLOCAL: _render_nonlocal, LOCAL: _render_local}


def _trace(stages: Callable, leaf) -> tuple[TraceEvent, ...]:
    """The trace that a row's ``stages`` render for ``leaf``, stage by stage, as one tuple."""
    return tuple(event for stage in stages(leaf) for event in stage)


# A scheme's stages(leaf) are the trace of the run that reached ``leaf``, (i, j)
# as OutcomeTree numbers it: the first and the second stage's branch.


def _fig1_stages(leaf):
    """Ownership of both wires; then the circuit (a CNOT across both wires, H on Alice's), readout and exchange.

    ``leaf`` holds the readout bits of Alice's and Bob's wire, as :func:`run_fig1` reads them out.
    """
    bit_a, bit_b = leaf
    z_a, z_b = 1 - 2 * bit_a, 1 - 2 * bit_b
    yield _own("setup", _SYSTEM_PARTIES)
    yield [
        *(TraceEvent(*row) for row in _FIG1_GATES),
        TraceEvent("readout", ALICE, "measure:z", (_SYSTEM_A,), outcome=z_a),
        TraceEvent("readout", BOB, "measure:z", (_SYSTEM_B,), outcome=z_b),
        *_exchange("readout", "classify", z_a, z_b, classify(z_b, z_a).value),
    ]


# --- Runners: the physics of one run, then its trace if asked for ----------------


def run_fig1(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Textbook Bell measurement circuit: CNOT across both wires, H, readout.

    Maps Phi+, Phi-, Psi+, Psi- to the computational outputs |++>, |-+>,
    |+->, |--> respectively. The CNOT touches both parties' qubits, so the
    trace is marked nonlocal and fails :func:`locc_audit`. Consumes no ebits.
    """
    _require_two_qubits(s)
    ledger = ResourceLedger(SCHEMES["fig1"].ebits_per_run)
    state = StateVector(2, _fig1_circuit(s.amplitudes))
    z_a, state = measure_local_pauli(state, _SYSTEM_A, "z", rng)
    z_b, state = measure_local_pauli(state, _SYSTEM_B, "z", rng)
    outcomes = (z_b, z_a)  # the wire carrying the Hadamard resolves +/-, the other Phi/Psi
    trace = _trace(_fig1_stages, ((1 - z_a) >> 1, (1 - z_b) >> 1)) if record_trace else ()  # the readout bits
    return ProtocolResult(outcomes, state, trace, ledger)


def _kernel(strategy: str) -> Callable:
    """The kernel of ``strategy``, read from this module's names at each call, so a wrapper set there sees it."""
    return nonlocal_product_measurement if strategy == NONLOCAL else local_product_measurement


def _spin_product_scheme(first: str, second: str, analytic: Callable | None = None) -> Scheme:
    """The row of schemes (a) and (b): S_zz by the ``first`` strategy, then S_xx by the ``second``.

    The pair gives the stages, the tree and the runner; the ebits are the two strategies' sum, and
    the row is a Bell filter when both stages are nonlocal. Only a Bell filter reports its post-state.
    """
    ebits = STRATEGIES[first].ebits + STRATEGIES[second].ebits
    filters = first == second == NONLOCAL

    def stages(leaf):
        """Ownership of the system, then S_zz's readout index i and S_xx's j."""
        i, j = leaf
        yield _own("setup", _SYSTEM_PARTIES)
        yield _RENDER_STAGE[first]("szz", _SZZ, _branch_record(_SZZ, first, i))
        yield _RENDER_STAGE[second]("sxx", _SXX, _branch_record(_SXX, second, j))

    def tree(s: StateVector):
        weights, post_of = STRATEGIES[first].branches(s.amplitudes, _SZZ)
        return weights, lambda i: STRATEGIES[second].branches(post_of(i), _SXX), _PRODUCT_LABELS

    def runner(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
        """One run on the kernels; the S_zz kernel checks that ``s`` has two qubits."""
        ledger = ResourceLedger(ebits)
        szz, state = _kernel(first)(s, _SZZ, rng)
        sxx, state = _kernel(second)(state, _SXX, rng)
        for record in (szz, sxx):
            ledger.consume(record.ebits_consumed)
        (z_a, z_b), (x_a, x_b) = szz.local_outcomes, sxx.local_outcomes  # a stage's branch: 2 * bit(z_A) + bit(z_B)
        trace = _trace(stages, ((1 - z_a) + ((1 - z_b) >> 1), (1 - x_a) + ((1 - x_b) >> 1))) if record_trace else ()
        outcomes = (szz.product_outcome, sxx.product_outcome)
        return ProtocolResult(outcomes, state if filters else None, trace, ledger)

    return Scheme(ebits, runner, stages, tree, analytic, filters)


def run_scheme_a(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Complete Bell measurement via nonlocal S_zz then local S_xx (1 ebit).

    LOCC throughout. The final local measurement collapses the system to an
    x product state, so no post-state is reported.
    """
    return SCHEMES["scheme_a"].runner(s, rng, record_trace)


def run_scheme_b(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Complete Bell filter: nonlocal S_zz then nonlocal S_xx (2 ebits).

    LOCC throughout, and the post-state is exactly the Bell state named by
    the outcome pair (up to global phase).
    """
    return SCHEMES["scheme_b"].runner(s, rng, record_trace)


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
    try:
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
    except (AttributeError, TypeError) as exc:
        # a field of the wrong type: a step or op that is not a str, qubits that are not a sequence, a payload not a dict
        raise ValueError("malformed trace") from exc
    return AuditReport(not violations, tuple(violations), checked)


# --- Outcome trees: the branches every untraced run of a scheme can take -------
# Each builder returns (first-stage weights, child, labels) in the shape measure.OutcomeTree samples.

# fig1 readout bits [bit(z_A), bit(z_B)] -> Bell label of the input, classified as run_fig1 classifies its readouts
_FIG1_LABELS = np.array([[classify(z_b, z_a).index for z_b in (1, -1)] for z_a in (1, -1)])
_PRODUCTS = (1, -1, -1, 1)  # the S_ij outcome of readout index 2 * bit(z_A) + bit(z_B)
_PRODUCT_LABELS = np.array([[classify(m, n).index for n in _PRODUCTS] for m in _PRODUCTS])


def _fig1_tree(s: StateVector):
    """fig1's two sigma_z readouts, after the circuit."""
    weights, post_of = _z_branches(_fig1_circuit(s.amplitudes), _SYSTEM_A)
    return weights, lambda bit: _z_branches(post_of(bit), _SYSTEM_B), _FIG1_LABELS


def _photonic_tree(s: StateVector):
    """One joint Born draw over the 64 detection events, as :func:`photonic.detect`."""
    weights = np.abs(photonic.build_photonic_run(s).amplitudes) ** 2
    return weights, None, photonic._LABEL_INDEX[:, None]


# --- Analytic routes: each scheme's label probabilities along its own algebra ---


def fig1_unitary() -> np.ndarray:
    """The full fig1 circuit matrix, the product of its gate rows' matrices: the circuit on each basis state."""
    return _fig1_circuit(np.eye(4, dtype=complex))


# None of these depends on the state, so each is built once. The two spin-product families are stacked in label
# order, (m, n) = outcome_pair(label): scheme (a)'s composed POVM E_mn = M_m^dag E_n M_m, with M_m the S_zz
# eigenprojector (first-stage Kraus) and E_n the S_xx POVM element, and the Bell filter's measurement operators
# M_mn = P_n(S_xx) P_m(S_zz). Each E_mn and each M_mn is the rank-1 projector onto the Bell state classify(m, n).
_FIG1_UNITARY = fig1_unitary()
_SCHEME_A_POVM = np.array([_SZZ.projector(m).conj().T @ _SXX.projector(n) @ _SZZ.projector(m)
                           for m, n in map(outcome_pair, _LABELS)])
_SCHEME_B_OPS = np.array([_SXX.projector(n) @ _SZZ.projector(m) for m, n in map(outcome_pair, _LABELS)])
for _operator in (_FIG1_UNITARY, _SCHEME_A_POVM, _SCHEME_B_OPS):
    _operator.setflags(write=False)


# Each route maps (n, 4) amplitudes to (n, 4) label probabilities, row k bit for bit the route on state k alone:
# one (4, 4) matrix-vector product per state, and what a batched form would round differently (vdot, norm) per row.
_FIG1_ORDER = np.argsort(_FIG1_LABELS.ravel())  # each fig1 output weight names one label: a gather in label order


def _fig1_analytic(amps: np.ndarray) -> np.ndarray:
    """The circuit matrix's output weights, moved onto the labels they name."""
    weights = np.abs(_FIG1_UNITARY @ amps[..., None])[..., 0]
    weights **= 2
    return weights.take(_FIG1_ORDER, 1)


def _scheme_a_analytic(amps: np.ndarray) -> np.ndarray:
    """<s| E_mn |s> over the composed POVM: all E_mn |s> in one stacked product, then a vdot each."""
    products = (_SCHEME_A_POVM @ amps[:, None, :, None]).reshape(-1, 4)
    return np.fromiter(map(np.vdot, amps.repeat(4, 0), products), complex, len(products)).real.reshape(-1, 4)


def _scheme_b_analytic(amps: np.ndarray) -> np.ndarray:
    """||M_mn s||^2 over the filter's composed measurement operators: one stacked product, then a norm each."""
    products = (_SCHEME_B_OPS @ amps[:, None, :, None]).reshape(-1, 4)
    return np.fromiter((norm**2 for norm in map(np.linalg.norm, products)), float, len(products)).reshape(-1, 4)


# --- Scheme table and the distributions it routes ------------------------------


class Scheme(NamedTuple):
    """One route to the Bell measurement."""

    ebits_per_run: int
    # per-trial runner on the kernels, which renders its trace through ``stages``; None for the photonic model
    runner: Callable[..., ProtocolResult] | None
    stages: Callable | None  # leaf of the tree -> the trace of a run that reached it, stage by stage; None for photonic
    tree: Callable  # s -> (first-stage weights, child, labels), as measure.OutcomeTree samples them
    analytic: Callable  # (n, 4) amplitudes -> (n, 4) label probabilities in label order, along the route's own algebra
    # a Bell filter: the post-state is the labelled Bell state, so a run reports its fidelity
    filters: bool


# The photonic run spends its path-entangled pair: the same one-ebit meter.
SCHEMES = {
    "fig1": Scheme(0, run_fig1, _fig1_stages, _fig1_tree, _fig1_analytic, False),
    "scheme_a": _spin_product_scheme(NONLOCAL, LOCAL, _scheme_a_analytic),
    "scheme_b": _spin_product_scheme(NONLOCAL, NONLOCAL, _scheme_b_analytic),
    "photonic": Scheme(1, None, None, _photonic_tree, photonic.label_distributions, False),
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
    may be re-executed or sharded in any order. This is the per-trial
    reference that :class:`OutcomeTree` reproduces in batches.
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
    tree = OutcomeTree(s, get_scheme(scheme).tree)
    return tree.label_counts(tree.sample(trials, seed))


def analytic_label_distribution(s: StateVector, scheme: str) -> np.ndarray:
    """Exact label probabilities (order Phi+, Phi-, Psi+, Psi-), along the scheme's own route."""
    _require_two_qubits(s)
    return get_scheme(scheme).analytic(s.amplitudes[None])[0].copy()  # the row alone: no stack held with it
