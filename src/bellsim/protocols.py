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
for locality violations. :class:`OutcomeTree` samples untraced runs: a few
trial by trial, more in batches.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .bellcore import BellLabel, SpinProduct, classify, spin_product
from .measure import (
    ALICE,
    BOB,
    LOCAL,
    NONLOCAL,
    NONLOCAL_WIRES,
    STRATEGIES,
    FloorRule,
    MeasurementRecord,
    RngStream,
    _branch_record,
    _ChunkWork,
    _keyed_draws,
    _operand,
    _z_branches,
    local_product_measurement,
    measure_local_pauli,
    nonlocal_product_measurement,
)
from .qstate import CNOT, HADAMARD, ID2, StateVector, _wrap
from . import bellcore, photonic

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


def _require_two_qubits(s: StateVector) -> None:
    if s.n_qubits != 2:
        raise ValueError("expected a 2-qubit state")


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


def _trace(scheme: str, leaf) -> tuple[TraceEvent, ...]:
    """The trace that ``SCHEMES[scheme].stages`` render for ``leaf``, stage by stage, as one tuple."""
    return tuple(event for stage in SCHEMES[scheme].stages(leaf) for event in stage)


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


def _spin_product_stages(first: str, second: str):
    """Ownership of the system, then S_zz's readout index i by the ``first`` strategy and S_xx's j by the ``second``."""

    def stages(leaf):
        i, j = leaf
        yield _own("setup", _SYSTEM_PARTIES)
        yield _RENDER_STAGE[first]("szz", _SZZ, _branch_record(_SZZ, first, i))
        yield _RENDER_STAGE[second]("sxx", _SXX, _branch_record(_SXX, second, j))

    return stages


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
    trace = _trace("fig1", ((1 - z_a) >> 1, (1 - z_b) >> 1)) if record_trace else ()  # the readout bits
    return ProtocolResult(outcomes, state, trace, ledger)


def _run_spin_products(s: StateVector, rng: RngStream, scheme: str, second: Callable, record_trace: bool):
    """Nonlocal S_zz, then S_xx by the ``second`` kernel, as :func:`_spin_product_tree`.

    The body of schemes (a) and (b); only a Bell filter reports its post-state.
    """
    _require_two_qubits(s)
    row = SCHEMES[scheme]
    ledger = ResourceLedger(row.ebits_per_run)
    szz, state = nonlocal_product_measurement(s, _SZZ, rng)
    sxx, state = second(state, _SXX, rng)
    for record in (szz, sxx):
        ledger.consume(record.ebits_consumed)
    (z_a, z_b), (x_a, x_b) = szz.local_outcomes, sxx.local_outcomes  # a stage's branch: 2 * bit(z_A) + bit(z_B)
    trace = _trace(scheme, ((1 - z_a) + ((1 - z_b) >> 1), (1 - x_a) + ((1 - x_b) >> 1))) if record_trace else ()
    outcomes = (szz.product_outcome, sxx.product_outcome)
    return ProtocolResult(outcomes, state if row.filters else None, trace, ledger)


def run_scheme_a(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Complete Bell measurement via nonlocal S_zz then local S_xx (1 ebit).

    LOCC throughout. The final local measurement collapses the system to an
    x product state, so no post-state is reported.
    """
    return _run_spin_products(s, rng, "scheme_a", local_product_measurement, record_trace)


def run_scheme_b(s: StateVector, rng: RngStream, record_trace: bool = True) -> ProtocolResult:
    """Complete Bell filter: nonlocal S_zz then nonlocal S_xx (2 ebits).

    LOCC throughout, and the post-state is exactly the Bell state named by
    the outcome pair (up to global phase).
    """
    return _run_spin_products(s, rng, "scheme_b", nonlocal_product_measurement, record_trace)


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


# --- Outcome trees: the branches every untraced run of a scheme can take -------
#
# Every trial of a run starts from the same state, and a stage's post-state
# depends only on the branch it took, so all trials walk one tree: a first
# stage, then a second stage after each first-stage branch. A builder returns
# (first-stage weights, child, labels): child(i) is (weights, post_of) of the
# second stage after branch i (None when there is no second stage), and
# labels[i, j] is the index of the Bell label that leaf (i, j) names.

_LABELS = tuple(BellLabel)  # in index order


# fig1 output bits [z_a][z_b] -> Bell label of the input
_FIG1_LABELS = np.array([
    [BellLabel.PHI_PLUS.index, BellLabel.PSI_PLUS.index],    # |++>, |+->
    [BellLabel.PHI_MINUS.index, BellLabel.PSI_MINUS.index],  # |-+>, |-->
])
_PRODUCTS = (1, -1, -1, 1)  # the S_ij outcome of readout index 2 * bit(z_A) + bit(z_B)
_PRODUCT_LABELS = np.array([[classify(m, n).index for n in _PRODUCTS] for m in _PRODUCTS])


def _fig1_tree(s: StateVector):
    """fig1's two sigma_z readouts, after the circuit."""
    weights, post_of = _z_branches(_fig1_circuit(s.amplitudes), _SYSTEM_A)
    return weights, lambda bit: _z_branches(post_of(bit), _SYSTEM_B), _FIG1_LABELS


def _spin_product_tree(first: str, second: str):
    """S_zz by the ``first`` strategy, then S_xx by the ``second``; schemes (a) and (b) start nonlocal."""

    def tree(s: StateVector):
        weights, post_of = STRATEGIES[first].branches(s.amplitudes, _SZZ)
        return weights, lambda i: STRATEGIES[second].branches(post_of(i), _SXX), _PRODUCT_LABELS

    return tree


def _photonic_tree(s: StateVector):
    """One joint Born draw over the 64 detection events, as :func:`photonic.detect`."""
    weights = np.abs(photonic.build_photonic_run(s).amplitudes) ** 2
    return weights, None, photonic._LABEL_INDEX[:, None]


# --- Analytic routes: each scheme's label probabilities along its own algebra ---


def fig1_unitary() -> np.ndarray:
    """The full fig1 circuit matrix, the product of its gate rows' matrices: the circuit on each basis state."""
    return _fig1_circuit(np.eye(4, dtype=complex))


def scheme_a_povm() -> dict[tuple[int, int], np.ndarray]:
    """The four analytic POVM elements E_mn of scheme (a), composed honestly.

    E_mn = M_m^dag E_n M_m with M_m the S_zz eigenprojector (first stage
    Kraus) and E_n the S_xx POVM element (second stage). Each equals the
    rank-1 projector onto the Bell state classify(m, n).
    """
    return {
        (m, n): _SZZ.projector(m).conj().T @ _SXX.projector(n) @ _SZZ.projector(m)
        for m in (+1, -1)
        for n in (+1, -1)
    }


def scheme_b_measurement_operators() -> dict[tuple[int, int], np.ndarray]:
    """The composed measurement operators M_mn of the Bell filter."""
    return {
        (m, n): _SXX.projector(n) @ _SZZ.projector(m)
        for m in (+1, -1)
        for n in (+1, -1)
    }


def _by_label(family: dict) -> np.ndarray:
    """A {(m, n): operator} family stacked in label order, read-only."""
    stacked = np.array([family[bellcore.outcome_pair(label)] for label in _LABELS])
    stacked.setflags(write=False)
    return stacked


# None of these depends on the state, so each is built once.
_FIG1_UNITARY = fig1_unitary()
_FIG1_UNITARY.setflags(write=False)
_SCHEME_A_POVM = _by_label(scheme_a_povm())
_SCHEME_B_OPS = _by_label(scheme_b_measurement_operators())


def _fig1_analytic(s: StateVector) -> np.ndarray:
    """The circuit matrix's output weights, summed onto the labels they name."""
    return np.bincount(_FIG1_LABELS.ravel(), np.abs(_FIG1_UNITARY @ s.amplitudes) ** 2, len(_LABELS))


def _scheme_a_analytic(s: StateVector) -> np.ndarray:
    """<s| E_mn |s> over the composed POVM, all four E_mn |s> in one stacked product."""
    return np.array([np.vdot(s.amplitudes, row).real for row in _SCHEME_A_POVM @ s.amplitudes])


def _scheme_b_analytic(s: StateVector) -> np.ndarray:
    """||M_mn s||^2 over the filter's composed measurement operators."""
    return np.array([float(np.linalg.norm(op @ s.amplitudes) ** 2) for op in _SCHEME_B_OPS])


# --- Scheme table and the distributions it routes ------------------------------


class Scheme(NamedTuple):
    """One route to the Bell measurement."""

    ebits_per_run: int
    # per-trial runner on the kernels, which renders its trace through ``stages``; None for the photonic model
    runner: Callable[..., ProtocolResult] | None
    stages: Callable | None  # leaf of the tree -> the trace of a run that reached it, stage by stage; None for photonic
    tree: Callable  # s -> (first-stage weights, child, labels), as above
    analytic: Callable  # s -> label probabilities in label order, along the route's own algebra
    # a Bell filter: the post-state is the labelled Bell state, so a run reports its fidelity
    filters: bool


# The photonic run spends its path-entangled pair: the same one-ebit meter.
SCHEMES = {
    "fig1": Scheme(0, run_fig1, _fig1_stages, _fig1_tree, _fig1_analytic, False),
    "scheme_a": Scheme(
        1, run_scheme_a, _spin_product_stages(NONLOCAL, LOCAL), _spin_product_tree(NONLOCAL, LOCAL),
        _scheme_a_analytic, False,
    ),
    "scheme_b": Scheme(
        2, run_scheme_b, _spin_product_stages(NONLOCAL, NONLOCAL), _spin_product_tree(NONLOCAL, NONLOCAL),
        _scheme_b_analytic, True,
    ),
    "photonic": Scheme(1, None, None, _photonic_tree, photonic.label_distribution, False),
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


# Trials per chunk of OutcomeTree.sample. A chunk costs about the same numpy
# calls whatever its size, so what bounds it is a run's heap peak: the CLI's
# parsing garbage, plus the second-stage weights the tree keeps, plus 32 bytes
# per chunk-trial of work buffers. perfbench mc-throughput's largest call
# (2000-trial runs; 2 cores, Python 3.11.7, numpy 2.4.6) peaks at 35.5 KB at
# 64, 35.6 KB at 128, 36.7 KB at 192 and 38.9 KB at 256; 192 stays within 2 %
# of the 36.1 KB at 64 of a tree that also kept every stage's post-states.
TREE_CHUNK = 192
# Runs of fewer trials are walked trial by trial (OutcomeTree.walk): a walked
# trial costs 6-12 us, a run's first chunk 60-200 us whatever its size. Summed
# over the four schemes, cli._run_trials is cheaper walked up to 8 trials,
# within 2 % either way at 9 and cheaper chunked from 10 (photonic crosses
# near 7, the others near 9-10; 2 cores, Python 3.11.7, numpy 2.4.6; the
# sweeps are in BENCH_16.json). With the chunks' scalar operands prebuilt the
# sum crosses near 7 (BENCH_19.json); the constant stays until a change that
# re-measures small runs moves it.
TREE_WALK = 9


class OutcomeTree:
    """Batched Monte Carlo of untraced runs, bit-identical to the runners.

    Trial t replays what the runner draws on ``RngStream(seed).substream(t)``:
    draw 1 for the first stage, draw 1 + (draws the first stage took) for
    the second, none for a stage with one live branch (:class:`FloorRule`).
    A second stage's weights are built when a trial first reaches them.
    ``build`` is a tree builder of the shape above, such as a scheme's ``tree``.
    A leaf is (i, j): branch i of the first stage, then branch j of the
    second (0 when there is none), the index of ``labels`` it names.
    """

    def __init__(self, s: StateVector, build: Callable):
        _require_two_qubits(s)
        weights, self._child, self.labels = build(s)
        self._first = FloorRule.empty(1, weights.size)
        self._first.set_row(0, weights)
        if self._child:
            self._second = FloorRule.empty(*self.labels.shape)
            self._second_draws = False  # a second stage built so far takes a draw
            self._unbuilt = set(self._first.kept.tolist())

    def walk(self, rng: RngStream) -> tuple[int, int]:
        """The leaf that the run drawing on ``rng`` reaches: one trial of :meth:`sample`, as the runner draws it."""
        i = self._first.choose(0, rng)
        if not self._child:
            return i, 0
        self._reach(i)
        return divmod(self._second.choose(i, rng), self.labels.shape[1])

    def sample(self, trials: int, seed: int) -> np.ndarray:
        """Leaf histogram of ``trials`` runs; trial t draws from ``RngStream(seed).substream(t)``.

        Fewer than :data:`TREE_WALK` trials are walked one by one; more are
        replayed in chunks of :data:`TREE_CHUNK`.
        """
        root = RngStream(seed)
        if trials < TREE_WALK:
            leaves = np.zeros(self.labels.shape, np.int64)
            for t in range(trials):
                leaves[self.walk(root.substream(t))] += 1
            return leaves
        return self._chunks(root, trials)

    def _chunks(self, root: RngStream, trials: int) -> np.ndarray:
        """:meth:`sample` in chunks.

        Each chunk works in the same three words per trial and the same views of them
        (:class:`~bellsim.measure._ChunkWork`): the substream keys, the draw word and a scratch word.
        """
        work = _ChunkWork.of(*np.empty((3, min(TREE_CHUNK, trials)), np.uint64))
        leaves = np.zeros(self.labels.size, dtype=np.int64)
        for start in range(0, trials, TREE_CHUNK):
            if trials - start < work.keys.size:  # the last chunk is short
                work = work.head(trials - start)
            leaves += np.bincount(self._chunk(root, start, work), minlength=leaves.size)
        return leaves.reshape(self.labels.shape)

    def _chunk(self, root: RngStream, start: int, work: _ChunkWork) -> np.ndarray:
        """The leaf of each trial of the chunk from ``start``, one per column of the buffers."""
        first_draws = bool(self._first.draws[0])
        if first_draws:
            root._keys_into(start, work.keys, work.scratch)
            leaf = self._first.leaves_in_row(_keyed_draws(work, 1))
        else:
            leaf = np.full(work.keys.size, self._first.kept[0])
        if not self._child:
            return leaf
        if self._unbuilt:
            hit = np.bincount(leaf, minlength=len(self.labels))
            for i in [i for i in self._unbuilt if hit[i]]:
                self._reach(i)
        if not self._second_draws:  # every row reached keeps its heaviest branch
            leaf *= _operand(self.labels.shape[1], np.intp)
            return self._second.keep(leaf)
        if not first_draws:
            root._keys_into(start, work.keys, work.scratch)
        return self._second.leaves_by_row(leaf, _keyed_draws(work, 1 + first_draws), work)

    def _reach(self, i: int) -> None:
        """Build the second stage after first-stage branch ``i`` when a trial first reaches it."""
        if i in self._unbuilt:
            self._second.set_row(i, self._child(i)[0])
            self._second_draws |= bool(self._second.draws[i])
            self._unbuilt.discard(i)

    def label_counts(self, leaves: np.ndarray) -> dict:
        """Histogram over the four Bell labels of a leaf histogram."""
        totals = np.bincount(self.labels.ravel(), leaves.ravel(), len(_LABELS))
        return {label: int(total) for label, total in zip(_LABELS, totals)}

    def reached(self, leaves: np.ndarray):
        """Yield (leaf, label, post-state) of every two-stage leaf a trial reached; each reached row is rebuilt once."""
        for i in np.flatnonzero(leaves.any(axis=1)).tolist():
            post_of = self._child(i)[1]
            for j in np.flatnonzero(leaves[i]).tolist():
                yield (i, j), _LABELS[self.labels[i, j]], _wrap(2, post_of(j))


def outcome_distribution(s: StateVector, scheme: str, trials: int, seed: int) -> dict:
    """Histogram over the four Bell labels from ``trials`` sampled runs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tree = OutcomeTree(s, get_scheme(scheme).tree)
    return tree.label_counts(tree.sample(trials, seed))


def analytic_label_distribution(s: StateVector, scheme: str) -> np.ndarray:
    """Exact label probabilities (order Phi+, Phi-, Psi+, Psi-), along the scheme's own route."""
    _require_two_qubits(s)
    return get_scheme(scheme).analytic(s)
