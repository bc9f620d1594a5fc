"""Protocol runs, LOCC audit, ledgers and outcome distributions."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.bellcore import BellCoefficients, BellLabel, bell_state, from_bell, outcome_pair, spin_product, to_bell
from bellsim import bellcore, cli, photonic, protocols
from bellsim.cli import resolve_state
from bellsim.measure import (
    ALICE,
    NONLOCAL,
    NONLOCAL_WIRES,
    TREE_WALK,
    MeasurementRecord,
    OutcomeTree,
    RngStream,
    _coupled_injection,
    _INJECT_PHI_PLUS,
    local_product_measurement,
    nonlocal_product_measurement,
)
from bellsim.protocols import (
    AuditReport,
    ClassicalMessage,
    Party,
    ProtocolResult,
    ResourceLedger,
    SCHEMES,
    TraceEvent,
    analytic_label_distribution,
    fig1_unitary,
    iterate_runs,
    locc_audit,
    outcome_distribution,
    run_fig1,
    run_scheme_a,
    run_scheme_b,
    scheme_a_povm,
    scheme_b_measurement_operators,
    trace_to_jsonl,
)
from bellsim.qstate import CNOT, HADAMARD, ID2, computational_state, fidelity, haar_random_state, states_equal
from state_strategies import states

LABELS = bellcore._LABELS
FIG1_OUTPUT_BITS = {
    BellLabel.PHI_PLUS: "00",
    BellLabel.PHI_MINUS: "10",
    BellLabel.PSI_PLUS: "01",
    BellLabel.PSI_MINUS: "11",
}


# --- fig1 baseline -----------------------------------------------------------

@pytest.mark.parametrize("label", LABELS)
def test_fig1_maps_bell_states_to_computational_outputs(label):
    for t in range(50):
        result = run_fig1(bell_state(label), RngStream(7).substream(t))
        assert result.label is label
        expected = computational_state(FIG1_OUTPUT_BITS[label])
        assert states_equal(result.post_state, expected)
        assert result.ledger.ebits_consumed == 0


def test_fig1_distribution_matches_circuit_matrix_oracle():
    rng = np.random.default_rng(53)
    for _ in range(50):
        s = haar_random_state(2, rng)
        # independent oracle: explicit (H (x) I) CNOT circuit matrix
        circuit = np.kron(HADAMARD, ID2) @ CNOT
        probs_idx = np.abs(circuit @ s.amplitudes) ** 2
        oracle = np.array([probs_idx[0], probs_idx[2], probs_idx[1], probs_idx[3]])
        np.testing.assert_allclose(analytic_label_distribution(s, "fig1"), oracle, atol=1e-12)
        np.testing.assert_allclose(oracle, to_bell(s).probabilities(), atol=1e-12)
    np.testing.assert_allclose(fig1_unitary(), np.kron(HADAMARD, ID2) @ CNOT, atol=1e-15)


def test_fig1_empirical_distribution():
    s = from_bell(BellCoefficients(0.6, 0.0, 0.8j, 0.0))
    counts = outcome_distribution(s, "fig1", 10000, 11)
    assert counts[BellLabel.PHI_PLUS] + counts[BellLabel.PSI_PLUS] == 10000
    assert abs(counts[BellLabel.PHI_PLUS] - 3600) < 4 * np.sqrt(10000 * 0.36 * 0.64)


# --- scheme (a): nonlocal S_zz + local S_xx --------------------------------------

def test_scheme_a_deterministic_on_bell_inputs():
    for label in LABELS:
        for t in range(25):
            result = run_scheme_a(bell_state(label), RngStream(13).substream(t))
            assert result.outcomes == outcome_pair(label)
            assert result.label is label
            assert result.post_state is None
            assert result.ledger.ebits_consumed == 1
            assert result.ledger.ebits_granted == 1


def test_scheme_a_phi_superposition_probabilities():
    s = from_bell(BellCoefficients(0.6, 0.8j, 0.0, 0.0))
    dist = analytic_label_distribution(s, "scheme_a")
    np.testing.assert_allclose(dist, [0.36, 0.64, 0.0, 0.0], atol=1e-12)
    counts = outcome_distribution(s, "scheme_a", 10000, 17)
    assert counts[BellLabel.PSI_PLUS] == 0 and counts[BellLabel.PSI_MINUS] == 0
    assert abs(counts[BellLabel.PHI_PLUS] - 3600) < 4 * np.sqrt(10000 * 0.36 * 0.64)


# --- scheme (b): the Bell filter -------------------------------------------------

def test_scheme_b_filter_contract_on_random_states():
    rng = np.random.default_rng(59)
    seen = set()
    for t in range(100):
        s = haar_random_state(2, rng)
        result = run_scheme_b(s, RngStream(19).substream(t))
        assert result.post_state is not None
        assert fidelity(result.post_state, bell_state(result.label)) >= 1 - 1e-12
        assert result.ledger.ebits_consumed == 2
        seen.add(result.label)
    assert len(seen) == 4


def test_scheme_b_eigenstate_passes_unchanged():
    result = run_scheme_b(bell_state(BellLabel.PHI_PLUS), RngStream(23))
    assert result.outcomes == (+1, +1)
    assert states_equal(result.post_state, bell_state(BellLabel.PHI_PLUS))


def test_scheme_b_two_branch_superposition():
    s = from_bell(BellCoefficients(np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)))
    counts = outcome_distribution(s, "scheme_b", 4000, 29)
    assert counts[BellLabel.PHI_MINUS] == 0 and counts[BellLabel.PSI_PLUS] == 0
    assert abs(counts[BellLabel.PHI_PLUS] - 2000) < 4 * np.sqrt(4000 * 0.25)


def test_scheme_b_filter_idempotent():
    rng = np.random.default_rng(61)
    for t in range(50):
        s = haar_random_state(2, rng)
        first = run_scheme_b(s, RngStream(31).substream(t))
        second = run_scheme_b(first.post_state, RngStream(37).substream(t))
        assert second.label is first.label
        assert states_equal(second.post_state, first.post_state)


# --- analytic POVM identities -----------------------------------------------------

def _bell_projector(label):
    v = bell_state(label).amplitudes
    return np.outer(v, v.conj())


def test_scheme_a_povm_equals_bell_projectors():
    povm = scheme_a_povm()
    for label in LABELS:
        np.testing.assert_allclose(povm[outcome_pair(label)], _bell_projector(label), atol=1e-12)
    np.testing.assert_allclose(sum(povm.values()), np.eye(4), atol=1e-12)


def test_scheme_b_measurement_operators_equal_bell_projectors():
    ops = scheme_b_measurement_operators()
    for label in LABELS:
        np.testing.assert_allclose(ops[outcome_pair(label)], _bell_projector(label), atol=1e-12)
    total = sum(m.conj().T @ m for m in ops.values())
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_all_schemes_share_one_label_distribution():
    rng = np.random.default_rng(67)
    for _ in range(500):
        s = haar_random_state(2, rng)
        reference = to_bell(s).probabilities()
        for scheme in SCHEMES:
            np.testing.assert_allclose(
                analytic_label_distribution(s, scheme), reference, atol=1e-12
            )


NEAR_FLOOR, LEADING_MINUS = (resolve_state(spec, 0)[0] for spec in ("1,0,1.5e-6,2.5e-8", "-0.6,0.8i,0,0"))


@given(s=st.one_of(st.sampled_from([bell_state(label) for label in LABELS]), states(2)))
@settings(max_examples=150, deadline=None)
@example(s=NEAR_FLOOR)
@example(s=LEADING_MINUS)
def test_scheme_a_analytic_is_the_per_label_form(s):
    # one stacked product, then one vdot per row: bit for bit the per-element form
    amps = s.amplitudes
    per_label = np.array([np.vdot(amps, element @ amps).real for element in protocols._SCHEME_A_POVM])
    assert analytic_label_distribution(s, "scheme_a").tobytes() == per_label.tobytes()


def test_analytic_routes_do_not_rebuild_their_operators(monkeypatch):
    def rebuilt():
        raise AssertionError("operator rebuilt per call")

    for builder in ("fig1_unitary", "scheme_a_povm", "scheme_b_measurement_operators"):
        monkeypatch.setattr(protocols, builder, rebuilt)
    s = haar_random_state(2, np.random.default_rng(68))
    for scheme in SCHEMES:
        np.testing.assert_allclose(analytic_label_distribution(s, scheme), to_bell(s).probabilities(), atol=1e-12)


# --- LOCC audit --------------------------------------------------------------------

def test_audit_passes_scheme_a_and_b():
    for runner in (run_scheme_a, run_scheme_b):
        result = runner(haar_random_state(2, np.random.default_rng(3)), RngStream(41))
        report = locc_audit(result.trace)
        assert report.passed, report.violations
        assert report.events_checked == len(result.trace)


def test_audit_fails_fig1_on_the_nonlocal_cnot():
    result = run_fig1(bell_state(BellLabel.PHI_PLUS), RngStream(43))
    report = locc_audit(result.trace)
    assert not report.passed
    assert any("gate:CNOT" in v for v in report.violations)


def _plan_events(trace, stage):
    """The stage's ebit and gate:CNOT events as (step, party, op, qubits) rows, the stage prefix cut from the step."""
    return [(event.step.split(":", 1)[1], event.party, event.op, event.qubits)
            for event in trace if event.step.startswith(f"{stage}:") and event.op in ("ebit", "gate:CNOT")]


def test_nonlocal_traces_render_the_wire_plan_the_kernels_run():
    """Every nonlocal stage's ebits and CNOTs are the rows of NONLOCAL_WIRES, the plan _INJECT_PHI_PLUS is built from."""
    assert _coupled_injection(NONLOCAL_WIRES).tobytes() == _INJECT_PHI_PLUS.tobytes()
    for scheme, stages in (("scheme_a", ("szz",)), ("scheme_b", ("szz", "sxx"))):
        for leaf in np.ndindex(4, 4):
            trace = protocols._trace(scheme, leaf)
            assert all(_plan_events(trace, stage) == list(NONLOCAL_WIRES) for stage in stages)
    # fig1's circuit events are the gate rows its runners apply, and fig1_unitary() is their product
    assert [event[:4] for event in protocols._trace("fig1", (0, 0)) if event.step == "circuit"] == list(protocols._FIG1_GATES)
    np.testing.assert_array_equal(fig1_unitary(), protocols._FIG1_MATRICES[1] @ protocols._FIG1_MATRICES[0])


def test_plan_built_operators_are_pinned():
    """sha256 prefixes of the kernels' map and the fig1 circuit matrix, both built from their gate rows."""
    assert hashlib.sha256(_INJECT_PHI_PLUS.tobytes()).hexdigest()[:16] == "2f88df69951ebee3"
    assert hashlib.sha256(fig1_unitary().tobytes()).hexdigest()[:16] == "4e08d6476ed305c8"


def test_audit_fails_a_plan_with_a_cnot_onto_the_other_partys_meter():
    """Alice's CNOT onto Bob's meter (qubit 3) is a nonlocal gate, and only the audit of the plan's trace can see it.

    X on either half of |Phi+> gives the same state, so the mutant's map is the kernels' map bit for bit.
    """
    mutant = tuple(
        (step, party, op, (0, 3) if (party, op) == (ALICE, "gate:CNOT") else qubits)
        for step, party, op, qubits in NONLOCAL_WIRES
    )
    assert _coupled_injection(mutant).tobytes() == _INJECT_PHI_PLUS.tobytes()
    record = MeasurementRecord("zz", NONLOCAL, (1, -1))
    setup = protocols._own("setup", protocols._SYSTEM_PARTIES)
    mutant_trace = [*setup, *protocols._render_nonlocal("szz", protocols._SZZ, record, mutant)]
    report = locc_audit(mutant_trace)
    assert not report.passed
    assert report.violations == ("event 6: alice touched qubits [0, 3] outside its owned set [0, 2]",)
    assert locc_audit([*setup, *protocols._render_nonlocal("szz", protocols._SZZ, record)]).passed


def test_audit_empty_trace_passes():
    report = locc_audit(())
    assert report.passed and report.events_checked == 0


def test_audit_rejects_malformed_traces():
    with pytest.raises(ValueError, match="malformed trace"):
        locc_audit(["not an event"])
    # gate before any ownership declaration
    with pytest.raises(ValueError, match="malformed trace"):
        locc_audit([TraceEvent("s", "alice", "gate:H", (0,))])
    # unknown op
    with pytest.raises(ValueError, match="malformed trace"):
        locc_audit([TraceEvent("s", "alice", "teleport", (0,))])


def test_audit_flags_operations_outside_owned_set():
    trace = [
        TraceEvent("setup", "alice", "own", (0,)),
        TraceEvent("setup", "bob", "own", (1,)),
        TraceEvent("step", "alice", "gate:H", (1,)),
    ]
    report = locc_audit(trace)
    assert not report.passed
    assert "outside its owned set" in report.violations[0]


def test_audit_requires_exchange_before_derivation():
    trace = [
        TraceEvent("setup", "alice", "own", (0,)),
        TraceEvent("szz:multiply", "alice", "multiply", (), outcome=1),
    ]
    report = locc_audit(trace)
    assert not report.passed
    assert "without a prior" in report.violations[0]


def test_audit_flags_non_classical_payload():
    message = ClassicalMessage("alice", "bob", {"state": np.zeros(4)}, "szz:exchange-outcomes")
    trace = [TraceEvent("szz:exchange-outcomes", "alice", "send", (), message=message)]
    report = locc_audit(trace)
    assert not report.passed
    assert "not classical" in report.violations[0]


# --- trace / message / ledger machinery ------------------------------------------------

# sha256 prefix of the JSON-lines traces of every traced run on
# RngStream(seed).substream(0), seeds 0-63, over the inputs below
TRACE_DIGESTS = {
    "fig1": "fee8523ad4d890cb",
    "scheme_a": "7ace27214ae727a0",
    "scheme_b": "e70f1142213badea",
}


def _digest_states():
    """The inputs of the pinned trace digests."""
    states = [bell_state(label) for label in LABELS] + [haar_random_state(2, np.random.default_rng(83))]
    states.append(resolve_state("1,0,1.5e-6,2.5e-8", 0)[0])  # branches near PROB_FLOOR
    return states


@pytest.mark.parametrize("scheme", sorted(TRACE_DIGESTS))
def test_traces_match_pinned_digests(scheme):
    digest = hashlib.sha256()
    for s in _digest_states():
        for seed in range(64):
            result = SCHEMES[scheme].runner(s, RngStream(seed).substream(0), record_trace=True)
            digest.update(trace_to_jsonl(result.trace).encode() + b"\n")
    assert digest.hexdigest()[:16] == TRACE_DIGESTS[scheme]


@pytest.mark.parametrize("scheme", sorted(TRACE_DIGESTS))
def test_emitted_leaf_traces_match_pinned_digests(scheme, tmp_path):
    """The --emit-trace file of a run, trial 0 rendered from its leaf, is the runner's trace byte for byte.

    Odd seeds run one trial (the walk), even seeds TREE_WALK trials (the chunks).
    """
    digest = hashlib.sha256()
    for k, s in enumerate(_digest_states()):
        for seed in range(64):
            path, trials = tmp_path / f"{k}-{seed}.jsonl", 1 if seed % 2 else TREE_WALK
            with open(path, "wb", buffering=0) as trace:
                cli._run_trials(s, cli.RunConfig(scheme, "-", trials, seed, emit_trace=str(path)), trace)
            digest.update(path.read_bytes())
    assert digest.hexdigest()[:16] == TRACE_DIGESTS[scheme]


def _reference_event(event):
    """The event as the dict the json reference encodes."""
    d = {"step": event.step, "party": event.party, "op": event.op, "qubits": list(event.qubits)}
    if event.message is not None:
        d["message"] = {
            "from": event.message.sender,
            "to": event.message.recipient,
            "payload": dict(event.message.payload),
            "step": event.message.step,
        }
    if event.outcome is not None:
        d["outcome"] = event.outcome
    return d


_REFERENCE_ENCODER = json.JSONEncoder(sort_keys=True)


def _reference_jsonl(trace):
    """Reference serializer: one sorted-key json encoding of each event's dict."""
    return "\n".join(_REFERENCE_ENCODER.encode(_reference_event(event)) for event in trace)


def _leaf_traces(scheme):
    """The trace of every leaf of the scheme's outcome tree."""
    shape = OutcomeTree(bell_state(BellLabel.PHI_PLUS), SCHEMES[scheme].tree).labels.shape
    return [protocols._trace(scheme, leaf) for leaf in np.ndindex(shape)]


@pytest.mark.parametrize("scheme", sorted(TRACE_DIGESTS))
def test_trace_writer_matches_the_json_reference(scheme):
    traces = _leaf_traces(scheme)
    assert len(traces) == {"fig1": 4, "scheme_a": 16, "scheme_b": 16}[scheme]
    for s in _digest_states():
        for seed in range(16):
            traces.append(SCHEMES[scheme].runner(s, RngStream(seed).substream(0), record_trace=True).trace)
    for trace in traces:
        assert trace_to_jsonl(trace) == _reference_jsonl(trace)


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.dictionaries(st.integers(-3, 3), inner, max_size=2),
    ),
    max_leaves=6,
)


@given(
    step=st.text(), party=st.one_of(st.none(), st.text()), op=st.text(),
    qubits=st.lists(_JSON_SCALARS, max_size=3).map(tuple),
    message=st.one_of(
        st.none(),
        st.builds(ClassicalMessage, _JSON_SCALARS, _JSON_SCALARS,
                  st.one_of(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=3),
                            st.dictionaries(st.integers(-3, 3), _JSON_VALUES, max_size=2)),
                  _JSON_SCALARS),
    ),
    outcome=_JSON_VALUES,
)
@settings(max_examples=100, deadline=None)
@example(step="x", party=None, op="\u00e9\"\\\n\U0001f600", qubits=(), message=None, outcome=float("nan"))
@example(step="x", party="a", op="o", qubits=(True, 1.5), message=None, outcome=2**70)
def test_trace_writer_renders_any_json_value_as_json_does(step, party, op, qubits, message, outcome):
    trace = [TraceEvent(step, party, op, qubits, message, outcome)]
    assert trace_to_jsonl(trace) == _reference_jsonl(trace)


@pytest.mark.parametrize(
    "event",
    [
        TraceEvent("s", "alice", "own", (0, np.int64(1))),
        TraceEvent("s", "alice", "send", message=ClassicalMessage("alice", "bob", {"outcome": np.int64(1)}, "s")),
        TraceEvent("s", "alice", "measure:z", (0,), outcome=np.int64(-1)),
    ],
    ids=["qubits", "payload", "outcome"],
)
def test_trace_writer_rejects_numpy_integers(event):
    # as the json encoder does: never a line reading np.int64(1)
    for write in (trace_to_jsonl, _reference_jsonl):
        with pytest.raises(TypeError, match="int64"):
            write([event])


def test_trace_jsonl_schema():
    result = run_scheme_b(bell_state(BellLabel.PSI_PLUS), RngStream(47))
    lines = trace_to_jsonl(result.trace).splitlines()
    assert len(lines) == len(result.trace)
    allowed = {"step", "party", "op", "qubits", "message", "outcome"}
    for line in lines:
        event = json.loads(line)
        assert set(event) <= allowed
        assert {"step", "party", "op", "qubits"} <= set(event)


def test_each_stage_exchanges_outcomes_both_ways():
    result = run_scheme_a(bell_state(BellLabel.PHI_PLUS), RngStream(53))
    sent = [event.message for event in result.trace if event.op == "send"]
    # two stages, symmetric exchange each: four messages
    assert len(sent) == 4
    assert {m.sender for m in sent} == {"alice", "bob"}
    for m in sent:
        assert m.payload["outcome"] in (+1, -1)


def test_untraced_runs_skip_trace_but_keep_ledger():
    result = run_scheme_b(bell_state(BellLabel.PHI_PLUS), RngStream(57), record_trace=False)
    assert result.trace == ()
    assert result.ledger.ebits_consumed == 2


def test_ledger_never_consumes_more_than_granted():
    ledger = ResourceLedger(2)
    ledger.consume(1)
    ledger.consume(1)
    assert ledger.ebits_consumed == 2
    with pytest.raises(ValueError, match="insufficient ebits"):
        ledger.consume(1)
    assert ledger.ebits_consumed == 2
    with pytest.raises(ValueError, match="insufficient ebits"):
        ResourceLedger(1).consume(2)


def test_party_and_result_invariants():
    party = Party("alice", frozenset({0, 2}))
    assert party.owned_qubits == {0, 2}
    for label in LABELS:
        result = ProtocolResult(outcome_pair(label), None, (), ResourceLedger(0))
        assert result.label is label


# --- Monte Carlo wrapper -------------------------------------------------------------

def test_outcome_distribution_deterministic_and_complete():
    s = haar_random_state(2, np.random.default_rng(71))
    first = outcome_distribution(s, "scheme_a", 500, 123)
    second = outcome_distribution(s, "scheme_a", 500, 123)
    assert first == second
    assert sum(first.values()) == 500
    assert set(first) == set(LABELS)


def test_outcome_distribution_eigenstate_is_pure():
    counts = outcome_distribution(bell_state(BellLabel.PSI_PLUS), "scheme_a", 1000, 3)
    assert counts[BellLabel.PSI_PLUS] == 1000


def test_outcome_distribution_single_trial():
    counts = outcome_distribution(bell_state(BellLabel.PHI_MINUS), "scheme_b", 1, 5)
    assert sum(counts.values()) == 1
    assert counts[BellLabel.PHI_MINUS] == 1


def test_outcome_distribution_validates_arguments():
    s = bell_state(BellLabel.PHI_PLUS)
    with pytest.raises(ValueError, match="trials"):
        outcome_distribution(s, "scheme_a", 0, 1)
    with pytest.raises(ValueError, match="unknown scheme"):
        outcome_distribution(s, "scheme_c", 10, 1)


# every public entry point that takes a 2-qubit state, called on one of another size
_TWO_QUBIT_ENTRY_POINTS = {
    "to_bell": to_bell,
    "nonlocal_product_measurement": lambda s: nonlocal_product_measurement(s, spin_product("z", "z"), RngStream(0)),
    "local_product_measurement": lambda s: local_product_measurement(s, spin_product("x", "x"), RngStream(0)),
    **{run.__name__: lambda s, run=run: run(s, RngStream(0)) for run in (run_fig1, run_scheme_a, run_scheme_b)},
    **{f"OutcomeTree-{name}": lambda s, name=name: OutcomeTree(s, SCHEMES[name].tree) for name in SCHEMES},
    **{f"analytic-{name}": lambda s, name=name: analytic_label_distribution(s, name) for name in SCHEMES},
    "build_photonic_run": photonic.build_photonic_run,
}


@pytest.mark.parametrize("n_qubits", [1, 3])
@pytest.mark.parametrize("entry", sorted(_TWO_QUBIT_ENTRY_POINTS))
def test_two_qubit_entry_points_reject_other_sizes(entry, n_qubits):
    with pytest.raises(ValueError, match="expected a 2-qubit state"):
        _TWO_QUBIT_ENTRY_POINTS[entry](computational_state("0" * n_qubits))


# uniform draws per trial: a fig1 readout of a Bell input is certain, while each
# nonlocal meter pair and the local S_xx readout are fair coins on any input
DRAWS_PER_TRIAL = {
    ("fig1", "haar"): 2, ("scheme_a", "haar"): 2, ("scheme_b", "haar"): 2, ("photonic", "haar"): 1,
    ("fig1", "bell"): 0, ("scheme_a", "bell"): 2, ("scheme_b", "bell"): 2, ("photonic", "bell"): 1,
}


@pytest.mark.parametrize("scheme,kind", sorted(DRAWS_PER_TRIAL))
def test_draws_per_trial_are_pinned(scheme, kind):
    if kind == "haar":
        gen = np.random.default_rng(73)
        states = [haar_random_state(2, gen) for _ in range(8)]
    else:
        states = [bell_state(label) for label in LABELS]
    for t, s in enumerate(states):
        counters, results = [], []
        for traced in (False, True):
            rng = RngStream(79).substream(t)
            if scheme == "photonic":  # no runner and no trace: one detection
                photonic.detect(photonic.build_photonic_run(s), rng)
            else:
                results.append(SCHEMES[scheme].runner(s, rng, record_trace=traced))
            counters.append(rng.counter)
        assert counters == [DRAWS_PER_TRIAL[scheme, kind]] * 2
        if results:  # tracing changes nothing but the trace
            untraced, traced = (
                (r.outcomes, r.ledger, None if r.post_state is None else r.post_state.amplitudes.tobytes())
                for r in results
            )
            assert untraced == traced


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_library_rejects_out_of_range_seeds(seed):
    s = bell_state(BellLabel.PHI_PLUS)
    with pytest.raises(ValueError, match="seed"):
        list(iterate_runs(s, "fig1", 1, seed))
    with pytest.raises(ValueError, match="seed"):
        outcome_distribution(s, "photonic", 1, seed)


def test_iterate_runs_reproducible_sequences():
    s = from_bell(BellCoefficients(0.5, 0.5, 0.5, 0.5))
    labels_a = [r.label for r in iterate_runs(s, "scheme_b", 200, 99)]
    labels_b = [r.label for r in iterate_runs(s, "scheme_b", 200, 99)]
    assert labels_a == labels_b
    assert len(set(labels_a)) == 4


def test_audit_report_is_frozen_record():
    report = AuditReport(True, (), 0)
    with pytest.raises(AttributeError):
        report.passed = False
