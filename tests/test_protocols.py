"""Protocol runs, LOCC audit, ledgers and outcome distributions."""
import json

import numpy as np
import pytest

from bellsim.bellcore import BellCoefficients, BellLabel, bell_state, from_bell, outcome_pair, to_bell
from bellsim.measure import RngStream
from bellsim.protocols import (
    AuditReport,
    ClassicalMessage,
    Party,
    ProtocolResult,
    ResourceLedger,
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

LABELS = list(BellLabel)
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
        for scheme in ("fig1", "scheme_a", "scheme_b"):
            np.testing.assert_allclose(
                analytic_label_distribution(s, scheme), reference, atol=1e-12
            )


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


# --- trace / channel / ledger machinery ------------------------------------------------

def test_trace_jsonl_schema():
    result = run_scheme_b(bell_state(BellLabel.PSI_PLUS), RngStream(47))
    lines = trace_to_jsonl(result.trace).splitlines()
    assert len(lines) == len(result.trace)
    allowed = {"step", "party", "op", "qubits", "message", "outcome"}
    for line in lines:
        event = json.loads(line)
        assert set(event) <= allowed
        assert {"step", "party", "op", "qubits"} <= set(event)


def test_messages_flow_through_custom_channel():
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


def test_ebit_source_grants_phi_plus_and_debits():
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
        result = ProtocolResult(outcome_pair(label), None, (), ResourceLedger())
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
