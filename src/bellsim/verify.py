"""Invariant suite behind ``bellsim verify``: one group per module contract.

Each group re-checks a family of invariants from scratch (fresh random
states, independently built oracle matrices) and reports the first
counterexample it finds. Groups are sized to keep the whole sweep in the
low seconds.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bellcore import (
    BellLabel,
    bell_state,
    classify,
    commutator,
    from_bell,
    outcome_pair,
    spin_product,
    to_bell,
)
from .measure import (
    LOCAL,
    NONLOCAL,
    RngStream,
    local_product_measurement,
    meas_operator_family,
    nonlocal_product_measurement,
    povm_family,
)
from .photonic import DetectorIndex, REGISTER_A, REGISTER_B, build_photonic_run, label_distribution, photonic_label
from .protocols import (
    SCHEMES,
    analytic_label_distribution,
    locc_audit,
    outcome_distribution,
    run_fig1,
    run_scheme_a,
    run_scheme_b,
)
from .qstate import (
    PAULIS,
    StateVector,
    computational_state,
    fidelity,
    haar_random_state,
    states_equal,
    tensor,
)

AXES = ("x", "y", "z")
_LABELS = list(BellLabel)


@dataclass(frozen=True)
class GroupResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None


class _Failure(Exception):
    def __init__(self, detail: str, counterexample: dict):
        super().__init__(detail)
        self.detail = detail
        self.counterexample = counterexample


def _check(condition: bool, detail: str, **counterexample) -> None:
    if not condition:
        raise _Failure(detail, counterexample)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _group_pauli_algebra():
    eye = np.eye(2)
    for axis in AXES:
        delta = float(np.max(np.abs(PAULIS[axis] @ PAULIS[axis] - eye)))
        _check(delta <= 1e-15, f"sigma_{axis}^2 != I", axis=axis, deviation=delta)
    cyclic = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
    for a, b, c in cyclic:
        delta = float(np.max(np.abs(PAULIS[a] @ PAULIS[b] - 1j * PAULIS[c])))
        _check(delta <= 1e-15, f"sigma_{a} sigma_{b} != i sigma_{c}", pair=a + b, deviation=delta)


def _group_state_core():
    rng = np.random.default_rng(2026)
    for case in range(200):
        n = int(rng.integers(1, 4))
        s = haar_random_state(n, rng)
        u = _haar_unitary(2, rng)
        out = u @ s.amplitudes.reshape(2, -1)
        drift = abs(float(np.linalg.norm(out)) - 1.0)
        _check(drift <= 1e-12, "unitary broke the norm", case=case, drift=drift)
    for case in range(50):
        a, b, c = (haar_random_state(1, rng) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        delta = float(np.max(np.abs(left.amplitudes - right.amplitudes)))
        _check(delta <= 1e-15, "tensor not associative", case=case, deviation=delta)


def _group_bell_roundtrip():
    rng = np.random.default_rng(2027)
    for case in range(200):
        s = haar_random_state(2, rng)
        coeffs = to_bell(s)
        total = sum(abs(x) ** 2 for x in coeffs.as_tuple())
        _check(abs(total - 1.0) <= 1e-12, "coefficients not normalized", case=case, total=total)
        _check(states_equal(from_bell(coeffs), s), "round trip lost the state", case=case)


def _group_spin_commutators():
    for i, j in itertools.product(AXES, repeat=2):
        got = commutator(spin_product(i, i).matrix, spin_product(j, j).matrix)
        delta = float(np.max(np.abs(got)))
        _check(delta <= 1e-15, f"[S_{i}{i}, S_{j}{j}] != 0", pair=(i, j), deviation=delta)
        a = np.kron(PAULIS[i], PAULIS[i])
        b = np.kron(PAULIS[j], PAULIS[j])
        oracle_delta = float(np.max(np.abs(got - (a @ b - b @ a))))
        _check(oracle_delta <= 1e-15, "commutator disagrees with matrix oracle", pair=(i, j))


def _group_common_eigenbasis():
    szz, sxx = spin_product("z", "z"), spin_product("x", "x")
    for label in _LABELS:
        m, n = outcome_pair(label)
        vec = bell_state(label).amplitudes
        for sp, eig in ((szz, m), (sxx, n)):
            residual = float(np.max(np.abs(sp.matrix @ vec - eig * vec)))
            _check(
                residual <= 1e-12,
                f"{label.value} is not a {sp.name} eigenvector",
                label=label.value,
                observable=sp.name,
                residual=residual,
            )
        _check(classify(m, n) is label, "classify disagrees with the eigenbasis", label=label.value)


def _group_spectral_projectors():
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        p, q = sp.projector_plus, sp.projector_minus
        for name, delta in (
            ("completeness", np.max(np.abs(p + q - np.eye(4)))),
            ("orthogonality", np.max(np.abs(p @ q))),
            ("idempotence", np.max(np.abs(p @ p - p))),
        ):
            _check(float(delta) <= 1e-12, f"projector {name} failed for {sp.name}", observable=sp.name, law=name)


def _group_measurement_families():
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        local = povm_family(LOCAL, sp)
        nonlocal_ = povm_family(NONLOCAL, sp)
        for e_l, e_n in zip(local, nonlocal_):
            delta = float(np.max(np.abs(e_l.matrix - e_n.matrix)))
            _check(delta <= 1e-12, "strategies disagree at the POVM level", observable=sp.name)
        povm_sum = sum(e.matrix for e in local)
        _check(float(np.max(np.abs(povm_sum - np.eye(4)))) <= 1e-12, "POVM incomplete", observable=sp.name)
        for strategy in (LOCAL, NONLOCAL):
            family = meas_operator_family(strategy, sp)
            kraus_sum = sum(m.matrix.conj().T @ m.matrix for m in family)
            _check(
                float(np.max(np.abs(kraus_sum - np.eye(4)))) <= 1e-12,
                "Kraus family incomplete",
                observable=sp.name,
                strategy=strategy,
            )


def _group_superposition_preservation():
    rng = np.random.default_rng(2028)
    szz = spin_product("z", "z")
    for case in range(50):
        s = haar_random_state(2, rng)
        record, post = nonlocal_product_measurement(s, szz, RngStream(520).substream(case))
        projected = szz.projector(record.product_outcome) @ s.amplitudes
        expected = StateVector(2, projected / np.linalg.norm(projected))
        _check(states_equal(post, expected), "post-state left the eigenspace", case=case)
    # contrast: from |Phi+>, the nonlocal route pins n=+1, the local one does not
    phi = bell_state(BellLabel.PHI_PLUS)
    sxx = spin_product("x", "x")
    for case in range(400):
        rng_t = RngStream(521).substream(case)
        _, mid = nonlocal_product_measurement(phi, szz, rng_t)
        record, _ = local_product_measurement(mid, sxx, rng_t)
        _check(record.product_outcome == +1, "nonlocal S_zz failed to preserve n", case=case)
    hits = 0
    trials = 2000
    for case in range(trials):
        rng_t = RngStream(522).substream(case)
        _, mid = local_product_measurement(phi, szz, rng_t)
        record, _ = local_product_measurement(mid, sxx, rng_t)
        hits += record.product_outcome == +1
    _check(
        abs(hits / trials - 0.5) < 0.05,
        "local strategy should randomize the second outcome",
        frequency=hits / trials,
    )


def _group_bell_filter():
    rng = np.random.default_rng(2029)
    seen = set()
    for case in range(50):
        s = haar_random_state(2, rng)
        result = run_scheme_b(s, RngStream(523).substream(case))
        fid = fidelity(result.post_state, bell_state(result.label))
        _check(fid >= 1 - 1e-12, "filter output is not the labelled Bell state", case=case, fidelity=fid)
        again = run_scheme_b(result.post_state, RngStream(524).substream(case))
        _check(again.label is result.label, "filter not idempotent on the label", case=case)
        _check(states_equal(again.post_state, result.post_state), "filter moved a Bell state", case=case)
        seen.add(result.label)
    _check(seen == set(_LABELS), "filter never produced some label", seen=sorted(l.value for l in seen))


def _group_resource_ledger_and_audit():
    rng = np.random.default_rng(2030)
    for case in range(25):
        s = haar_random_state(2, rng)
        a = run_scheme_a(s, RngStream(525).substream(case))
        _check(a.ledger.ebits_consumed == 1, "scheme (a) must consume exactly 1 ebit", consumed=a.ledger.ebits_consumed)
        report = locc_audit(a.trace)
        _check(report.passed, "scheme (a) trace failed the LOCC audit", violations=list(report.violations))
        b = run_scheme_b(s, RngStream(526).substream(case))
        _check(b.ledger.ebits_consumed == 2, "scheme (b) must consume exactly 2 ebits", consumed=b.ledger.ebits_consumed)
        report = locc_audit(b.trace)
        _check(report.passed, "scheme (b) trace failed the LOCC audit", violations=list(report.violations))
        f = run_fig1(s, RngStream(527).substream(case))
        report = locc_audit(f.trace)
        _check(not report.passed, "fig1 trace must fail the LOCC audit", case=case)
        _check(f.ledger.ebits_consumed == 0, "fig1 consumes no ebits", consumed=f.ledger.ebits_consumed)


def _group_fig1_mapping():
    outputs = {
        BellLabel.PHI_PLUS: "00",
        BellLabel.PHI_MINUS: "10",
        BellLabel.PSI_PLUS: "01",
        BellLabel.PSI_MINUS: "11",
    }
    for label, bits in outputs.items():
        for case in range(100):
            result = run_fig1(bell_state(label), RngStream(528).substream(case))
            ok = result.label is label and states_equal(result.post_state, computational_state(bits))
            _check(ok, "fig1 mapped a Bell input to the wrong output", label=label.value, case=case)


def _group_born_rule():
    rng = np.random.default_rng(2031)
    for case in range(100):
        s = haar_random_state(2, rng)
        reference = to_bell(s).probabilities()
        for scheme in SCHEMES:
            delta = float(np.max(np.abs(analytic_label_distribution(s, scheme) - reference)))
            _check(
                delta <= 1e-12,
                "analytic distribution deviates from the Bell coefficients",
                case=case,
                scheme=scheme,
                deviation=delta,
            )
    s = haar_random_state(2, rng)
    probs = to_bell(s).probabilities()
    trials = 20000
    counts = outcome_distribution(s, "scheme_a", trials, 529)
    for label in _LABELS:
        p = probs[label.index]
        sigma = np.sqrt(trials * p * (1 - p))
        _check(
            abs(counts[label] - trials * p) <= 4 * sigma + 1,
            "empirical frequency outside the 4-sigma band",
            label=label.value,
            count=counts[label],
            expected=trials * p,
        )


def _group_photonic_equivalence():
    rng = np.random.default_rng(2032)
    for case in range(100):
        s = haar_random_state(2, rng)
        delta = float(np.max(np.abs(label_distribution(s) - analytic_label_distribution(s, "scheme_a"))))
        _check(delta <= 1e-12, "photonic route deviates from scheme (a)", case=case, deviation=delta)
    labels = {
        photonic_label((DetectorIndex("A", pa), DetectorIndex("B", pb)))
        for pa, pb in itertools.product(range(4), repeat=2)
    }
    _check(labels == set(_LABELS), "port pairs do not cover the four labels")
    for case in range(20):
        s = haar_random_state(2, rng)
        ab = build_photonic_run(s, block_order=(REGISTER_A, REGISTER_B))
        ba = build_photonic_run(s, block_order=(REGISTER_B, REGISTER_A))
        delta = float(np.max(np.abs(ab.amplitudes - ba.amplitudes)))
        _check(delta <= 1e-12, "optical blocks do not commute", case=case, deviation=delta)


GROUPS = (
    ("pauli-algebra", _group_pauli_algebra),
    ("state-core", _group_state_core),
    ("bell-roundtrip", _group_bell_roundtrip),
    ("spin-commutators", _group_spin_commutators),
    ("common-eigenbasis", _group_common_eigenbasis),
    ("spectral-projectors", _group_spectral_projectors),
    ("measurement-families", _group_measurement_families),
    ("superposition-preservation", _group_superposition_preservation),
    ("bell-filter", _group_bell_filter),
    ("resource-ledger-and-audit", _group_resource_ledger_and_audit),
    ("fig1-mapping", _group_fig1_mapping),
    ("born-rule", _group_born_rule),
    ("photonic-equivalence", _group_photonic_equivalence),
)


def run_verification() -> list[GroupResult]:
    """Run every invariant group; never raises, failures become results."""
    results = []
    for name, group in GROUPS:
        try:
            group()
        except _Failure as failure:
            results.append(GroupResult(name, False, failure.detail, dict(failure.counterexample, group=name)))
        else:
            results.append(GroupResult(name, True, "", None))
    return results
