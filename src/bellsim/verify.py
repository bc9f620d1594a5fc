"""Invariant suite behind ``bellsim verify`` and the acceptance criteria.

Each group re-checks a family of invariants from scratch (fresh random
states, independently built oracle matrices) and reports the first
counterexample it finds. ``tests/test_acceptance.py`` calls the same checks.
Those of criteria 3, 4, 7 and 8 have one size: the criterion's seeds,
sample sizes and band. ``check_born_rule`` and
``check_resource_ledger_and_audit`` keep keyword arguments, and ``verify``
runs them smaller: at criteria 2 and 6's sizes (1e5 sampled trials, 600
traced runs) they would make the sweep about two thirds slower.
``check_born_rule`` and ``check_photonic_equivalence`` hand the analytic
routes, which take a stack of states, ``_BLOCK`` Haar states at a time.
Every check draws its consecutive Haar 2-qubit states ``_BLOCK`` at a time
(:func:`~bellsim.qstate.haar_random_states`): the same states, in the same
order, as one draw per state. ``run_verification`` never raises: a group
that raises anything but its own failure fails, naming the exception.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

from .bellcore import (
    _LABELS,
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
    STRATEGIES,
    OutcomeTree,
    RngStream,
    meas_operator_family,
    nonlocal_product_measurement,
    povm_family,
)
from .photonic import DetectorIndex, REGISTER_A, REGISTER_B, build_photonic_run, label_distributions, photonic_label
from .protocols import (
    SCHEMES,
    _spin_product_scheme,
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
    haar_random_states,
    phase_canonical,
    states_equal,
    tensor,
)

AXES = ("x", "y", "z")
# rows are the four Bell state amplitude vectors, in label order
_BELL_MATRIX = np.array([bell_state(label).amplitudes for label in _LABELS])


@dataclass(frozen=True)
class GroupResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None


def _finite(value):
    """``value`` with each non-finite float, at any depth, replaced by its repr, so that json.dumps writes strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, dict):
        return {key: _finite(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(inner) for inner in value]
    return value


class _Failure(Exception):
    def __init__(self, detail: str, counterexample: dict):
        super().__init__(f"{detail} {json.dumps(_finite(counterexample), sort_keys=True, default=str)}")
        self.detail = detail
        self.counterexample = counterexample


def _check(condition: bool, detail: str, **counterexample) -> None:
    if not condition:
        raise _Failure(detail, counterexample)


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar U(2): e^{i phi} [[a, -conj(b)], [b, conj(a)]] with (a, b) Haar on S^3 and phi uniform."""
    g0, g1, g2, g3 = rng.standard_normal(4).tolist()
    a, b, phi = complex(g0, g1), complex(g2, g3), math.tau * rng.random()
    phase = complex(math.cos(phi), math.sin(phi)) / math.hypot(g0, g1, g2, g3)
    return np.array([[a * phase, -b.conjugate() * phase], [b * phase, a.conjugate() * phase]])


# Bounds from the operation count, in roundings of u = 2**-53. A route's label probability is a sum of squared
# amplitudes a few products deep, within about 33 u (photonic), 10 u (scheme (a)) or 15 u (|c_i|^2) of exact, so
# two routes agree within 64 u = 2**-47 = 7.1e-15; the photonic build's two block orders round each amplitude
# within 16 u = 2**-49. Worst over 5000 Haar states under the default, Haswell and Prescott BLAS kernels and
# without AVX2/AVX-512: 7.8e-16 (a route against |c_i|^2), 1.0e-15 (photonic against (a)), 7.9e-17 (block orders).
_ROUTE_BOUND, _BUILD_BOUND = 2.0**-47, 2.0**-49
# states per route call in born-rule and photonic-equivalence, and per Haar draw, picked by a sweep of verify's
# time and heap
_BLOCK = 10


def _haar_cases(rng: np.random.Generator, cases: int):
    """The next ``cases`` Haar 2-qubit states of ``rng``, in order, drawn ``_BLOCK`` at a time."""
    for start in range(0, cases, _BLOCK):
        yield from haar_random_states(2, rng, min(_BLOCK, cases - start))


def _check_blocks(rng: np.random.Generator, cases: int, deviations, detail: str, schemes=()) -> None:
    """Check ``cases`` Haar states from ``rng`` by ``deviations(states, amps)`` of each block of ``_BLOCK``,
    ``(n,)`` or ``(n, schemes)``: the first over ``_ROUTE_BOUND`` or NaN, by case then scheme, fails as if alone.
    """
    buffer = np.empty((_BLOCK, 4), dtype=complex)
    for start in range(0, cases, _BLOCK):
        states = haar_random_states(2, rng, min(_BLOCK, cases - start))
        for row, s in zip(buffer, states):
            row[...] = s.amplitudes
        found = deviations(states, buffer[: len(states)])
        over = np.argwhere(~(found <= _ROUTE_BOUND))
        if len(over):
            index = tuple(over[0])
            where = {"scheme": schemes[index[1]]} if schemes else {}
            _check(False, detail, case=start + int(index[0]), **where, deviation=float(found[index]))


def _close(x: np.ndarray, y: np.ndarray) -> bool:
    """np.allclose(x, y, rtol=1e-7, atol=1e-12) on finite input, without its wrapper overhead."""
    return bool((np.abs(x - y) <= 1e-12 + 1e-7 * np.abs(y)).all())


def check_pauli_algebra():
    eye = np.eye(2)
    for axis in AXES:
        delta = float(np.abs(PAULIS[axis] @ PAULIS[axis] - eye).max())
        _check(delta <= 1e-15, f"sigma_{axis}^2 != I", axis=axis, deviation=delta)
    cyclic = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
    for a, b, c in cyclic:
        delta = float(np.abs(PAULIS[a] @ PAULIS[b] - 1j * PAULIS[c]).max())
        _check(delta <= 1e-15, f"sigma_{a} sigma_{b} != i sigma_{c}", pair=a + b, deviation=delta)


def check_state_core():
    rng = np.random.default_rng(2026)
    for case in range(200):
        n = int(rng.integers(1, 4))
        s = haar_random_state(n, rng)
        u = _haar_unitary(rng)
        out = u @ s.amplitudes.reshape(2, -1)
        drift = abs(math.sqrt(np.vdot(out, out).real) - 1.0)
        _check(drift <= 1e-12, "unitary broke the norm", case=case, drift=drift)
    for case in range(50):
        a, b, c = haar_random_states(1, rng, 3)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        delta = float(np.abs(left.amplitudes - right.amplitudes).max())
        _check(delta <= 1e-15, "tensor not associative", case=case, deviation=delta)


def check_bell_roundtrip():
    rng = np.random.default_rng(2027)
    for case, s in enumerate(_haar_cases(rng, 200)):
        coeffs = to_bell(s)
        total = sum(abs(x) ** 2 for x in coeffs.as_tuple())
        _check(abs(total - 1.0) <= 1e-12, "coefficients not normalized", case=case, total=total)
        _check(states_equal(from_bell(coeffs), s), "round trip lost the state", case=case)


def check_spin_commutators():
    """Same-axis spin products commute, and all 81 commutators of the nine match the kron-built matrix oracle."""
    products = [spin_product(i, j) for i, j in itertools.product(AXES, repeat=2)]
    krons = np.array([np.kron(PAULIS[sp.i], PAULIS[sp.j]) for sp in products])
    for p, kron in zip(products, krons):  # one row of 9 pairs at a time, so the check holds 9 matrices, not 81
        got = [commutator(p.matrix, q.matrix) for q in products]
        oracles = kron @ krons - krons @ kron
        deltas = np.abs(got - oracles).max(axis=(1, 2)).tolist()
        for q, got_q, oracle, mismatch in zip(products, got, oracles, deltas):
            if p.i == p.j and q.i == q.j:
                delta = float(np.abs(got_q).max())
                _check(delta <= 1e-15, f"[{p.name}, {q.name}] != 0", pair=(p.i, q.i), deviation=delta)
                oracle_delta = float(np.abs(oracle).max())
                _check(oracle_delta <= 1e-15, "matrix oracle commutator != 0", pair=(p.i, q.i), deviation=oracle_delta)
            _check(mismatch <= 1e-15, "commutator disagrees with matrix oracle", pair=(p.name, q.name))


def check_common_eigenbasis():
    szz, sxx = spin_product("z", "z"), spin_product("x", "x")
    for label in _LABELS:
        m, n = outcome_pair(label)
        vec = bell_state(label).amplitudes
        for sp, eig in ((szz, m), (sxx, n)):
            residual = float(np.abs(sp.matrix @ vec - eig * vec).max())
            _check(
                residual <= 1e-12,
                f"{label.value} is not a {sp.name} eigenvector",
                label=label.value,
                observable=sp.name,
                residual=residual,
            )
        _check(classify(m, n) is label, "classify disagrees with the eigenbasis", label=label.value)


def check_spectral_projectors():
    for i, j in itertools.product(AXES, repeat=2):
        sp = spin_product(i, j)
        p, q = sp.projector_plus, sp.projector_minus
        for name, delta in (
            ("completeness", np.abs(p + q - np.eye(4)).max()),
            ("orthogonality", np.abs(p @ q).max()),
            ("idempotence", np.abs(p @ p - p).max()),
        ):
            _check(float(delta) <= 1e-12, f"projector {name} failed for {sp.name}", observable=sp.name, law=name)


def check_measurement_families():
    """Each strategy's Kraus family is complete and its derived POVM is (I +- S)/2.

    The sampler (branch function) and the Kraus family are built independently:
    on a few Haar states the branch weights, summed by product outcome, must
    equal <psi|E_m|psi>, and each local weight ||M_(mu,nu) psi||^2.
    """
    rng = np.random.default_rng(2033)
    states = [s.amplitudes for s in haar_random_states(2, rng, 4)]
    for (i, j), (strategy, entry) in itertools.product(itertools.product(AXES, repeat=2), STRATEGIES.items()):
        sp = spin_product(i, j)
        where = {"observable": sp.name, "strategy": strategy}
        kraus = meas_operator_family(strategy, sp)
        kraus_sum = sum(op.conj().T @ op for op in kraus.values())
        _check(float(np.abs(kraus_sum - np.eye(4)).max()) <= 1e-12, "Kraus family incomplete", **where)
        povm = povm_family(strategy, sp)
        for m in (+1, -1):
            delta = float(np.abs(povm[m] - (np.eye(4) + m * np.kron(PAULIS[i], PAULIS[j])) / 2).max())
            _check(delta <= 1e-12, "derived POVM is not (I +- S)/2", outcome=m, deviation=delta, **where)
        for case, amps in enumerate(states):
            # weights by readout bits [bit(z_A), bit(z_B)]; equal bits multiply to +1
            w = entry.branches(amps, sp)[0].reshape(2, 2)
            pairs = [(+1, w[0, 0] + w[1, 1], povm[+1]), (-1, w[0, 1] + w[1, 0], povm[-1])]
            if strategy == LOCAL:
                pairs += [(key, w[(1 - key[0]) // 2, (1 - key[1]) // 2], op.conj().T @ op)
                          for key, op in kraus.items()]
            for key, sampled, element in pairs:
                delta = abs(float(sampled) - float(np.vdot(amps, element @ amps).real))
                _check(delta <= 1e-12, "branch weights disagree with the Kraus family", case=case, outcome=key,
                       deviation=delta, **where)


def check_superposition_preservation() -> float:
    """Nonlocal S_zz keeps the eigenspace superposition; local S_zz destroys it.

    Returns the local route's frequency of n=+1 from |Phi+> over 10 000
    trials, which must lie strictly within 0.02 of 1/2.
    """
    rng = np.random.default_rng(404)
    szz = spin_product("z", "z")
    plus_branches = 0
    for case, s in enumerate(_haar_cases(rng, 60)):
        c = to_bell(s)
        record, post = nonlocal_product_measurement(s, szz, RngStream(405).substream(case))
        projected = szz.projector(record.product_outcome) @ s.amplitudes
        # S_zz = +1 keeps the Phi components, -1 the Psi ones
        if record.product_outcome == +1:
            branch = np.array([c.c1, c.c2, 0, 0])
            plus_branches += 1
        else:
            branch = np.array([0, 0, c.c3, c.c4])
        _check(_close(projected, branch @ _BELL_MATRIX), "projection is not the Bell-basis branch", case=case)
        expected = phase_canonical(StateVector(2, projected / np.linalg.norm(projected)))
        _check(_close(phase_canonical(post).amplitudes, expected.amplitudes), "post-state left the eigenspace",
               case=case)
    _check(plus_branches >= 10, "too few S_zz = +1 branches", plus_branches=plus_branches)
    # contrast: from |Phi+>, S_zz then local S_xx; the nonlocal route pins n=+1, the local one does not
    phi = bell_state(BellLabel.PHI_PLUS)
    for label, count in outcome_distribution(phi, "scheme_a", 10_000, 406).items():
        _check(not count or outcome_pair(label)[1] == +1, "nonlocal S_zz failed to preserve n",
               label=label.value, count=count)
    tree = OutcomeTree(phi, _spin_product_scheme(LOCAL, LOCAL).tree)
    counts = tree.label_counts(tree.sample(10_000, 407))
    frequency = sum(count for label, count in counts.items() if outcome_pair(label)[1] == +1) / 10_000
    _check(abs(frequency - 0.5) < 0.02, "local strategy should randomize the second outcome", frequency=frequency)
    return frequency


def check_bell_filter():
    """Scheme (b) leaves the labelled Bell state; refiltering it changes nothing."""
    rng = np.random.default_rng(303)
    seen = set()
    for case, s in enumerate(_haar_cases(rng, 100)):
        result = run_scheme_b(s, RngStream(304).substream(case), record_trace=False)
        # fidelity clamps to 1, so it passes a post-state a little too long: its norm is checked on its own
        norm = float(np.vdot(result.post_state.amplitudes, result.post_state.amplitudes).real)
        _check(abs(norm - 1.0) <= 1e-12, "filter output is not normalized", case=case, norm=norm)
        fid = fidelity(result.post_state, bell_state(result.label))
        _check(fid >= 1 - 1e-12, "filter output is not the labelled Bell state", case=case, fidelity=fid)
        again = run_scheme_b(result.post_state, RngStream(305).substream(case), record_trace=False)
        _check(again.label is result.label, "filter not idempotent on the label", case=case)
        _check(states_equal(again.post_state, result.post_state), "filter moved a Bell state", case=case)
        seen.add(result.label)
    _check(seen == set(_LABELS), "filter never produced some label", seen=sorted(l.value for l in seen))


def check_resource_ledger_and_audit(seed=2030, runs=25, streams=(525, 526, 527)):
    """Scheme (a) spends exactly 1 ebit, (b) 2, fig1 none; only fig1 fails the LOCC audit."""
    rng = np.random.default_rng(seed)
    for case, s in enumerate(_haar_cases(rng, runs)):
        for (runner, ebits, locc), stream in zip(
            ((run_scheme_a, 1, True), (run_scheme_b, 2, True), (run_fig1, 0, False)), streams
        ):
            result = runner(s, RngStream(stream).substream(case))
            granted, consumed = result.ledger.ebits_granted, result.ledger.ebits_consumed
            _check(
                granted == consumed == ebits,
                f"{runner.__name__} must be granted and consume exactly {ebits} ebit(s)",
                case=case,
                granted=granted,
                consumed=consumed,
            )
            report = locc_audit(result.trace)
            _check(
                report.passed == locc,
                f"{runner.__name__} trace must {'pass' if locc else 'fail'} the LOCC audit",
                case=case,
                violations=list(report.violations),
            )


def check_fig1_mapping():
    """fig1 maps each Bell input to its computational output on every one of 1000 trials."""
    outputs = {BellLabel.PHI_PLUS: "00", BellLabel.PHI_MINUS: "10", BellLabel.PSI_PLUS: "01", BellLabel.PSI_MINUS: "11"}
    for label, bits in outputs.items():
        tree = OutcomeTree(bell_state(label), SCHEMES["fig1"].tree)
        leaves = tree.sample(1000, 808)
        # a post-state depends only on its leaf, so each reached leaf stands for all its trials
        for leaf, got, post in tree.reached(leaves):
            ok = got is label and states_equal(post, computational_state(bits))
            _check(ok, "fig1 mapped a Bell input to the wrong output", label=label.value, leaf=leaf,
                   count=int(leaves[leaf]))


def check_born_rule(seed=2031, cases=100, trials=20000, stream=529):
    """Every scheme's analytic distribution is |c_i|^2; scheme (a) samples it within 4 sigma.

    The sampled state is the one drawn after the ``cases`` analytic ones.
    """
    def deviations(states, amps):
        reference = np.array([to_bell(s).probabilities() for s in states])
        return np.array([np.abs(row.analytic(amps) - reference).max(axis=1) for row in SCHEMES.values()]).T

    rng = np.random.default_rng(seed)
    _check_blocks(rng, cases, deviations, "analytic distribution deviates from the Bell coefficients", tuple(SCHEMES))
    s = haar_random_state(2, rng)
    probs = to_bell(s).probabilities()
    counts = outcome_distribution(s, "scheme_a", trials, stream)
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


def check_photonic_equivalence() -> StateVector:
    """The photonic route equals scheme (a) analytically on 500 states; its optical blocks commute.

    Returns the next Haar state of the check's generator, the input of
    criterion 7's sampled chi-square.
    """
    def deviations(_, amps):
        return np.abs(label_distributions(amps) - SCHEMES["scheme_a"].analytic(amps)).max(axis=1)

    rng = np.random.default_rng(707)
    _check_blocks(rng, 500, deviations, "photonic route deviates from scheme (a)")
    labels = {
        photonic_label((DetectorIndex("A", pa), DetectorIndex("B", pb)))
        for pa, pb in itertools.product(range(4), repeat=2)
    }
    _check(labels == set(_LABELS), "port pairs do not cover the four labels")
    for case, s in enumerate(_haar_cases(rng, 20)):
        ab = build_photonic_run(s, block_order=(REGISTER_A, REGISTER_B))
        ba = build_photonic_run(s, block_order=(REGISTER_B, REGISTER_A))
        delta = float(np.abs(ab.amplitudes - ba.amplitudes).max())
        _check(delta <= _BUILD_BOUND, "optical blocks do not commute", case=case, deviation=delta)
    return haar_random_state(2, rng)


GROUPS = (
    ("pauli-algebra", check_pauli_algebra),
    ("state-core", check_state_core),
    ("bell-roundtrip", check_bell_roundtrip),
    ("spin-commutators", check_spin_commutators),
    ("common-eigenbasis", check_common_eigenbasis),
    ("spectral-projectors", check_spectral_projectors),
    ("measurement-families", check_measurement_families),
    ("superposition-preservation", check_superposition_preservation),
    ("bell-filter", check_bell_filter),
    ("resource-ledger-and-audit", check_resource_ledger_and_audit),
    ("fig1-mapping", check_fig1_mapping),
    ("born-rule", check_born_rule),
    ("photonic-equivalence", check_photonic_equivalence),
)


def run_verification() -> list[GroupResult]:
    """Run every invariant group; never raises, failures become results.

    A group that raises anything but its own failure fails too: its counterexample names the exception and
    the innermost frame it was raised in.
    """
    results = []
    for name, group in GROUPS:
        try:
            group()
        except _Failure as failure:
            results.append(GroupResult(name, False, failure.detail, dict(failure.counterexample, group=name)))
        except Exception as error:  # the sweep reports every group, whatever one of them raises
            frame = traceback.extract_tb(error.__traceback__)[-1]
            where = f"{frame.name} ({os.path.basename(frame.filename)}:{frame.lineno})"
            results.append(GroupResult(name, False, f"raised {type(error).__name__}",
                                       {"exception": repr(error), "raised_in": where, "group": name}))
        else:
            results.append(GroupResult(name, True, "", None))
    return results
