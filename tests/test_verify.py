"""The verify sweep's own helpers and bounds: its Haar unitaries, its tolerance test and the limits its checks enforce."""
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bellsim import cli, measure, photonic, qstate, verify
from bellsim.bellcore import BellLabel, bell_state, to_bell
from bellsim.protocols import SCHEMES, analytic_label_distribution
from bellsim.qstate import haar_random_state


def test_closed_form_unitary_is_haar_unitary():
    rng = np.random.default_rng(2026)
    draws = [verify._haar_unitary(rng) for _ in range(10_000)]
    assert max(float(np.abs(u.conj().T @ u - np.eye(2)).max()) for u in draws) <= 1e-15
    # |alpha|^2 of a Haar point on S^3 is uniform on [0, 1]: mean 1/2, variance 1/12
    alpha_sq = np.array([abs(u[0, 0]) ** 2 for u in draws])
    assert abs(alpha_sq.mean() - 0.5) <= 4 * math.sqrt(1 / 12 / alpha_sq.size)


def test_state_core_fails_on_a_non_unitary(monkeypatch):
    verify.check_state_core()
    haar = verify._haar_unitary
    monkeypatch.setattr(verify, "_haar_unitary", lambda rng: haar(rng) * (1 + 1e-9))
    with pytest.raises(verify._Failure, match="unitary broke the norm"):
        verify.check_state_core()


def _step(x, direction):
    return complex(np.nextafter(x.real, direction), x.imag)


def _allclose(x, y):
    return np.allclose(x, y, rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("y", [0.0, 1.0, -1.0, 3e-6, 0.6 + 0.8j, -2.5e3j])
def test_close_is_allclose_at_the_tolerance_edge(y):
    # walk x = y + d along the real axis to the last point np.allclose accepts
    x = y + (1e-12 + 1e-7 * abs(y))
    while _allclose(x, y):
        x = _step(x, np.inf)
    while not _allclose(x, y):
        x = _step(x, -np.inf)
    for probe in (_step(x, -np.inf), x, _step(x, np.inf)):
        assert verify._close(np.array([probe, y]), np.array([y, y])) == _allclose(probe, y)
    if y == 0.0:
        # the edge sits on equality, so a strict comparison would reject it
        assert abs(x - y) == 1e-12 + 1e-7 * abs(y)


def test_closed_form_unitary_has_a_uniform_global_phase():
    # det U = e^{2i phi}: its mean over Haar U(2) is 0, within 4 / sqrt(N) here
    rng = np.random.default_rng(2026)
    dets = np.array([np.linalg.det(verify._haar_unitary(rng)) for _ in range(10_000)])
    assert abs(dets.mean()) <= 4 / math.sqrt(dets.size)


@pytest.mark.parametrize("plus", [9, 10])
def test_superposition_check_needs_ten_s_zz_plus_branches(monkeypatch, plus):
    # its inputs as Bell states: ``plus`` of Phi+, which always reads S_zz = +1, then Psi+, which reads -1
    phi, psi = bell_state(BellLabel.PHI_PLUS), bell_state(BellLabel.PSI_PLUS)
    inputs = itertools.chain(itertools.repeat(phi, plus), itertools.repeat(psi))
    monkeypatch.setattr(verify, "haar_random_states", lambda n_qubits, rng, count: [next(inputs) for _ in range(count)])
    if plus < 10:
        with pytest.raises(verify._Failure, match="too few S_zz"):
            verify.check_superposition_preservation()
    else:
        verify.check_superposition_preservation()


def test_a_group_that_raises_fails_and_the_sweep_goes_on(monkeypatch, capsys):
    """Post-states 1 + 1e-6 too long: two groups raise inside phase_canonical, and bell-filter's norm check fails.

    Each becomes one FAIL line; nothing escapes the sweep, and the groups after them still run.
    """
    monkeypatch.setattr(measure, "_wrap", lambda n_qubits, amps: qstate._wrap(n_qubits, amps * (1 + 1e-6)))
    failed = {result.name: result for result in verify.run_verification() if not result.passed}
    assert set(failed) == {"superposition-preservation", "bell-filter", "fig1-mapping"}
    for name in ("superposition-preservation", "fig1-mapping"):
        assert failed[name].detail == "raised ValueError"
        assert failed[name].counterexample["exception"] == "ValueError('state not normalized')"
        assert failed[name].counterexample["group"] == name
    assert failed["bell-filter"].detail == "filter output is not normalized"
    assert failed["bell-filter"].counterexample["case"] == 0
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(verify.GROUPS)
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL superposition-preservation", "FAIL bell-filter", "FAIL fig1-mapping"]


@pytest.mark.parametrize("cases", [1, verify._BLOCK, 25])
def test_haar_cases_are_the_one_at_a_time_draws(cases):
    """The checks' blocks of Haar states are the states, and leave the generator where, one draw per state would."""
    rng, one_rng = np.random.default_rng(303), np.random.default_rng(303)
    drawn = [s.amplitudes.tobytes() for s in verify._haar_cases(rng, cases)]
    assert drawn == [haar_random_state(2, one_rng).amplitudes.tobytes() for _ in range(cases)]
    assert rng.bit_generator.state == one_rng.bit_generator.state


def test_superposition_check_returns_the_local_n_plus_frequency(monkeypatch):
    # the local route's 10 000 trials as a fixed histogram: 5100 Phi+ (n = +1), 4900 Phi- (n = -1)
    class FixedTree(verify.OutcomeTree):
        def sample(self, trials, seed):
            assert trials == 10_000
            leaves = np.zeros(self.labels.shape, np.int64)
            leaves[0, 0], leaves[0, 1] = 5100, 4900
            assert [verify._LABELS[self.labels[0, j]] for j in (0, 1)] == [BellLabel.PHI_PLUS, BellLabel.PHI_MINUS]
            return leaves

    monkeypatch.setattr(verify, "OutcomeTree", FixedTree)
    assert verify.check_superposition_preservation() == 0.51


def test_born_rule_band_is_four_sigma_plus_one(monkeypatch):
    # the sampled state of check_born_rule(seed=2031, cases=0): the first of its generator
    p = to_bell(haar_random_state(2, np.random.default_rng(2031))).probabilities()
    trials, label = 20_000, BellLabel.PSI_PLUS
    expected = trials * p[label.index]
    edge = math.floor(expected + 4 * math.sqrt(expected * (1 - p[label.index])) + 1)

    def sampled(count):
        counts = {other: round(trials * p[other.index]) for other in BellLabel}
        counts[label] = count
        return lambda *args: counts

    monkeypatch.setattr(verify, "outcome_distribution", sampled(edge))
    verify.check_born_rule(seed=2031, cases=0, trials=trials)
    monkeypatch.setattr(verify, "outcome_distribution", sampled(edge + 1))
    with pytest.raises(verify._Failure, match="4-sigma band") as failure:
        verify.check_born_rule(seed=2031, cases=0, trials=trials)
    assert failure.value.counterexample == {"label": label.value, "count": edge + 1, "expected": expected}


def test_spin_commutator_check_compares_the_nonzero_commutators(monkeypatch):
    # [S_xx, S_xy] = 2 S_xx S_xy is not zero, so a commutator with the wrong sign disagrees with the oracle there
    verify.check_spin_commutators()
    monkeypatch.setattr(verify, "commutator", lambda a, b: b @ a - a @ b)
    with pytest.raises(verify._Failure, match="disagrees with matrix oracle") as failure:
        verify.check_spin_commutators()
    assert failure.value.counterexample == {"pair": ("S_xx", "S_xy")}


# --- born-rule and photonic-equivalence: the routes on blocks of states ----------------------------------------


def _haar_amplitudes(seed, cases):
    rng = np.random.default_rng(seed)
    return [haar_random_state(2, rng).amplitudes for _ in range(cases)]


def _perturb(monkeypatch, scheme, targets, amount=1e-9):
    """``scheme``'s analytic route, with ``amount`` added to label 0 of each state among ``targets``."""
    route = SCHEMES[scheme].analytic

    def perturbed(amps):
        out = route(amps).copy()
        for k, row in enumerate(amps):
            if any(np.array_equal(row, target) for target in targets):
                out[k, 0] += amount
        return out

    monkeypatch.setitem(SCHEMES, scheme, SCHEMES[scheme]._replace(analytic=perturbed))
    if scheme == "photonic":  # photonic-equivalence calls it by name, as photonic.label_distribution does
        monkeypatch.setattr(verify, "label_distributions", perturbed)
        monkeypatch.setattr(photonic, "label_distributions", perturbed)


def _one_state_at_a_time(check):
    """The first counterexample of ``check``'s route comparison as its loop over one state at a time found it."""
    if check is verify.check_photonic_equivalence:
        rng = np.random.default_rng(707)
        for case in range(500):
            s = haar_random_state(2, rng)
            delta = float(np.abs(photonic.label_distribution(s) - analytic_label_distribution(s, "scheme_a")).max())
            if not delta <= verify._ROUTE_BOUND:
                return {"case": case, "deviation": delta}
    else:
        rng = np.random.default_rng(2031)
        for case in range(100):
            s = haar_random_state(2, rng)
            reference = to_bell(s).probabilities()
            for scheme in SCHEMES:
                delta = float(np.abs(analytic_label_distribution(s, scheme) - reference).max())
                if not delta <= verify._ROUTE_BOUND:
                    return {"case": case, "scheme": scheme, "deviation": delta}
    return None


@pytest.mark.parametrize("perturbed", [
    {"photonic": (37,)},  # in the fourth block of 10
    {"photonic": (37, 450)},  # two blocks: the earlier case
    {"photonic": (39, 37)},  # one block: the earlier case
])
def test_photonic_equivalence_reports_the_first_failing_state(monkeypatch, perturbed):
    amplitudes = _haar_amplitudes(707, 500)
    for scheme, cases in perturbed.items():
        _perturb(monkeypatch, scheme, [amplitudes[case] for case in cases])
    with pytest.raises(verify._Failure, match="photonic route deviates") as failure:
        verify.check_photonic_equivalence()
    assert failure.value.counterexample == _one_state_at_a_time(verify.check_photonic_equivalence)
    assert failure.value.counterexample["case"] == min(perturbed["photonic"])


@pytest.mark.parametrize("perturbed, first", [
    ({"scheme_b": (61,)}, (61, "scheme_b")),  # in the seventh block of 10
    ({"scheme_b": (61,), "photonic": (90,)}, (61, "scheme_b")),  # two blocks: the earlier case
    ({"photonic": (61,), "scheme_b": (61,)}, (61, "scheme_b")),  # one state: the earlier scheme
    ({"photonic": (60,), "scheme_b": (61,)}, (60, "photonic")),  # one block: the earlier case, whatever the scheme
])
def test_born_rule_reports_the_first_failing_state_and_scheme(monkeypatch, perturbed, first):
    amplitudes = _haar_amplitudes(2031, 100)
    for scheme, cases in perturbed.items():
        _perturb(monkeypatch, scheme, [amplitudes[case] for case in cases])
    with pytest.raises(verify._Failure, match="analytic distribution deviates") as failure:
        verify.check_born_rule()
    assert failure.value.counterexample == _one_state_at_a_time(verify.check_born_rule)
    assert (failure.value.counterexample["case"], failure.value.counterexample["scheme"]) == first


def test_route_checks_report_a_nan_deviation(monkeypatch):
    amplitudes = _haar_amplitudes(707, 500)
    _perturb(monkeypatch, "photonic", [amplitudes[12]], math.nan)
    with pytest.raises(verify._Failure, match="photonic route deviates") as failure:
        verify.check_photonic_equivalence()
    assert failure.value.counterexample["case"] == 12 and math.isnan(failure.value.counterexample["deviation"])


def test_a_scheme_a_mutant_inside_the_old_bounds_fails_both_route_checks(monkeypatch):
    """Scheme (a)'s route moved by 5e-13 between two labels passed the old 1e-12 bounds; the derived one catches it."""
    row = SCHEMES["scheme_a"]
    mutant = row._replace(analytic=lambda amps: row.analytic(amps) + [5e-13, -5e-13, 0, 0])
    monkeypatch.setitem(SCHEMES, "scheme_a", mutant)
    failed = {result.name: result.counterexample for result in verify.run_verification() if not result.passed}
    assert set(failed) == {"born-rule", "photonic-equivalence"}
    assert (failed["born-rule"]["case"], failed["born-rule"]["scheme"]) == (0, "scheme_a")
    assert failed["photonic-equivalence"]["case"] == 0
    assert all(4e-13 < counterexample["deviation"] < 1e-12 for counterexample in failed.values())


def _lowest_heap_peak(check) -> int:
    """The lower of two heap peaks of ``check()``, in bytes above the heap before it, each after a full collection."""
    check()  # first-call caches (numpy's, the label offsets') are not the check's
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            check()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return min(peaks)


# Peaks with blocks of 10 states (2 cores, Python 3.11.7, numpy 2.4.6): born-rule 29.6 KB, photonic-equivalence
# 27.8 KB; one state at a time they were 21.9 and 9.5 KB. Each bound is that peak plus 8 KB, so a block of 16
# (44 and 42 KB) fails it, and so does a sweep of all the states at once (275 KB and 1.2 MB).
@pytest.mark.parametrize("check, bound", [(verify.check_born_rule, 37_600),
                                          (verify.check_photonic_equivalence, 35_800)])
def test_route_checks_hold_one_block_of_states_at_a_time(check, bound):
    assert _lowest_heap_peak(check) <= bound
