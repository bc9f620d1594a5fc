"""The verify sweep's own helpers and bounds: its Haar unitaries, its tolerance test and the limits its checks enforce."""
import itertools
import math

import numpy as np
import pytest

from bellsim import verify
from bellsim.bellcore import BellLabel, bell_state, to_bell
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
    monkeypatch.setattr(verify, "haar_random_state", lambda n_qubits, rng: next(inputs))
    if plus < 10:
        with pytest.raises(verify._Failure, match="too few S_zz"):
            verify.check_superposition_preservation()
    else:
        verify.check_superposition_preservation()


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
