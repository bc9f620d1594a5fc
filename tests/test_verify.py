"""The verify sweep's own helpers: its Haar unitaries and its tolerance test."""
import math

import numpy as np
import pytest

from bellsim import verify


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
