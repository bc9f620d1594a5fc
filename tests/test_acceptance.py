"""Acceptance suite: the eight end-to-end criteria at their stated tolerances.

Criteria 2-8 run the invariant checks of ``bellsim.verify``, the same checks
``bellsim verify`` runs. Criteria 3, 4, 5, 7 and 8 call them as they are:
each check has its criterion's seeds and sizes built in. Criteria 2 and 6
pass their larger sizes and own seeds, which ``verify`` does not run for
time. Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is fixed; none is calibrated at runtime.
"""
import time

import numpy as np
from scipy import stats

from bellsim import verify
from bellsim.bellcore import BellLabel, bell_state
from bellsim.photonic import label_distribution
from bellsim.protocols import outcome_distribution

LABELS = list(BellLabel)


def test_criterion_1_bell_basis_discrimination():
    """Four Bell inputs, schemes (a) and (b): zero mislabels over 1e4 trials."""
    trials = 10_000
    for scheme in ("scheme_a", "scheme_b"):
        for label in LABELS:
            started = time.perf_counter()
            counts = outcome_distribution(bell_state(label), scheme, trials, seed=101)
            elapsed = time.perf_counter() - started
            assert counts[label] == trials, f"{scheme} mislabelled {label.value}"
            assert elapsed < 1.0, f"{scheme}/{label.value}: {elapsed:.2f}s for {trials} trials"
    print("\nPASS criterion 1: Bell-basis discrimination (8 x 1e4 trials, zero mislabels, <1s each)")


def test_criterion_2_born_rule_distribution():
    """Analytic label probabilities are |c_i|^2; empirical matches at 4 sigma."""
    started = time.perf_counter()
    verify.check_born_rule(seed=202, cases=100, trials=100_000, stream=203)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nPASS criterion 2: Born-rule distribution (100 states analytic, 1e5 trials, {elapsed:.1f}s)")


def test_criterion_3_bell_filter_contract():
    """Filter output is the labelled Bell state; refiltering is idempotent."""
    verify.check_bell_filter()
    print("\nPASS criterion 3: Bell filter contract (100 random inputs, fidelity >= 1-1e-12, idempotent)")


def test_criterion_4_superposition_preservation():
    """Nonlocal S_zz keeps the eigenspace superposition; local S_zz destroys it."""
    frequency = verify.check_superposition_preservation()
    print(f"\nPASS criterion 4: superposition preservation (nonlocal n=+1 at 1.0, local at {frequency:.4f})")


def test_criterion_5_operator_algebra():
    """Commutators vanish at 1e-15; POVM and Kraus families sum to I at 1e-12."""
    verify.check_spin_commutators()
    verify.check_measurement_families()
    print("\nPASS criterion 5: operator algebra (9 commutators at 1e-15, all families complete at 1e-12)")


def test_criterion_6_resource_ledger_and_audit():
    """Scheme (a) spends exactly 1 ebit, (b) exactly 2; audits pass/fail as required."""
    runs = 200
    verify.check_resource_ledger_and_audit(seed=606, runs=runs, streams=(607, 608, 609))
    print(f"\nPASS criterion 6: resource ledger and LOCC audit ({runs} runs per scheme)")


def test_criterion_7_photonic_equivalence():
    """Photonic route equals scheme (a) analytically; 1e5-trial chi-square p > 0.001."""
    s = verify.check_photonic_equivalence()
    probs = label_distribution(s)
    trials = 100_000
    counts = outcome_distribution(s, "photonic", trials, seed=708)
    observed = np.array([counts[label] for label in LABELS], dtype=float)
    expected = trials * np.array([probs[label.index] for label in LABELS])
    keep = expected > 0
    statistic = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    p_value = float(stats.chi2.sf(statistic, df=int(keep.sum()) - 1))
    assert p_value > 0.001, f"chi-square p={p_value:.5f} (statistic {statistic:.2f})"
    print(f"\nPASS criterion 7: photonic equivalence (500 states at 1e-12, chi-square p={p_value:.3f})")


def test_criterion_8_fig1_baseline():
    """The fig1 circuit maps the four Bell inputs to their computational outputs, always."""
    verify.check_fig1_mapping()
    print("\nPASS criterion 8: fig1 baseline mapping (4 inputs x 1e3 trials, deterministic)")
