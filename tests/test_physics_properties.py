"""Device-model laws checked on the array path, independent of its code.

Each failure mechanism has one MTTF expression; these tests hold its
array form (``relative_fit_batch`` over ``(C, P, S)`` inputs) to the
published law with the paper's constants written out here, not read
from the implementation:

- EM (Black's equation): FIT ∝ (V·f·a)^1.1 · exp(−0.9 eV / kT);
- SM: FIT ∝ |500 K − T|^2.5 · exp(−0.9 eV / kT), whatever V, f, a;
- TC (Coffin-Manson): FIT ∝ (T_avg − 300 K)^2.35, zero at or below 300 K;
- TDDB (Wu et al.): FIT ∝ V^(78 − 0.081·T) · exp(−(0.759 − 66.8/T −
  8.37e-4·T) / kT), whatever f and a;
- SOFR: a run's total is the sum over mechanisms and over structures.

A second implementation that shares the code's structure could share
its mistakes; a proportionality law cannot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.technology import STRUCTURE_NAMES
from repro.core.failure import (
    Electromigration,
    StressMigration,
    ThermalCycling,
    TimeDependentDielectricBreakdown,
)

K_EV = 8.617333262e-5
SHAPE = (4, 3, len(STRUCTURE_NAMES))
V_NOM, F_NOM = 1.0, 4.0e9


@pytest.fixture
def conditions():
    """Random (C, P, S) temperatures, voltages, frequencies, activities."""
    rng = np.random.default_rng(2004)
    return (
        rng.uniform(320.0, 420.0, SHAPE),
        rng.uniform(0.7, 1.3, SHAPE[:2])[:, :, None],
        rng.uniform(2.5e9, 5.0e9, SHAPE[:2])[:, :, None],
        rng.uniform(0.01, 1.0, SHAPE),
    )


def assert_proportional(fit, law, rtol=1e-12):
    """``fit / law`` is one constant over every cell."""
    fit, law = np.broadcast_arrays(fit, law)
    assert fit.shape == SHAPE
    ratio = fit / law
    assert np.all(np.isfinite(ratio)) and np.all(ratio > 0.0)
    assert np.allclose(ratio, ratio.flat[0], rtol=rtol, atol=0.0)


def test_em_follows_blacks_equation(conditions):
    t, v, f, a = conditions
    fit = Electromigration().relative_fit_batch(t, v, f, a, V_NOM, F_NOM)
    assert_proportional(fit, (v * f * a) ** 1.1 * np.exp(-0.9 / (K_EV * t)))
    idle = Electromigration().relative_fit_batch(t, v, f, np.zeros(SHAPE), V_NOM, F_NOM)
    assert not idle.any()


def test_sm_follows_stress_and_arrhenius(conditions):
    t, v, f, a = conditions
    fit = StressMigration().relative_fit_batch(t, v, f, a, V_NOM, F_NOM)
    assert_proportional(fit, np.abs(500.0 - t) ** 2.5 * np.exp(-0.9 / (K_EV * t)))
    other = StressMigration().relative_fit_batch(t, v[::-1], f[::-1], a[::-1], V_NOM, F_NOM)
    assert np.array_equal(fit, other)


def test_tc_follows_coffin_manson(conditions):
    t, v, f, a = conditions
    fit = ThermalCycling().relative_fit_batch(t, v, f, a, V_NOM, F_NOM)
    assert_proportional(fit, (t - 300.0) ** 2.35)
    cold = np.where(np.arange(SHAPE[-1]) % 2 == 0, 300.0, 290.0) + np.zeros(SHAPE)
    assert not ThermalCycling().relative_fit_batch(cold, v, f, a, V_NOM, F_NOM).any()


def test_tddb_follows_wus_voltage_law(conditions):
    t, v, f, a = conditions
    fit = TimeDependentDielectricBreakdown().relative_fit_batch(t, v, f, a, V_NOM, F_NOM)
    law = v ** (78.0 - 0.081 * t) * np.exp(
        -(0.759 - 66.8 / t - 8.37e-4 * t) / (K_EV * t)
    )
    assert_proportional(fit, law, rtol=1e-10)
    other = TimeDependentDielectricBreakdown().relative_fit_batch(
        t, v, f[::-1], a[::-1], V_NOM, F_NOM
    )
    assert np.array_equal(fit, other)


def test_sofr_total_is_the_sum_of_its_parts(oracle, mpgdec_run):
    ramp = oracle.ramp_for(370.0)
    batch = oracle.platform.evaluate_batch(mpgdec_run, DEFAULT_VF_CURVE.grid(7))
    fields = ramp.application_fit_fields_batch(batch)
    total = ramp.application_fit_batch(batch)
    assert fields.shape == (batch.n_candidates, len(ramp.mechanisms), len(STRUCTURE_NAMES))
    assert np.allclose(total, fields.sum(axis=2).sum(axis=1), rtol=1e-12, atol=0.0)
    assert np.allclose(total, fields.sum(axis=1).sum(axis=1), rtol=1e-12, atol=0.0)
    rel = ramp.application_reliability(batch.evaluation(3))
    assert rel.total_fit == pytest.approx(sum(rel.account.by_mechanism().values()), rel=1e-12)
    assert rel.total_fit == pytest.approx(sum(rel.account.by_structure().values()), rel=1e-12)
