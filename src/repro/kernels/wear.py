"""Vectorized wear-rate fields: FIT tensors → damage-fraction per hour.

The cumulative-damage simulator (:mod:`repro.lifetime`) integrates
per-(mechanism, structure) wear over schedules spanning decades.  What
keeps that fast is the same batching discipline as the candidate-grid
kernel: all the physics is evaluated **once per (workload, config,
operating-point grid)** through :meth:`Platform.evaluate_batch` +
:meth:`RampModel.application_fit_fields_batch`, and the per-epoch work
collapses to an elementwise multiply-add over a ``(mechanisms,
structures)`` matrix.

Units: a FIT is one failure per 10⁹ device-hours, so under Miner's rule
(EM / SM / TC) the damage fraction consumed per hour at a constant FIT
field is ``fit / FIT_DEVICE_HOURS`` — and the time-to-breakdown
fraction of TDDB has exactly the same form (``t / T_BD`` with
``T_BD = FIT_DEVICE_HOURS / fit`` hours).  A cell reaching 1.0 has
consumed its lifetime.

Asymmetric duty-cycle aging (PAPERS.md, "Asymmetric Aging Effect on
Modern Microprocessors"): structures parked at strongly one-sided duty
cycles age faster than the symmetric-stress average the FIT models
assume.  :func:`duty_asymmetry_factors` derates each structure by
``1 + c·|2a − 1|`` (time-averaged over intervals, ``a`` the activity
factor); the coefficient defaults to 0 so the constant-stress limit
stays SOFR-consistent with :mod:`repro.core.fit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.constants import FIT_DEVICE_HOURS
from repro.errors import ReliabilityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ramp import RampModel
    from repro.kernels.batch import BatchEvaluation


def duty_asymmetry_factors(
    batch: "BatchEvaluation", coefficient: float
) -> np.ndarray:
    """Per-structure asymmetric-aging multipliers, shape ``(C, S)``.

    ``1 + coefficient * |2·activity − 1|``, time-averaged over the
    run's intervals.  A structure pinned fully busy or fully idle
    (``a`` near 1 or 0) ages up to ``1 + coefficient`` times faster; a
    balanced ``a = 0.5`` duty cycle is unpenalised.
    """
    if coefficient < 0.0:
        raise ReliabilityError("asymmetry coefficient must be non-negative")
    asymmetry = np.abs(2.0 * batch.activity - 1.0)
    averaged = (asymmetry * batch.weights[:, :, None]).sum(axis=1)
    return 1.0 + coefficient * averaged


def wear_rate_fields(
    ramp: "RampModel",
    batch: "BatchEvaluation",
    *,
    asymmetry_coefficient: float = 0.0,
) -> np.ndarray:
    """Damage-fraction-per-hour fields for every candidate of a batch.

    Shape ``(n_candidates, n_mechanisms, n_structures)``, mechanisms in
    ``ramp.mechanisms`` order, structures in canonical order.  Miner's
    rule for EM / SM / TC and the time-to-breakdown fraction for TDDB
    share the reciprocal-MTTF form, so every cell is simply the
    time-averaged FIT over ``FIT_DEVICE_HOURS``; the asymmetric-aging
    multiplier is applied to the wear-out mechanisms (everything but
    thermal cycling, whose stress is already a whole-run property).
    """
    fields = ramp.application_fit_fields_batch(batch)
    rates = fields / FIT_DEVICE_HOURS
    if asymmetry_coefficient:
        factors = duty_asymmetry_factors(batch, asymmetry_coefficient)
        ages = np.array([m.name != "TC" for m in ramp.mechanisms])
        rates = rates * np.where(
            ages[None, :, None], factors[:, None, :], 1.0
        )
    return rates


def accrue(
    damage: np.ndarray, rates: np.ndarray, hours: float | Sequence[float]
) -> np.ndarray:
    """Miner's-rule fold of a stack of epochs (fresh array).

    ``rates`` is ``(n, M, S)`` damage/hour and ``hours`` is ``(n,)``,
    or one epoch as ``(M, S)`` and a scalar.  The result is
    ``damage + rates[0]·hours[0] + … + rates[n-1]·hours[n-1]``, added
    strictly left to right.  Row 0 of a buffer holds ``damage``
    and rows 1..n the products; row n of ``np.add.accumulate`` over it
    is the answer.  ``accumulate`` never reassociates (only ``reduce``
    sums pairwise), so a stack of n epochs is bitwise n one-epoch
    folds, and folding A then B is bitwise folding A + B.  The damage
    monotonicity property rides on the validation here, which reports
    the first bad epoch exactly as a one-epoch fold would.
    """
    hours = np.asarray(hours, dtype=np.float64)
    if hours.ndim == 0:
        rates, hours = rates[None], hours[None]
    if rates.shape[1:] != damage.shape:
        raise ReliabilityError(
            f"rate field shape {rates.shape[1:]} does not match damage {damage.shape}"
        )
    if hours.shape != rates.shape[:1]:
        raise ReliabilityError(
            f"{rates.shape[0]} rate fields but hours of shape {hours.shape}"
        )
    valid_hours = _finite_non_negative(hours)
    valid_rates = _finite_non_negative(rates)
    if not (valid_hours.all() and valid_rates.all()):
        bad = ~valid_hours | ~valid_rates.all(axis=(1, 2))
        first = int(bad.argmax())
        if not valid_hours[first]:
            raise ReliabilityError(
                f"epoch hours must be finite and >= 0, got {float(hours[first])!r}"
            )
        raise ReliabilityError("wear rates must be finite and non-negative")
    buffer = np.empty((len(hours) + 1,) + damage.shape)
    buffer[0] = damage
    np.multiply(rates, hours[:, None, None], out=buffer[1:])
    return np.add.accumulate(buffer, axis=0)[-1].copy()


def _finite_non_negative(values: np.ndarray) -> np.ndarray:
    """Elementwise ``0 <= value < inf``; NaN fails both comparisons."""
    return (values >= 0.0) & (values < np.inf)
