"""The RAMP engine: application-level FIT accounting (Sections 3.5-3.6).

Given a qualified reliability model and a platform evaluation (the
per-interval temperature/voltage/frequency/activity samples of one
application run), RAMP computes:

- the **instantaneous FIT** of every structure under every mechanism per
  interval (EM, SM, TDDB);
- the **time-averaged FIT** across intervals (the paper's extension of
  the SOFR averaging to time);
- the **thermal-cycling FIT** from each structure's run-average
  temperature (cycle depth is a whole-run property);
- the **SOFR total** — the application's FIT value.

Powered-down structure area (DRM's Arch adaptation) removes its share of
the EM and TDDB FIT: a gated slice has no current flow and no supply
voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config.microarch import MicroarchConfig
from repro.config.technology import STRUCTURE_NAMES
from repro.constants import FIT_DEVICE_HOURS, fit_to_mttf_years
from repro.core.failure import ALL_MECHANISMS, FailureMechanism
from repro.core.fit import FitAccount, time_averaged_fit
from repro.core.qualification import QualifiedReliabilityModel
from repro.errors import ReliabilityError
from repro.harness.platform import Interval, PlatformEvaluation

if TYPE_CHECKING:  # pragma: no cover - the kernel package imports nothing here
    from repro.kernels.batch import BatchEvaluation


@dataclass(frozen=True)
class AppReliability:
    """The reliability outcome of one application run.

    Attributes:
        account: per-(mechanism, structure) time-averaged FIT, in
            mechanism order then canonical structure order.
        fit_target: the qualification target it is judged against.
        total_fit: the SOFR total, summed exactly as
            :meth:`RampModel.application_fit_batch` sums a candidate (per
            mechanism, then across mechanisms), so it equals the batch
            FIT of the same candidate bit for bit; ``account.total`` is
            the same sum in another order and may differ in the last
            bits.
    """

    account: FitAccount
    fit_target: float
    total_fit: float

    @property
    def meets_target(self) -> bool:
        """Whether the run stays within the qualified failure rate."""
        return self.total_fit <= self.fit_target + 1e-9

    @property
    def mttf_years(self) -> float:
        return fit_to_mttf_years(self.total_fit)

    @property
    def margin(self) -> float:
        """Unused reliability budget as a fraction of the target
        (negative when the target is violated).

        Raises:
            ReliabilityError: if the recorded target is not positive.
        """
        target = self.fit_target
        if target <= 0.0:
            raise ReliabilityError("fit_target must be positive")
        return (target - self.total_fit) / target


class RampModel:
    """Evaluates FIT for intervals and whole application runs.

    Args:
        qualified: the calibrated constants from
            :func:`repro.core.qualification.calibrate`.
        mechanisms: failure mechanisms (must match the calibration).
    """

    def __init__(
        self,
        qualified: QualifiedReliabilityModel,
        mechanisms: tuple[FailureMechanism, ...] = ALL_MECHANISMS,
    ) -> None:
        calibrated = {m for m, _ in qualified.constants}
        if {m.name for m in mechanisms} != calibrated:
            raise ReliabilityError(
                "mechanism set does not match the qualified model "
                f"({sorted(calibrated)})"
            )
        self.qualified = qualified
        self.mechanisms = mechanisms

    # ------------------------------------------------------------------

    def _constants_array(self, mech: FailureMechanism) -> np.ndarray:
        """Calibrated proportionality constants in canonical structure
        order (``inf`` entries make the corresponding FIT vanish)."""
        return np.array(
            [self.qualified.constant(mech.name, n) for n in STRUCTURE_NAMES]
        )

    def _fields(
        self,
        temperatures_k: np.ndarray,
        activity: np.ndarray,
        voltage_v: np.ndarray,
        frequency_hz: np.ndarray,
        weights: np.ndarray,
        config: MicroarchConfig,
    ) -> np.ndarray:
        """Per-(candidate, mechanism, structure) time-averaged FIT.

        ``temperatures_k``/``activity`` are ``(C, P, S)``;
        ``voltage_v``/``frequency_hz``/``weights`` are ``(C, P)``.
        """
        tech = self.qualified.technology
        v_nom = tech.vdd_nominal_v
        f_nom = tech.frequency_nominal_hz
        pf = np.array([config.powered_fraction(n) for n in STRUCTURE_NAMES])
        avg_t = (temperatures_k * weights[:, :, None]).sum(axis=1)
        fields = np.zeros(
            (temperatures_k.shape[0], len(self.mechanisms), len(STRUCTURE_NAMES))
        )
        for m_index, mech in enumerate(self.mechanisms):
            cycling = mech.name == "TC"
            if cycling:
                # Cycle depth is a whole-run property: run-average
                # temperatures, with the first interval's operating
                # conditions.
                rel = mech.relative_fit_batch(
                    avg_t,
                    voltage_v[:, :1],
                    frequency_hz[:, :1],
                    activity[:, 0, :],
                    v_nom,
                    f_nom,
                )
            else:
                rel = mech.relative_fit_batch(
                    temperatures_k,
                    voltage_v[:, :, None],
                    frequency_hz[:, :, None],
                    activity,
                    v_nom,
                    f_nom,
                )
            fit = FIT_DEVICE_HOURS * rel / self._constants_array(mech)
            if mech.scales_with_powered_area:
                fit = fit * pf
            fields[:, m_index, :] = fit if cycling else time_averaged_fit(fit, weights)
        return fields

    def _interval_fields(self, intervals: Sequence[Interval]) -> np.ndarray:
        """:meth:`_fields` of one run's intervals, as a batch of one."""
        if not intervals:
            raise ReliabilityError("evaluation has no intervals")
        return self._fields(
            np.array([[[iv.temperatures[n] for n in STRUCTURE_NAMES] for iv in intervals]]),
            np.array([[[iv.activity[n] for n in STRUCTURE_NAMES] for iv in intervals]]),
            np.array([[iv.op.voltage_v for iv in intervals]]),
            np.array([[iv.op.frequency_hz for iv in intervals]]),
            np.array([[iv.weight for iv in intervals]]),
            intervals[0].config,
        )

    def _account(self, fields_ms: np.ndarray, *, cycling: bool = True) -> FitAccount:
        """One candidate's ``(M, S)`` fields as a ledger, in mechanism
        then canonical structure order."""
        return FitAccount(
            {
                (mech.name, structure): float(fields_ms[m_index, s_index])
                for m_index, mech in enumerate(self.mechanisms)
                if cycling or mech.name != "TC"
                for s_index, structure in enumerate(STRUCTURE_NAMES)
            }
        )

    def interval_fit(self, interval: Interval) -> FitAccount:
        """Instantaneous FIT for one interval (EM, SM, TDDB only).

        Thermal cycling is deliberately absent: its stress (cycle depth)
        is a property of the whole run, not of an instant.
        """
        return self._account(self._interval_fields((interval,))[0], cycling=False)

    def application_reliability(self, evaluation: PlatformEvaluation) -> AppReliability:
        """Time-averaged FIT for an application run (Section 3.6).

        A batch of one: the same fields and the same total as
        :meth:`application_fit_batch` gives the candidate.
        """
        fields = self._interval_fields(evaluation.intervals)
        return AppReliability(
            account=self._account(fields[0]),
            fit_target=self.qualified.fit_target,
            total_fit=float(_sofr_totals(fields)[0]),
        )

    def application_fit_fields_batch(self, batch: "BatchEvaluation") -> np.ndarray:
        """Per-(mechanism, structure) time-averaged FIT for a whole batch.

        EM, SM and TDDB are evaluated per ``(candidate, interval,
        structure)`` cell and time-averaged per candidate; thermal
        cycling is evaluated from each candidate's run-average structure
        temperatures.  Returns shape ``(n_candidates, n_mechanisms,
        n_structures)`` with mechanisms in :attr:`mechanisms` order and
        structures in canonical ``STRUCTURE_NAMES`` order — the fields
        the cumulative-damage simulator (:mod:`repro.lifetime`)
        integrates per epoch.
        """
        return self._fields(
            batch.temperatures_k,
            batch.activity,
            batch.voltage_v,
            batch.frequency_hz,
            batch.weights,
            batch.run.config,
        )

    def application_fit_batch(self, batch: "BatchEvaluation") -> np.ndarray:
        """Time-averaged SOFR FIT for every candidate of a batch at once.

        The per-candidate total of :meth:`application_fit_fields_batch`.
        Shape ``(n_candidates,)``.
        """
        return _sofr_totals(self.application_fit_fields_batch(batch))

    def worst_instant_fit(self, evaluation: PlatformEvaluation) -> float:
        """The highest instantaneous (EM+SM+TDDB) FIT in any interval.

        Used by the time-averaging ablation: worst-case qualification
        effectively budgets to this value, while the paper's insight is
        that the *average* is what determines lifetime consumption.
        """
        return max(self.interval_fit(iv).total for iv in evaluation.intervals)


def _sofr_totals(fields: np.ndarray) -> np.ndarray:
    """SOFR total per candidate of ``(C, M, S)`` fields: each
    mechanism's structures summed, then the mechanisms in order."""
    total = np.zeros(fields.shape[0])
    for m_index in range(fields.shape[1]):
        total += fields[:, m_index, :].sum(axis=1)
    return total
