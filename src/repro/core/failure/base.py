"""Failure-mechanism interface.

Each mechanism computes a *relative MTTF*: the device-model expression
with its proportionality constant set to 1.  Reliability qualification
(:mod:`repro.core.qualification`) later fixes the constant per structure
so that worst-case operation exactly meets the FIT budget — exactly the
paper's procedure, where the constants stand in for the (unknown)
cost-vs-reliability function of materials and yield.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.constants import validate_temperature
from repro.errors import ReliabilityError


@dataclass(frozen=True)
class StressConditions:
    """The operating parameters a failure model sees for one structure.

    Attributes:
        temperature_k: the structure's temperature (for thermal cycling
            this is the run-average temperature; see the paper, Sec. 3.4).
        voltage_v: supply voltage.
        frequency_hz: clock frequency.
        activity: the structure's activity factor (switching probability
            proxy) in [0, 1].
        v_nominal / f_nominal: the base operating point, used to express
            current density relative to the nominal design point.
    """

    temperature_k: float
    voltage_v: float
    frequency_hz: float
    activity: float
    v_nominal: float = 1.0
    f_nominal: float = 4.0e9

    def __post_init__(self) -> None:
        validate_temperature(self.temperature_k, what="stress temperature")
        if self.voltage_v <= 0.0 or self.frequency_hz <= 0.0:
            raise ReliabilityError("voltage and frequency must be positive")
        if not 0.0 <= self.activity <= 1.0:
            raise ReliabilityError(f"activity {self.activity} outside [0, 1]")
        if self.v_nominal <= 0.0 or self.f_nominal <= 0.0:
            raise ReliabilityError("nominal operating point must be positive")

    @property
    def v_ratio(self) -> float:
        return self.voltage_v / self.v_nominal

    @property
    def f_ratio(self) -> float:
        # repro: ignore[RPR303] f_nominal validated positive in __post_init__
        return self.frequency_hz / self.f_nominal


class FailureMechanism(abc.ABC):
    """One intrinsic (wear-out) failure mechanism.

    Attributes:
        name: short identifier used in reports and budget keys.
        scales_with_powered_area: whether a structure's FIT from this
            mechanism shrinks proportionally when DRM powers down part of
            the structure (true for electromigration and TDDB — no
            current flow or supply voltage in a gated slice — false for
            the mechanical mechanisms).
    """

    name: str = "abstract"
    scales_with_powered_area: bool = False

    @abc.abstractmethod
    def relative_mttf(self, conditions: StressConditions) -> float:
        """The MTTF expression with unit proportionality constant.

        Returns ``math.inf`` when the mechanism cannot act at all under
        the given conditions (e.g. electromigration at zero activity).
        """

    def relative_fit(self, conditions: StressConditions) -> float:
        """Reciprocal of :meth:`relative_mttf` (0 when MTTF is infinite)."""
        mttf = self.relative_mttf(conditions)
        if mttf <= 0.0:
            raise ReliabilityError(
                f"{self.name}: non-positive relative MTTF {mttf!r}"
            )
        if math.isinf(mttf):
            return 0.0
        return 1.0 / mttf

    def relative_fit_batch(
        self,
        temperature_k: np.ndarray,
        voltage_v: np.ndarray,
        frequency_hz: np.ndarray,
        activity: np.ndarray,
        v_nominal: float,
        f_nominal: float,
    ) -> np.ndarray:
        """Vectorized :meth:`relative_fit` over broadcastable arrays.

        Inputs must already satisfy the :class:`StressConditions`
        invariants elementwise (temperature range, activity in [0, 1],
        positive voltage/frequency) — the batch kernel validates them
        once per grid instead of once per element.

        The four built-in mechanisms override this with closed-form
        array expressions; this fallback evaluates the scalar model per
        element so custom mechanisms stay correct without extra work.
        """
        t, v, f, a = np.broadcast_arrays(
            temperature_k, voltage_v, frequency_hz, activity
        )
        out = np.empty(t.shape, dtype=float)
        flat = out.reshape(-1)
        # Scalar fallback: mechanisms without a closed-form batch
        # override evaluate per element.
        for i, (ti, vi, fi, ai) in enumerate(
            zip(t.reshape(-1), v.reshape(-1), f.reshape(-1), a.reshape(-1))
        ):
            flat[i] = self.relative_fit(
                StressConditions(
                    temperature_k=float(ti),
                    voltage_v=float(vi),
                    frequency_hz=float(fi),
                    activity=float(ai),
                    v_nominal=v_nominal,
                    f_nominal=f_nominal,
                )
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
