"""Thermal cycling fatigue (Coffin-Manson), Section 3.4 of the paper.

Temperature cycles accumulate fatigue damage, most pronounced at the
package/die interface (solder joints).  The paper models only the large,
low-frequency cycles (power-up/down, standby transitions) — validated
models for small high-frequency cycles do not exist — via the
Coffin-Manson relation on the number of cycles to failure:

    N_TC ∝ (1 / ΔT)^q

With a fixed cycling frequency folded into the proportionality constant,
the MTTF is

    MTTF_TC ∝ (1 / (T_average - T_ambient))^q

where T_average is the structure's average temperature over the run and
q = 2.35, the Coffin-Manson exponent for the package.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CYCLE_COLD_TEMPERATURE_K, TC_COFFIN_MANSON_EXPONENT
from repro.core.failure.base import FailureMechanism


class ThermalCycling(FailureMechanism):
    """Coffin-Manson package-fatigue model.

    The ``temperature_k`` of the supplied conditions must be the
    *run-average* structure temperature — RAMP's accounting handles that
    (Section 3.6: "for thermal cycling, we calculate the average
    temperature over the entire run").

    Args:
        coffin_manson_exponent: q (2.35 for the package).
        ambient_k: the cold end of the modelled cycle (the powered-off
            room-temperature state, not the in-case air temperature).
    """

    name = "TC"
    scales_with_powered_area = False

    def __init__(
        self,
        coffin_manson_exponent: float = TC_COFFIN_MANSON_EXPONENT,
        ambient_k: float = CYCLE_COLD_TEMPERATURE_K,
    ) -> None:
        self.q = coffin_manson_exponent
        self.ambient_k = ambient_k

    def mttf_expression(
        self,
        temperature_k: np.ndarray,
        voltage_v: np.ndarray,
        frequency_hz: np.ndarray,
        activity: np.ndarray,
        v_nominal: float,
        f_nominal: float,
    ) -> np.ndarray:
        """(1/(T_avg - T_ambient))^q; infinite when never above ambient.

        ``temperature_k`` must carry *run-average* temperatures.
        """
        delta = temperature_k - self.ambient_k
        return np.where(delta > 0.0, (1.0 / delta) ** self.q, np.inf)
