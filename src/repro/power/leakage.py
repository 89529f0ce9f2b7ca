"""Leakage power with exponential temperature dependence.

The paper models a leakage power density of 0.5 W/mm^2 at 383 K for the
65 nm process (from industry data, assuming aggressive leakage-control
techniques) and applies the technique of Heo et al. for its temperature
dependence:

    P_leak(T) = P_leak(T_ref) * exp(k * (T - T_ref)),   k = 0.017 for 65 nm

Leakage also scales with supply voltage (sub-threshold leakage is roughly
linear in V over a DVS range); we include that linear factor so DVS
lowers leakage as well as dynamic power.  Powered-down structure slices
have no supply voltage and therefore no leakage.
"""

from __future__ import annotations

import numpy as np

from repro.config.technology import STRUCTURES, TechnologyParameters
from repro.constants import MAX_TEMPERATURE_K, MIN_TEMPERATURE_K

#: Structure areas (mm^2) in canonical structure order.
AREAS_MM2 = np.array([s.area_mm2 for s in STRUCTURES])


class LeakagePowerModel:
    """Computes per-structure leakage power from temperature.

    Args:
        technology: supplies the leakage density, reference temperature,
            and the exponential temperature coefficient.
    """

    def __init__(self, technology: TechnologyParameters) -> None:
        self.technology = technology

    def power_w(
        self,
        temperatures_k: np.ndarray,
        powered_fraction: np.ndarray,
        v_ratio: np.ndarray,
    ) -> np.ndarray:
        """Leakage power per structure in watts.

        Args:
            temperatures_k: structure temperatures, last axis in
                canonical structure order.
            powered_fraction: per-structure powered fraction, ``(S,)``
                (powered-down slices do not leak).
            v_ratio: V/V_nom, broadcastable against ``temperatures_k``
                (leakage scales ~linearly with V).

        Raises:
            ValueError: if any temperature is outside
                [``MIN_TEMPERATURE_K``, ``MAX_TEMPERATURE_K``].
        """
        t_min = float(temperatures_k.min())
        t_max = float(temperatures_k.max())
        if t_min < MIN_TEMPERATURE_K or t_max > MAX_TEMPERATURE_K:
            worst = t_min if t_min < MIN_TEMPERATURE_K else t_max
            raise ValueError(
                f"leakage temperature {worst!r} K outside plausible range "
                f"[{MIN_TEMPERATURE_K}, {MAX_TEMPERATURE_K}]"
            )
        tech = self.technology
        density = tech.leakage_density_w_per_mm2 * np.exp(
            tech.leakage_temp_coefficient_per_k
            * (temperatures_k - tech.leakage_reference_temp_k)
        )
        return density * AREAS_MM2 * powered_fraction * v_ratio
