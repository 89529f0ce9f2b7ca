"""Per-structure dynamic power.

Wattch-style model: each structure has a calibrated maximum dynamic power
at the nominal operating point; its actual dynamic power is

    P_dyn = P_max * (floor + (1 - floor) * activity)
                  * (V / V_nom)^2 * (f / f_nom) * powered_fraction

- ``floor`` is the clock-gating residue: the paper charges 10% of maximum
  power to a component in cycles it is not accessed.
- The V^2·f factor is the standard CMOS dynamic-energy scaling; combined
  with the linear V(f) DVS curve it yields the near-cubic
  power-vs-frequency relationship the paper leans on.
- ``powered_fraction`` accounts for DRM's microarchitectural adaptation:
  powered-down window entries and functional units (with their selection
  logic, result-bus slices, wake-up and register ports) draw nothing.
"""

from __future__ import annotations

import numpy as np

from repro.config.technology import STRUCTURES, TechnologyParameters
from repro.errors import ConfigurationError

#: Fraction of maximum power charged to an idle (clock-gated) structure.
CLOCK_GATE_FLOOR = 0.10

#: Calibrated peak dynamic powers (W) in canonical structure order.
PEAK_DYNAMIC_W = np.array([s.peak_dynamic_w for s in STRUCTURES])


class DynamicPowerModel:
    """Computes per-structure dynamic power from activity factors.

    Args:
        technology: supplies the nominal voltage and frequency.
        gate_floor: idle-power fraction under clock gating (default 10%).
        scale: global multiplier on the calibrated peak powers — the
            power-density knob used by the technology-scaling study.
    """

    def __init__(
        self,
        technology: TechnologyParameters,
        gate_floor: float = CLOCK_GATE_FLOOR,
        scale: float = 1.0,
    ) -> None:
        if not 0.0 <= gate_floor <= 1.0:
            raise ConfigurationError("gate floor must be in [0, 1]")
        if scale <= 0.0:
            raise ConfigurationError("power scale must be positive")
        self.technology = technology
        self.gate_floor = gate_floor
        self.scale = scale

    def power_w(
        self,
        activity: np.ndarray,
        v_ratio: np.ndarray,
        f_ratio: np.ndarray,
        powered_fraction: np.ndarray,
    ) -> np.ndarray:
        """Dynamic power per structure in watts.

        Args:
            activity: activity factors in [0, 1], last axis in canonical
                structure order (``STRUCTURE_NAMES``).
            v_ratio / f_ratio: V/V_nom and f/f_nom, broadcastable
                against ``activity``.
            powered_fraction: per-structure powered fraction, ``(S,)``
                (see :meth:`MicroarchConfig.powered_fraction`).

        Raises:
            ConfigurationError: if the structure axis has the wrong
                length or an activity factor is outside [0, 1].
        """
        if activity.shape[-1:] != PEAK_DYNAMIC_W.shape:
            raise ConfigurationError(
                f"activity needs one factor per structure "
                f"({PEAK_DYNAMIC_W.size}), got shape {activity.shape}"
            )
        if not ((activity >= 0.0) & (activity <= 1.0)).all():
            raise ConfigurationError("activity factors must lie in [0, 1]")
        vf_scale = v_ratio * v_ratio * f_ratio
        gated = self.gate_floor + (1.0 - self.gate_floor) * activity
        return (PEAK_DYNAMIC_W * self.scale) * gated * vf_scale * powered_fraction
