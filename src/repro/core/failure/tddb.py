"""Time-dependent dielectric breakdown (gate-oxide wear-out), Section 3.3.

The gate dielectric wears down until a conductive path forms through it.
RAMP uses the unified ultra-thin-oxide model of Wu et al. (IBM), fitted
over a wide range of oxide thicknesses, voltages, and temperatures:

    MTTF_TDDB ∝ (1/V)^(a - b·T) · exp[(X + Y/T + Z·T) / (kT)]

The voltage exponent (a - b·T) is enormous (~100 at operating
temperatures), which is why the paper finds that small DVS voltage drops
reduce the TDDB FIT drastically — the dominant effect behind DVS beating
microarchitectural adaptation for DRM.

The ISCA-04 text lists the fitting parameters but they are garbled in the
available scan; the values below follow the
model as published in the companion RAMP papers (Srinivasan et al., DSN
2004 / IEEE Micro 2005): a = 78, |b| = 0.081 K^-1, X = 0.759 eV,
Y = -66.8 eV·K, Z = -8.37e-4 eV/K, with the sign of b chosen so the
voltage acceleration exponent (a - b·T ≈ 46 at 400 K) *decreases* with
temperature — the central experimental finding of Wu et al.'s
voltage/temperature interplay study.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import BOLTZMANN_EV_PER_K
from repro.core.failure.base import FailureMechanism, StressConditions
from repro.errors import ReliabilityError


class TimeDependentDielectricBreakdown(FailureMechanism):
    """Wu et al. unified TDDB model for ultra-thin gate oxides.

    Args:
        a, b: voltage-exponent fit (exponent is ``a - b*T``).
        x_ev, y_ev_k, z_ev_per_k: the temperature-activation fit.
    """

    name = "TDDB"
    scales_with_powered_area = True

    def __init__(
        self,
        a: float = 78.0,
        b: float = 0.081,
        x_ev: float = 0.759,
        y_ev_k: float = -66.8,  # eV·K fit term, not eV
        z_ev_per_k: float = -8.37e-4,
    ) -> None:
        self.a = a
        self.b = b
        self.x_ev = x_ev
        self.y_ev_k = y_ev_k
        self.z_ev_per_k = z_ev_per_k

    def voltage_exponent(self, temperature_k: float) -> float:
        """The effective voltage power ``a - b*T`` at a temperature."""
        return self.a - self.b * temperature_k

    def relative_mttf(self, conditions: StressConditions) -> float:
        """(1/V)^(a-bT) · exp[(X + Y/T + Z·T)/(kT)]."""
        t = conditions.temperature_k
        v = conditions.voltage_v
        exponent = self.voltage_exponent(t)
        activation = (
            self.x_ev + self.y_ev_k / t + self.z_ev_per_k * t
        ) / (BOLTZMANN_EV_PER_K * t)
        mttf = (1.0 / v) ** exponent * float(np.exp(activation))
        if not math.isfinite(mttf) or mttf <= 0.0:
            # The huge voltage exponent (~100) can overflow or underflow
            # float range for extreme (but validated) operating points;
            # surface that instead of propagating inf/0 into the FIT sum.
            raise ReliabilityError(
                f"TDDB relative MTTF degenerate ({mttf!r}) at "
                f"T={t!r} K, V={v!r} V"
            )
        return mttf

    def relative_fit_batch(
        self,
        temperature_k: np.ndarray,
        voltage_v: np.ndarray,
        frequency_hz: np.ndarray,
        activity: np.ndarray,
        v_nominal: float,
        f_nominal: float,
    ) -> np.ndarray:
        """Array form of :meth:`relative_mttf` reciprocal.

        The huge voltage exponent can underflow MTTF to zero at extreme
        operating points; those elements map to an infinite FIT rather
        than a divide-by-zero warning, and the caller's finite-check
        rejects them the same way the scalar path's error does.
        """
        t = temperature_k
        exponent = self.a - self.b * t
        activation = (
            self.x_ev + self.y_ev_k / t + self.z_ev_per_k * t
        ) / (BOLTZMANN_EV_PER_K * t)
        with np.errstate(divide="ignore"):
            mttf = (1.0 / voltage_v) ** exponent * np.exp(activation)
            fit = np.where(mttf > 0.0, 1.0 / mttf, np.inf)
        return np.broadcast_to(fit, np.broadcast(fit, activity).shape)
