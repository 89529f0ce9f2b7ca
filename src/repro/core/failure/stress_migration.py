"""Stress migration, Section 3.2 of the paper.

Metal atoms migrate under thermo-mechanical stress caused by the
differing thermal-expansion rates of the materials in the device.  The
stress is proportional to the deviation of the operating temperature
from the metal deposition (stress-free) temperature:

    MTTF_SM ∝ |T_metal - T|^(-m) · exp(Ea / kT)

Two opposing temperature effects: the Arrhenius term accelerates
wear-out exponentially with temperature, while running *closer* to the
deposition temperature reduces the stress term.  The exponential effect
dominates in practice — the model reproduces that.

Constants for the sputtered copper interconnects modelled: m = 2.5,
Ea = 0.9 eV, T_metal = 500 K.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    BOLTZMANN_EV_PER_K,
    SM_ACTIVATION_ENERGY_EV,
    SM_STRESS_EXPONENT,
)
from repro.core.failure.base import FailureMechanism


class StressMigration(FailureMechanism):
    """Thermo-mechanical stress-migration model.

    Args:
        stress_exponent: m (2.5 for the modelled copper).
        activation_energy_ev: Ea (0.9 eV).
        deposition_temperature_k: the stress-free temperature (500 K for
            sputtered deposition, per the paper).
    """

    name = "SM"
    scales_with_powered_area = False

    def __init__(
        self,
        stress_exponent: float = SM_STRESS_EXPONENT,
        activation_energy_ev: float = SM_ACTIVATION_ENERGY_EV,
        deposition_temperature_k: float = 500.0,
    ) -> None:
        self.m = stress_exponent
        self.ea_ev = activation_energy_ev
        self.t_metal_k = deposition_temperature_k

    def mttf_expression(
        self,
        temperature_k: np.ndarray,
        voltage_v: np.ndarray,
        frequency_hz: np.ndarray,
        activity: np.ndarray,
        v_nominal: float,
        f_nominal: float,
    ) -> np.ndarray:
        """|T_metal - T|^(-m) · exp(Ea/kT); infinite at zero stress
        (exactly at the deposition temperature)."""
        stress = np.abs(self.t_metal_k - temperature_k)
        arrhenius = np.exp(self.ea_ev / (BOLTZMANN_EV_PER_K * temperature_k))
        return stress ** (-self.m) * arrhenius
