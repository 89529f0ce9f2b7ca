"""Combined power model: dynamic + leakage, with thermal feedback.

Leakage depends on temperature while temperature depends on total power,
so the two are solved as a fixed point: the batch kernel
(:mod:`repro.kernels.batch`) iterates power -> temperature -> leakage over
a whole candidate grid until the temperatures converge, calling each
model's one array form.  This module holds the two models and the
per-interval breakdown record that a materialised evaluation carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.technology import TechnologyParameters, DEFAULT_TECHNOLOGY
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-structure power at one evaluation point.

    Attributes:
        dynamic: per-structure dynamic power (W).
        leakage: per-structure leakage power (W).
    """

    dynamic: dict[str, float]
    leakage: dict[str, float]

    def structure_total(self, name: str) -> float:
        """Total (dynamic + leakage) power of one structure."""
        return self.dynamic[name] + self.leakage[name]

    def totals(self) -> dict[str, float]:
        """Per-structure total power."""
        return {n: self.structure_total(n) for n in self.dynamic}

    @property
    def total_w(self) -> float:
        """Whole-core power in watts."""
        return sum(self.dynamic.values()) + sum(self.leakage.values())

    @property
    def total_dynamic_w(self) -> float:
        return sum(self.dynamic.values())

    @property
    def total_leakage_w(self) -> float:
        return sum(self.leakage.values())


class PowerModel:
    """The dynamic and leakage models of one calibrated technology.

    Args:
        technology: process parameters (defaults to the paper's 65 nm).
        dynamic_scale: global multiplier on dynamic power density (used by
            the technology-scaling study; 1.0 = the calibrated 65 nm core).
    """

    def __init__(
        self,
        technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
        dynamic_scale: float = 1.0,
    ) -> None:
        self.technology = technology
        self.dynamic = DynamicPowerModel(technology, scale=dynamic_scale)
        self.leakage = LeakagePowerModel(technology)
