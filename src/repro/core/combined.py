"""Joint reliability + thermal management (the paper's conclusion).

Section 7.3 ends: "neither technique subsumes the other and future
systems must provide mechanisms to support both together."  This module
is that mechanism: a joint oracle that picks the best-performing
operating point satisfying **both** the lifetime FIT target (DRM's
budgetable, time-averaged constraint) and the instantaneous thermal
design point (DTM's hard cap).

The joint feasible region is the intersection, so the joint choice never
out-clocks either single policy; the bench quantifies how much
performance honouring both constraints costs relative to each alone —
and verifies the joint choice violates neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH
from repro.constants import TARGET_FIT, validate_temperature
from repro.core.decision import Decision
from repro.core.ramp import RampModel
from repro.errors import AdaptationError
from repro.harness.platform import Platform, PlatformEvaluation
from repro.harness.sweep import SimulationCache
from repro.workloads.characteristics import WorkloadProfile


@dataclass(frozen=True, kw_only=True)
class JointDecision(Decision):
    """The joint policy's choice for one (application, T_qual, T_limit).

    Extends the shared :class:`~repro.core.decision.Decision` record;
    ``meets_target`` is the conjunction of the two per-constraint
    verdicts below.

    Attributes:
        t_qual_k: reliability qualification temperature.
        t_limit_k: thermal design point.
        op: chosen operating point.
        peak_temperature_k: hottest structure temperature at the choice.
        meets_fit / meets_thermal: per-constraint verdicts (both True
            unless no candidate satisfies the pair, in which case the
            least-violating candidate is returned).
    """

    t_qual_k: float
    t_limit_k: float
    op: OperatingPoint
    peak_temperature_k: float
    meets_fit: bool
    meets_thermal: bool


class JointOracle:
    """Oracle DVS management under simultaneous FIT and thermal caps.

    Args:
        ramp_factory: T_qual -> qualified RAMP model (share
            ``DRMOracle.ramp_for``).
        platform / cache / vf_curve / fit_target / dvs_steps: as in the
            single-constraint oracles.
    """

    def __init__(
        self,
        ramp_factory,
        platform: Platform | None = None,
        cache: SimulationCache | None = None,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        fit_target: float = TARGET_FIT,
        dvs_steps: int = 26,
    ) -> None:
        self.ramp_factory = ramp_factory
        self.platform = platform or Platform(vf_curve=vf_curve)
        self.cache = cache or SimulationCache()
        self.vf_curve = vf_curve
        self.fit_target = fit_target
        self.dvs_steps = dvs_steps
        self._base_evals: dict[str, PlatformEvaluation] = {}

    def _base_evaluation(self, profile: WorkloadProfile) -> PlatformEvaluation:
        cached = self._base_evals.get(profile.name)
        if cached is None:
            run = self.cache.run(profile, BASE_MICROARCH)
            cached = self.platform.evaluate(run, self.vf_curve.nominal)
            self._base_evals[profile.name] = cached
        return cached

    def best(
        self,
        profile: WorkloadProfile,
        *,
        t_qual_k: float,
        t_limit_k: float,
    ) -> JointDecision:
        """Best DVS point within both constraints.

        Keyword-only: ``best(profile, t_qual_k=370.0, t_limit_k=355.0)``.
        The whole DVS grid goes through one
        :meth:`~repro.harness.platform.Platform.evaluate_batch` call plus
        one batched RAMP pass.

        When the intersection is empty, returns the candidate minimising
        the larger of its two normalised violations.
        """
        validate_temperature(t_limit_k, what="T_limit")
        ramp: RampModel = self.ramp_factory(t_qual_k)
        grid = self.vf_curve.grid(self.dvs_steps)
        if not grid:
            raise AdaptationError("DVS grid is empty")
        target_fit = self.fit_target
        if target_fit <= 0.0:
            raise AdaptationError("FIT target must be positive")
        run = self.cache.run(profile, BASE_MICROARCH)
        base = self._base_evaluation(profile)
        batch = self.platform.evaluate_batch(run, grid)
        perf = batch.ips / base.ips
        fit = ramp.application_fit_batch(batch)
        peak = batch.peak_temperature_k
        meets_fit = fit <= target_fit + 1e-9
        meets_thermal = peak <= t_limit_k + 1e-9
        feasible = meets_fit & meets_thermal
        if np.any(feasible):
            chosen = np.flatnonzero(feasible)
            pick = int(chosen[np.argmax(perf[chosen])])
        else:
            violation = np.maximum(
                np.maximum(
                    fit / target_fit - 1.0,
                    (peak - t_limit_k) / max(t_limit_k, 1.0),
                ),
                0.0,
            )
            pick = int(np.argmin(violation))
        return JointDecision(
            profile_name=profile.name,
            t_qual_k=t_qual_k,
            t_limit_k=t_limit_k,
            op=grid[pick],
            performance=float(perf[pick]),
            fit=float(fit[pick]),
            peak_temperature_k=float(peak[pick]),
            meets_fit=bool(meets_fit[pick]),
            meets_thermal=bool(meets_thermal[pick]),
            meets_target=bool(feasible[pick]),
        )
