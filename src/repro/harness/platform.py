"""The evaluable platform: CPU stats -> power -> temperature -> intervals.

A :class:`Platform` takes a cycle-level :class:`~repro.cpu.simulator.WorkloadRun`
(simulated once, at the base clock) and evaluates what happens when that
workload executes at an arbitrary DVS operating point:

1. per-phase performance is rescaled with the analytical
   :class:`~repro.cpu.analytical.FrequencyScalingModel` (off-chip latency
   is fixed in nanoseconds);
2. per-phase activity factors are rescaled by the IPC ratio (activity is
   events per cycle, so it tracks IPC);
3. power and temperature are solved as a fixed point per phase (leakage
   depends on temperature and vice versa), with the heat sink initialised
   by the paper's two-pass methodology;
4. the result is a list of :class:`Interval` records — exactly the
   (T, V, f, p) samples RAMP's time-averaged FIT accounting consumes.

Steps 1-3 run only in the batch kernel (:mod:`repro.kernels.batch`), over
a whole candidate grid at once; :meth:`Platform.evaluate` and
:meth:`Platform.evaluate_mixed` are grids of one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.config.microarch import MicroarchConfig
from repro.config.technology import (
    STRUCTURE_NAMES,
    TechnologyParameters,
    DEFAULT_TECHNOLOGY,
)
from repro.cpu.simulator import WorkloadRun
from repro.kernels.batch import (
    BatchEvaluation,
    BatchKernel,
    Candidate,
    MAX_FIXED_POINT_ITERS,
)
from repro.power.model import PowerBreakdown, PowerModel
from repro.thermal.floorplan import build_default_floorplan
from repro.thermal.rc_network import (
    DEFAULT_THERMAL_PARAMETERS,
    ThermalParameters,
    ThermalRCNetwork,
)
from repro.thermal.solver import SteadyStateSolver


@dataclass(frozen=True)
class Interval:
    """One RAMP accounting interval (the analogue of the paper's 1 s samples).

    Attributes:
        weight: fraction of run time spent in this interval.
        temperatures: per-structure temperature (K).
        activity: per-structure activity factor at this operating point.
        power: the power breakdown that produced the temperatures.
        op: voltage/frequency operating point.
        config: microarchitectural configuration.
    """

    weight: float
    temperatures: dict[str, float]
    activity: dict[str, float]
    power: PowerBreakdown
    op: OperatingPoint
    config: MicroarchConfig


@dataclass(frozen=True)
class PlatformEvaluation:
    """Everything the reliability and management layers need from one run.

    Attributes:
        intervals: per-phase conditions, time-weighted.
        sink_temperature_k: the converged heat-sink temperature.
        ips: absolute performance (instructions per second).
        avg_power_w: time-weighted average total power.
        peak_temperature_k: hottest structure temperature in any interval.
    """

    intervals: tuple[Interval, ...]
    sink_temperature_k: float
    ips: float
    avg_power_w: float

    @property
    def peak_temperature_k(self) -> float:
        return max(max(i.temperatures.values()) for i in self.intervals)

    @property
    def avg_temperature_by_structure(self) -> dict[str, float]:
        """Time-weighted average temperature per structure (drives the
        thermal-cycling FIT, which depends on the average cycle depth)."""
        avg = {name: 0.0 for name in STRUCTURE_NAMES}
        for interval in self.intervals:
            for name in STRUCTURE_NAMES:
                avg[name] += interval.temperatures[name] * interval.weight
        return avg


class Platform:
    """CPU + power + thermal wired together.

    Args:
        technology: process parameters (Table 1 defaults).
        thermal_params: package-stack parameters.
        vf_curve: the DVS voltage/frequency law.
        power_scale: global dynamic-power-density multiplier (the
            technology-scaling study's knob; 1.0 = calibrated 65 nm).
    """

    def __init__(
        self,
        technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
        thermal_params: ThermalParameters = DEFAULT_THERMAL_PARAMETERS,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        power_scale: float = 1.0,
    ) -> None:
        self.technology = technology
        self.vf_curve = vf_curve
        self.power_scale = power_scale
        self.power_model = PowerModel(technology, dynamic_scale=power_scale)
        self.floorplan = build_default_floorplan(technology)
        self.network = ThermalRCNetwork(self.floorplan, thermal_params)
        self.solver = SteadyStateSolver(self.network)
        self._kernel: BatchKernel | None = None
        self._kernel_lock = threading.Lock()
        self._eval_memo: OrderedDict | None = None
        self._eval_memo_capacity = 0
        self._eval_memo_lock = threading.Lock()
        self._eval_memo_hits = 0
        self._eval_memo_misses = 0

    def fingerprint(self) -> dict:
        """Canonical JSON-ready description of the platform's physics.

        Everything that can change an evaluation's numbers is included:
        technology constants, package-stack parameters, the DVS law, and
        the dynamic-power scale.  The job engine hashes this into the
        cache keys of power/thermal-dependent jobs, so cached decisions
        are invalidated when the modelled hardware changes.
        """
        return {
            "technology": asdict(self.technology),
            "thermal": asdict(self.network.params),
            "vf_curve": asdict(self.vf_curve),
            "power_scale": self.power_scale,
        }

    # ------------------------------------------------------------------

    @property
    def kernel(self) -> BatchKernel:
        """The batched evaluation kernel bound to this platform's physics.

        Built lazily and reused for every grid: the thermal topology, the
        Cholesky factor, and the structure-to-node permutation are all
        candidate-independent.
        """
        # Double-checked: service worker threads share one Platform, and
        # two of them racing the lazy build would each construct a
        # kernel with only one surviving — wasted Cholesky work and a
        # torn read on CPython-without-GIL.  The fast path stays
        # lock-free once built.
        if self._kernel is None:
            with self._kernel_lock:
                if self._kernel is None:
                    self._kernel = BatchKernel(
                        self.power_model, self.network, self.solver
                    )
        return self._kernel

    # ---- evaluation memo ----------------------------------------------

    def enable_evaluation_memo(self, capacity: int = 256) -> None:
        """Memoise :meth:`evaluate_batch` results in a bounded LRU.

        Off by default (sweeps stream millions of one-shot grids through
        the kernel; caching them would only burn memory).  The decision
        service turns it on so concurrent requests that differ only in
        their reliability knob (e.g. two DRM queries for the same
        application at different ``t_qual_k``) share one grid
        evaluation: the candidate tensors, fixed point, and thermal
        solve run once, and each request applies its own RAMP model to
        the shared :class:`~repro.kernels.batch.BatchEvaluation`.

        Entries are keyed on ``(id(run), schedules, max_iters,
        salvage)``.  Keying on ``id`` is sound because every cached
        evaluation holds a strong reference to its run (``batch.run``),
        so the id cannot be recycled while the entry lives.
        """
        if capacity < 1:
            raise ValueError("evaluation memo capacity must be >= 1")
        with self._eval_memo_lock:
            self._eval_memo = OrderedDict()
            self._eval_memo_capacity = capacity

    def disable_evaluation_memo(self) -> None:
        """Drop the memo and return to uncached evaluation."""
        with self._eval_memo_lock:
            self._eval_memo = None
            self._eval_memo_capacity = 0

    def evaluation_memo_stats(self) -> dict[str, int]:
        """Hit/miss/size counters for the memo (zeros when disabled)."""
        with self._eval_memo_lock:
            return {
                "enabled": int(self._eval_memo is not None),
                "size": len(self._eval_memo) if self._eval_memo is not None else 0,
                "capacity": self._eval_memo_capacity,
                "hits": self._eval_memo_hits,
                "misses": self._eval_memo_misses,
            }

    def evaluate_batch(
        self,
        run: WorkloadRun,
        candidates: Sequence[Candidate],
        *,
        max_iters: int = MAX_FIXED_POINT_ITERS,
        salvage: bool = True,
    ) -> BatchEvaluation:
        """Evaluate a whole candidate grid against one run in one call.

        This is the **primary evaluation API**: every per-structure
        quantity is computed as a ``(candidates, phases, structures)``
        tensor and the leakage/temperature fixed point iterates over the
        entire grid simultaneously with per-row convergence masking.  The
        oracles (DRM, DTM, intra-application, joint) all route through
        it; :meth:`evaluate` and :meth:`evaluate_mixed` are single-row
        convenience wrappers.

        Args:
            run: one simulated workload (a single microarchitecture).
            candidates: a sequence of operating points (each applied
                uniformly to every phase) and/or per-phase schedules.
            max_iters: fixed-point iteration budget.
            salvage: repair unconverged / non-finite candidates per row
                (clean re-run, then extended budget, then masked with a
                :class:`~repro.errors.DegradedResultWarning`) instead of
                failing the whole grid; the returned evaluation's
                ``salvage`` report records what happened.

        Raises:
            ValueError: for an empty grid, a run without phases, a
                schedule of the wrong length, or non-positive durations.
            InputValidationError: if the run carries non-finite activity
                factors — named by structure and phase instead of
                propagating silently into powers and FIT sums.
            ThermalError: with ``salvage=False``, if any candidate's
                fixed point fails to converge — the message names the
                offending rows.
        """
        if self._eval_memo is None:
            return self.kernel.evaluate(run, candidates, max_iters, salvage=salvage)
        schedules = self.kernel._normalise(run, candidates)
        key = (id(run), schedules, max_iters, salvage)
        with self._eval_memo_lock:
            if self._eval_memo is not None:
                hit = self._eval_memo.get(key)
                if hit is not None:
                    self._eval_memo.move_to_end(key)
                    self._eval_memo_hits += 1
                    return hit
                self._eval_memo_misses += 1
        batch = self.kernel.evaluate(run, schedules, max_iters, salvage=salvage)
        with self._eval_memo_lock:
            if self._eval_memo is not None:
                self._eval_memo[key] = batch
                while len(self._eval_memo) > self._eval_memo_capacity:
                    self._eval_memo.popitem(last=False)
        return batch

    def evaluate(self, run: WorkloadRun, op: OperatingPoint) -> PlatformEvaluation:
        """Evaluate a run at one operating point.

        Convenience wrapper over :meth:`evaluate_batch` with a
        single-candidate grid.
        """
        return self.evaluate_batch(run, [op]).evaluation(0)

    def evaluate_mixed(
        self, run: WorkloadRun, ops: Sequence[OperatingPoint]
    ) -> PlatformEvaluation:
        """Evaluate a run with a per-phase operating point.

        This is the substrate for intra-application DRM: each phase may
        run at its own DVS point; phase durations (hence RAMP interval
        weights) follow from each phase's own frequency, and the heat
        sink settles to the schedule's time-weighted average power.
        Convenience wrapper over :meth:`evaluate_batch` with a
        single-schedule grid.

        Raises:
            ThermalError: if the fixed point fails to converge.
            ValueError: if ``ops`` does not match the phase count, the
                run has no phases, or any phase duration is non-positive.
        """
        return self.evaluate_batch(run, [tuple(ops)]).evaluation(0)

    def performance_relative_to_base(
        self, evaluation: PlatformEvaluation, base_evaluation: PlatformEvaluation
    ) -> float:
        """Speedup (or slowdown) vs the base non-adaptive processor."""
        return evaluation.ips / base_evaluation.ips
