"""The batched power/thermal evaluation kernel — the only one.

Every power/thermal evaluation in the package runs here: a
:class:`BatchKernel` call lays every per-structure quantity out as a
``(n_candidates, n_phases, n_structures)`` tensor whose last axis follows
the **canonical structure index** — position ``i`` is
``STRUCTURE_NAMES[i]`` (see :data:`STRUCTURE_INDEX`).  Dynamic power and
leakage(T) come from the power models' array forms
(:meth:`~repro.power.dynamic.DynamicPowerModel.power_w`,
:meth:`~repro.power.leakage.LeakagePowerModel.power_w`); the paper's
two-pass thermal solve (pass one: the heat sink's long-run temperature
from the time-weighted average power; pass two: each interval's die
temperatures with the sink pinned there) is a pair of array solves, so
the leakage/temperature fixed point iterates over the whole candidate
grid simultaneously.  A single operating point or schedule is a grid of
one (:meth:`~repro.harness.platform.Platform.evaluate`).

Convergence is tracked **per row** (per candidate): a candidate whose
largest temperature update falls below the 0.01 K tolerance is frozen —
its temperatures, powers, and sink value stop changing — while the
remaining rows keep iterating.  Rows are therefore independent of their
neighbours: a candidate's outputs do not depend on which grid it was
evaluated in.

**Graceful degradation** (``salvage=True``, the default): rows that fail
to converge, or whose tensors turn non-finite (e.g. an injected NaN
poison), are *salvaged* instead of failing the whole batch.  The ladder:

1. re-run the row alone, clean — rows are independent, so a clean
   single-row re-run reproduces exactly what the batch would have
   computed;
2. re-run the row alone with an extended iteration budget;
3. mask the row out — its outputs become NaN, a structured
   :class:`~repro.errors.DegradedResultWarning` names the candidates,
   and the :class:`SalvageReport` on the returned evaluation records
   what happened.

With ``salvage=False`` unconverged rows raise
:class:`~repro.errors.ThermalError` naming the offending candidate
indices.

**Bit rule.**  There is no second implementation to compare against;
``tests/golden/physics.json`` pins the kernel's outputs bit for bit and
keeps the retired dict-walking evaluation's values as a frozen 1e-12
reference.  numpy evaluates ``pow`` on arrays (of any length, one
included) with SIMD routines whose last bit can differ from the libm
``pow`` it uses for 0-d ``np.float64`` scalars.  So an expression gives
the same bits for a candidate whether its array holds one row or a
thousand, but not necessarily the same bits as on 0-d inputs.  Callers
that must match plain-float arithmetic (qualification constants, the
validation audit) evaluate the shared expressions on 0-d inputs; RAMP's
scalar entry points stack their inputs into ``(1, P, S)`` arrays so a
scalar FIT equals the batch FIT of the same candidate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config.dvs import OperatingPoint
from repro.config.technology import STRUCTURE_NAMES
from repro.errors import DegradedResultWarning, InputValidationError, ThermalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness imports us)
    from repro.cpu.simulator import WorkloadRun
    from repro.harness.platform import PlatformEvaluation
    from repro.power.model import PowerModel
    from repro.thermal.rc_network import ThermalRCNetwork
    from repro.thermal.solver import SteadyStateSolver

#: Canonical structure index: structure name -> tensor position.  Every
#: per-structure axis in this package follows this order.
STRUCTURE_INDEX: dict[str, int] = {
    name: i for i, name in enumerate(STRUCTURE_NAMES)
}

#: Convergence tolerance (kelvin) for the leakage/temperature fixed
#: point.
TEMP_TOLERANCE_K = 0.01

#: Iteration budget for the fixed point.
MAX_FIXED_POINT_ITERS = 60

#: Extra iteration headroom the salvage ladder's second rung grants a row
#: that failed to converge on its own.
SALVAGE_BUDGET_FACTOR = 4

#: Candidate spec: a single operating point (applied to every phase) or a
#: per-phase schedule.
Candidate = OperatingPoint | Sequence[OperatingPoint]

@dataclass(frozen=True)
class SalvageReport:
    """What graceful degradation did to one batch evaluation.

    Attributes:
        poisoned: rows whose tensors went non-finite mid-batch (injected
            or numerical), before any repair.
        unconverged: rows whose fixed point missed the iteration budget.
        salvaged: rows repaired by a clean single-row re-run (rung 1).
        rescued: rows that needed the extended-budget re-run (rung 2).
        masked: rows given up on — their outputs are NaN (rung 3).
    """

    poisoned: tuple[int, ...] = ()
    unconverged: tuple[int, ...] = ()
    salvaged: tuple[int, ...] = ()
    rescued: tuple[int, ...] = ()
    masked: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether anything at all had to be repaired or masked."""
        return bool(self.poisoned or self.unconverged or self.masked)


@dataclass(frozen=True, eq=False)
class BatchEvaluation:
    """Everything :class:`BatchKernel` computed for one candidate grid.

    Array axes: ``C`` candidates, ``P`` phases, ``S`` structures (canonical
    order).  Use :meth:`evaluation` to materialise one row as a per-structure
    :class:`~repro.harness.platform.PlatformEvaluation`.

    Attributes:
        run: the simulated workload the grid was evaluated against.
        schedules: per-candidate operating-point schedules, ``(C, P)``.
        weights: interval time weights, ``(C, P)`` (rows sum to 1).
        activity: rescaled per-structure activity factors, ``(C, P, S)``.
        temperatures_k: converged structure temperatures, ``(C, P, S)``.
        sink_temperature_k: converged heat-sink temperatures, ``(C,)``.
        dynamic_w / leakage_w: per-structure power breakdown, ``(C, P, S)``.
        voltage_v / frequency_hz: the operating points as arrays, ``(C, P)``.
        ips: absolute performance per candidate, ``(C,)``.
        avg_power_w: time-weighted average total power, ``(C,)``.
        iterations: fixed-point iterations each row needed, ``(C,)``.
        salvage: what graceful degradation did, or ``None`` when the
            batch came through untouched (or ``salvage=False``).
    """

    run: "WorkloadRun"
    schedules: tuple[tuple[OperatingPoint, ...], ...]
    weights: np.ndarray
    activity: np.ndarray
    temperatures_k: np.ndarray
    sink_temperature_k: np.ndarray
    dynamic_w: np.ndarray
    leakage_w: np.ndarray
    voltage_v: np.ndarray
    frequency_hz: np.ndarray
    ips: np.ndarray
    avg_power_w: np.ndarray
    iterations: np.ndarray
    salvage: SalvageReport | None = None

    @property
    def n_candidates(self) -> int:
        return self.temperatures_k.shape[0]

    @property
    def n_phases(self) -> int:
        return self.temperatures_k.shape[1]

    @property
    def peak_temperature_k(self) -> np.ndarray:
        """Hottest structure temperature in any interval, ``(C,)``."""
        return self.temperatures_k.reshape(self.n_candidates, -1).max(axis=1)

    @property
    def avg_temperature_by_structure_k(self) -> np.ndarray:
        """Time-weighted average temperature per structure, ``(C, S)``
        (the quantity that drives the thermal-cycling FIT)."""
        return (self.temperatures_k * self.weights[:, :, None]).sum(axis=1)

    def evaluation(self, index: int) -> "PlatformEvaluation":
        """Materialise candidate ``index`` as a per-structure evaluation record."""
        from repro.harness.platform import Interval, PlatformEvaluation
        from repro.power.model import PowerBreakdown

        ops = self.schedules[index]
        intervals = []
        for p, op in enumerate(ops):
            names = STRUCTURE_NAMES
            intervals.append(
                Interval(
                    weight=float(self.weights[index, p]),
                    temperatures={
                        n: float(self.temperatures_k[index, p, s])
                        for s, n in enumerate(names)
                    },
                    activity={
                        n: float(self.activity[index, p, s])
                        for s, n in enumerate(names)
                    },
                    power=PowerBreakdown(
                        dynamic={
                            n: float(self.dynamic_w[index, p, s])
                            for s, n in enumerate(names)
                        },
                        leakage={
                            n: float(self.leakage_w[index, p, s])
                            for s, n in enumerate(names)
                        },
                    ),
                    op=op,
                    config=self.run.config,
                )
            )
        return PlatformEvaluation(
            intervals=tuple(intervals),
            sink_temperature_k=float(self.sink_temperature_k[index]),
            ips=float(self.ips[index]),
            avg_power_w=float(self.avg_power_w[index]),
        )


class BatchKernel:
    """Vectorized grid evaluation against one platform's physics.

    Built once per :class:`~repro.harness.platform.Platform` (the network
    topology, solver factorisation, and structure->node permutation are
    all candidate-independent) and reused across every grid.

    Args:
        power_model: the platform's calibrated power model.
        network: the assembled thermal RC network.
        solver: the steady-state solver holding the Cholesky factor.
    """

    def __init__(
        self,
        power_model: "PowerModel",
        network: "ThermalRCNetwork",
        solver: "SteadyStateSolver",
    ) -> None:
        self.power_model = power_model
        self.network = network
        self.solver = solver
        names = network.block_names
        #: floorplan node index of each structure (the floorplan packs
        #: blocks greedily by area, so its order is a permutation of the
        #: canonical structure order).
        self.node_of_structure = np.array(
            [names.index(n) for n in STRUCTURE_NAMES]
        )
        size = network.n_blocks + 2
        self.n_nodes = size
        k = network.sink_index
        self.sink_index = k
        keep = np.array([i for i in range(size) if i != k])
        self.keep = keep
        g = network.conductance
        self.g_reduced = g[np.ix_(keep, keep)]
        self.g_sink_coupling = g[keep, k]
        self.injection_keep = network.ambient_injection[keep]
        #: position of each structure's node within the reduced system.
        self.reduced_pos_of_structure = np.searchsorted(
            keep, self.node_of_structure
        )

    # ------------------------------------------------------------------

    def _normalise(
        self, run: "WorkloadRun", candidates: Sequence[Candidate]
    ) -> tuple[tuple[OperatingPoint, ...], ...]:
        n_phases = len(run.phases)
        if n_phases == 0:
            raise ValueError(
                f"run of {run.profile.name!r} has no phases to evaluate"
            )
        schedules = []
        for cand in candidates:
            if isinstance(cand, OperatingPoint):
                ops = (cand,) * n_phases
            else:
                ops = tuple(cand)
                if len(ops) != n_phases:
                    raise ValueError(
                        f"need one operating point per phase ({n_phases}), "
                        f"got {len(ops)}"
                    )
            schedules.append(ops)
        if not schedules:
            raise ValueError("candidate grid is empty")
        return tuple(schedules)

    def evaluate(
        self,
        run: "WorkloadRun",
        candidates: Sequence[Candidate],
        max_iters: int = MAX_FIXED_POINT_ITERS,
        *,
        salvage: bool = True,
        _inject: bool = True,
    ) -> BatchEvaluation:
        """Evaluate every candidate of a grid in one batched solve.

        Args:
            run: one simulated workload (a single microarchitecture).
            candidates: operating points (uniform across phases) and/or
                per-phase schedules.
            max_iters: fixed-point iteration budget (tests lower it to
                exercise the per-row divergence path).
            salvage: repair unconverged / non-finite rows per candidate
                (see the module docstring's ladder) instead of failing
                the whole batch.
            _inject: internal — salvage re-runs pass ``False`` so an
                armed fault plan cannot re-poison the repair.

        Raises:
            ValueError: for an empty grid, a run without phases, a
                schedule of the wrong length, or non-positive phase
                durations.
            InputValidationError: if the run carries non-finite activity
                factors — named by structure and phase, raised before
                the NaN can propagate silently into powers and FIT sums.
            ThermalError: with ``salvage=False``, if any row's fixed
                point fails to converge — the message names the
                candidate indices.

        Warns:
            DegradedResultWarning: when salvage had to mask rows out.
        """
        schedules = self._normalise(run, candidates)
        tech = self.power_model.technology
        f_base_hz = tech.frequency_nominal_hz

        freq_hz = np.array([[op.frequency_hz for op in ops] for ops in schedules])
        volt_v = np.array([[op.voltage_v for op in ops] for ops in schedules])

        cpi_core = np.array([pr.stats.cpi_core for pr in run.phases])
        cpi_mem = np.array([pr.stats.cpi_mem for pr in run.phases])
        instructions = np.array(
            [pr.stats.instructions for pr in run.phases], dtype=float
        )
        base_activity = np.array(
            [
                [pr.stats.activity[name] for name in STRUCTURE_NAMES]
                for pr in run.phases
            ]
        )
        if not np.all(np.isfinite(base_activity)):
            bad_phase, bad_structure = np.argwhere(
                ~np.isfinite(base_activity)
            )[0]
            raise InputValidationError(
                "non-finite activity factor in simulated run",
                profile=run.profile.name,
                structure=STRUCTURE_NAMES[int(bad_structure)],
                phase=run.phases[int(bad_phase)].phase.name,
                value=float(base_activity[bad_phase, bad_structure]),
            )

        # Analytical DVS rescaling (mirrors FrequencyScalingModel).
        cpi = cpi_core[None, :] + cpi_mem[None, :] * (freq_hz / f_base_hz)
        cpi_base = cpi_core + cpi_mem * 1.0
        ipc_scale = (1.0 / cpi) / (1.0 / cpi_base)[None, :]
        activity = np.minimum(
            1.0, base_activity[None, :, :] * ipc_scale[:, :, None]
        )
        times_s = instructions[None, :] / (freq_hz / cpi)
        if not np.all(times_s > 0.0):
            raise ValueError("every phase must have a positive duration")
        total_time_s = times_s.sum(axis=1)
        if not np.all(total_time_s > 0.0):
            raise ValueError("total run time must be positive")
        weights = times_s / total_time_s[:, None]

        # Dynamic power is temperature-independent: compute it once.
        v_ratio = volt_v / tech.vdd_nominal_v
        powered_fraction = np.array(
            [run.config.powered_fraction(n) for n in STRUCTURE_NAMES]
        )
        dynamic_w = self.power_model.dynamic.power_w(
            activity,
            v_ratio[:, :, None],
            (freq_hz / f_base_hz)[:, :, None],
            powered_fraction,
        )

        if _inject:
            dynamic_w = self._maybe_poison(run, dynamic_w)

        temps_k, sink_k, leakage_w, iterations, unconverged = self._fixed_point(
            dynamic_w,
            weights,
            powered_fraction,
            v_ratio,
            max_iters,
            raise_on_divergence=not salvage,
        )

        report: SalvageReport | None = None
        if salvage:
            # Non-finite rows "converge" trivially (NaN comparisons are
            # false), so sweep both failure modes here.  Checking each
            # array in place avoids materialising a concatenated copy.
            n = temps_k.shape[0]
            finite = (
                np.isfinite(temps_k.reshape(n, -1)).all(axis=1)
                & np.isfinite(dynamic_w.reshape(n, -1)).all(axis=1)
                & np.isfinite(leakage_w.reshape(n, -1)).all(axis=1)
                & np.isfinite(sink_k)
            )
            poisoned = np.flatnonzero(~finite)
            bad = sorted(set(map(int, poisoned)) | set(map(int, unconverged)))
            if bad:
                report = self._salvage(
                    run,
                    candidates,
                    max_iters,
                    bad,
                    poisoned=tuple(map(int, poisoned)),
                    unconverged=tuple(map(int, unconverged)),
                    temps_k=temps_k,
                    sink_k=sink_k,
                    dynamic_w=dynamic_w,
                    leakage_w=leakage_w,
                    activity=activity,
                    iterations=iterations,
                )

        total_instructions = float(instructions.sum())
        ips = total_instructions / total_time_s
        total_power_w = dynamic_w.sum(axis=2) + leakage_w.sum(axis=2)
        avg_power_w = (total_power_w * weights).sum(axis=1)

        return BatchEvaluation(
            run=run,
            schedules=schedules,
            weights=weights,
            activity=activity,
            temperatures_k=temps_k,
            sink_temperature_k=sink_k,
            dynamic_w=dynamic_w,
            leakage_w=leakage_w,
            voltage_v=volt_v,
            frequency_hz=freq_hz,
            ips=ips,
            avg_power_w=avg_power_w,
            iterations=iterations,
            salvage=report,
        )

    # ------------------------------------------------------------------

    def _maybe_poison(self, run: "WorkloadRun", dynamic_w: np.ndarray) -> np.ndarray:
        """Apply the armed fault plan's kernel site, if any."""
        from repro.resilience import active_injector

        injector = active_injector()
        if injector is None:
            return dynamic_w
        grid_key = f"{run.profile.name}:{run.config.describe()}:{dynamic_w.shape[0]}"
        row = injector.poison_row(grid_key, dynamic_w.shape[0])
        if row is not None:
            dynamic_w[row] = np.nan
        return dynamic_w

    def _salvage(
        self,
        run: "WorkloadRun",
        candidates: Sequence[Candidate],
        max_iters: int,
        bad: list[int],
        *,
        poisoned: tuple[int, ...],
        unconverged: tuple[int, ...],
        temps_k: np.ndarray,
        sink_k: np.ndarray,
        dynamic_w: np.ndarray,
        leakage_w: np.ndarray,
        activity: np.ndarray,
        iterations: np.ndarray,
    ) -> SalvageReport:
        """Repair ``bad`` rows in place; the ladder per row:

        clean single-row re-run (bit-identical, since per-row
        convergence masking makes rows independent) -> extended-budget
        re-run -> mask with NaN.  Returns the report of what happened.
        """
        candidates = list(candidates)
        salvaged: list[int] = []
        rescued: list[int] = []
        masked: list[int] = []
        for row in bad:
            sub = None
            via_extended = False
            try:
                sub = self.evaluate(
                    run, [candidates[row]], max_iters,
                    salvage=False, _inject=False,
                )
            except ThermalError:
                extended = max(
                    max_iters * SALVAGE_BUDGET_FACTOR, MAX_FIXED_POINT_ITERS
                )
                try:
                    sub = self.evaluate(
                        run, [candidates[row]], extended,
                        salvage=False, _inject=False,
                    )
                    via_extended = True
                except ThermalError:
                    sub = None
            if sub is not None:
                temps_k[row] = sub.temperatures_k[0]
                sink_k[row] = sub.sink_temperature_k[0]
                dynamic_w[row] = sub.dynamic_w[0]
                leakage_w[row] = sub.leakage_w[0]
                activity[row] = sub.activity[0]
                iterations[row] = sub.iterations[0]
                (rescued if via_extended else salvaged).append(row)
            else:
                temps_k[row] = np.nan
                sink_k[row] = np.nan
                dynamic_w[row] = np.nan
                leakage_w[row] = np.nan
                masked.append(row)
        if masked:
            shown = ", ".join(str(i) for i in masked[:8])
            more = "..." if len(masked) > 8 else ""
            warnings.warn(
                f"masked {len(masked)} unsalvageable candidate(s) "
                f"[{shown}{more}] of {run.profile.name!r} "
                f"({run.config.describe()}): outputs are NaN "
                "(phase: leakage/temperature fixed point)",
                DegradedResultWarning,
                stacklevel=4,
            )
        return SalvageReport(
            poisoned=poisoned,
            unconverged=unconverged,
            salvaged=tuple(salvaged),
            rescued=tuple(rescued),
            masked=tuple(masked),
        )

    # ------------------------------------------------------------------

    def _fixed_point(
        self,
        dynamic_w: np.ndarray,
        weights: np.ndarray,
        powered_fraction: np.ndarray,
        v_ratio: np.ndarray,
        max_iters: int,
        raise_on_divergence: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Iterate leakage(T) <-> T(power) over the whole grid at once.

        Per-row convergence masking: once a candidate's largest update is
        below :data:`TEMP_TOLERANCE_K` it is frozen with the powers that
        produced its final temperatures while the other rows continue.

        Returns ``(temperatures, sink, leakage, iterations, unconverged)``
        where ``unconverged`` holds the row indices that missed the
        budget (always empty when ``raise_on_divergence``).
        """
        n_cand, n_phases, _ = dynamic_w.shape
        ambient_k = self.network.params.ambient_k
        temps_k = np.full(
            (n_cand, n_phases, len(STRUCTURE_NAMES)), ambient_k + 40.0
        )
        sink_k = np.full(n_cand, ambient_k)
        leakage_w = np.zeros_like(dynamic_w)
        iterations = np.zeros(n_cand, dtype=int)
        last_delta_k = np.full(n_cand, np.inf)
        total_weight = weights.sum(axis=1)
        node_idx = self.node_of_structure
        reduced_idx = self.reduced_pos_of_structure

        active = np.arange(n_cand)
        for _ in range(max_iters):
            if active.size == 0:
                break
            leak = self.power_model.leakage.power_w(
                temps_k[active], powered_fraction, v_ratio[active][:, :, None]
            )
            totals_w = dynamic_w[active] + leak

            # Scatter structure powers onto thermal nodes.
            node_p = np.zeros((active.size, n_phases, self.n_nodes))
            node_p[:, :, node_idx] = totals_w

            # Pass one: the long-run sink temperature from the
            # time-weighted average power (batched solve_full).
            w_norm = weights[active] / total_weight[active][:, None]
            avg_node_p = (node_p * w_norm[:, :, None]).sum(axis=1)
            rhs_full = (avg_node_p + self.network.ambient_injection).T
            full = self.solver.solve_many(rhs_full)
            sink_new = full[self.sink_index]

            # Pass two: per-phase solve with the sink node pinned (its
            # column of G moves to the right-hand side).
            p_keep = node_p[:, :, self.keep] + self.injection_keep
            rhs = p_keep - (
                self.g_sink_coupling[None, None, :]
                * sink_new[:, None, None]
            )
            reduced = np.linalg.solve(
                self.g_reduced, rhs.reshape(-1, self.keep.size).T
            )
            new_temps = (
                reduced.T.reshape(active.size, n_phases, self.keep.size)
            )[:, :, reduced_idx]

            delta_k = (
                np.abs(new_temps - temps_k[active])
                .reshape(active.size, -1)
                .max(axis=1)
            )
            temps_k[active] = new_temps
            sink_k[active] = sink_new
            leakage_w[active] = leak
            iterations[active] += 1
            last_delta_k[active] = delta_k
            active = active[delta_k >= TEMP_TOLERANCE_K]

        if active.size and raise_on_divergence:
            shown = ", ".join(str(int(i)) for i in active[:8])
            more = "..." if active.size > 8 else ""
            raise ThermalError(
                "leakage/temperature fixed point did not converge for "
                f"candidate(s) [{shown}{more}] "
                f"(last delta {float(last_delta_k[active].max()):.3f} K)"
            )
        return temps_k, sink_k, leakage_w, iterations, active
