"""The cumulative-damage lifetime simulator.

Integrates a :class:`~repro.workloads.generator.MissionSchedule` — a
phased workload history spanning months to decades — into a
:class:`~repro.lifetime.damage.WearState`, one epoch at a time:

- **vectorized physics, stacked fold**: every distinct (application,
  microarch config) pair is evaluated *once* over the whole DVS grid via
  :meth:`Platform.evaluate_batch`, yielding a cached table of
  per-(mechanism, structure) damage rates (:class:`RateTable`); each
  epoch then costs one elementwise multiply-add, and the open-loop fold
  adds :data:`FOLD_CHUNK_EPOCHS` epochs per ``np.add.accumulate`` pass
  (:func:`repro.kernels.wear.accrue`), so decade-long horizons run in
  milliseconds;
- **closed loop**: with a :class:`~repro.core.controllers.WearAwareController`
  attached, each epoch walks the degradation ladder — derate frequency,
  swap a cold spare, shed half a structure, or declare end-of-life
  cleanly — against *sensor* readings that a fault plan may drift
  (``lifetime.wear_sensor_drift``); the true trajectory never touches a
  drifted reading, so faults degrade decisions, not physics;
- **crash safety**: wear state is checkpointed into the telemetry
  stream (``lifetime.checkpoint`` records under a schedule-stable run
  id), floats round-tripping bitwise through JSON ``repr``; a SIGKILLed
  simulation resumes from the newest intact checkpoint and re-integrates
  to a **bit-identical** final state.  The ``lifetime.checkpoint_torn``
  fault site writes a checkpoint torn mid-frame; resume falls back to
  the previous good one (degrade, never corrupt).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.config.dvs import DEFAULT_VF_CURVE, OperatingPoint, VoltageFrequencyCurve
from repro.config.microarch import BASE_MICROARCH, MicroarchConfig, shed_structure
from repro.config.technology import STRUCTURE_NAMES
from repro.core.controllers import WearAwareController
from repro.core.ramp import RampModel
from repro.errors import LifetimeError
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.kernels.wear import wear_rate_fields
from repro.lifetime.damage import DamageModel, WearState
from repro.resilience import active_injector
from repro.telemetry import TelemetryRecord, TelemetryWriter, encode_frame, read_stream
from repro.workloads.generator import MissionSchedule
from repro.workloads.suite import workload_by_name

#: Maximum ladder rungs per epoch.  Spares and sheds are both finite
#: (≤ one spare per structure, ≤ 3 shed levels each for 3 structures),
#: so a correct ladder settles well within this bound; exceeding it
#: means the controller is cycling and is reported as an error.
MAX_LADDER_RUNGS = 16

#: Epochs per stacked fold in :meth:`LifetimeSimulator.open_loop`: large
#: enough that the per-call overhead vanishes, small enough that a
#: 30-year mission never holds its whole rate stack in memory.
FOLD_CHUNK_EPOCHS = 512


class RateTable:
    """Lazily cached per-(app, config) wear-rate grids.

    One :meth:`Platform.evaluate_batch` call per distinct (application,
    microarch config) covers the whole DVS grid; epochs then look up
    their ``(n_mechanisms, n_structures)`` rate matrix by snapping the
    requested frequency to the nearest grid point.  Laziness matters for
    resume: a run restored at epoch *k* only evaluates the (app, config)
    pairs its remaining epochs actually touch.  Each entry is built once
    with its candidate tuple and an exact-match index of its grid
    frequencies, so an on-grid lookup is two dict hits.
    """

    def __init__(
        self,
        *,
        platform: Platform,
        cache: SimulationCache,
        ramp: RampModel,
        damage_model: DamageModel,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        dvs_steps: int = 11,
    ) -> None:
        self.platform = platform
        self.cache = cache
        self.ramp = ramp
        self.damage_model = damage_model
        self.vf_curve = vf_curve
        self.dvs_steps = dvs_steps
        self._entries: dict[tuple[str, str], dict[str, Any]] = {}

    def _entry(self, app: str, config: MicroarchConfig) -> dict[str, Any]:
        key = (app, config.describe())
        entry = self._entries.get(key)
        if entry is None:
            profile = workload_by_name(app)
            run = self.cache.run(profile, config=config)
            ops = self.vf_curve.grid(self.dvs_steps)
            batch = self.platform.evaluate_batch(run, ops)
            rates = wear_rate_fields(
                self.ramp,
                batch,
                asymmetry_coefficient=self.damage_model.asymmetry_coefficient,
            )
            on_grid: dict[float, int] = {}
            for index, op in enumerate(ops):
                on_grid.setdefault(op.frequency_hz, index)
            entry = {
                "ops": ops,
                "rates": rates,
                "on_grid": on_grid,
                "candidates": tuple(
                    (op, float(rates[i].sum())) for i, op in enumerate(ops)
                ),
            }
            self._entries[key] = entry
        return entry

    def _index(self, entry: dict[str, Any], frequency_hz: float) -> int:
        index = entry["on_grid"].get(frequency_hz)
        if index is None:
            # Off grid: the nearest point, the first one on a tie.
            gaps = [abs(op.frequency_hz - frequency_hz) for op in entry["ops"]]
            index = gaps.index(min(gaps))
        return index

    def rates_for(
        self, app: str, config: MicroarchConfig, frequency_hz: float
    ) -> np.ndarray:
        """The ``(M, S)`` damage/hour matrix at the nearest grid point."""
        entry = self._entry(app, config)
        return entry["rates"][self._index(entry, frequency_hz)]

    def operating_point(
        self, app: str, config: MicroarchConfig, frequency_hz: float
    ) -> OperatingPoint:
        """The grid operating point an epoch frequency snaps to."""
        entry = self._entry(app, config)
        return entry["ops"][self._index(entry, frequency_hz)]

    def candidates(
        self, app: str, config: MicroarchConfig
    ) -> tuple[tuple[OperatingPoint, float], ...]:
        """Every grid point with its predicted total damage rate."""
        return self._entry(app, config)["candidates"]


@dataclass
class LifetimeResult:
    """Outcome of one lifetime simulation.

    Attributes:
        state: final accrued wear.
        run_id: the telemetry stream identity (schedule-stable).
        epochs_run: epochs integrated *in this invocation*.
        end_of_life: the controller declared end-of-life.
        eol_epoch: epoch index at which end-of-life was declared.
        resumed_from: checkpoint epoch restored from, or ``None``.
        sheds: structures shed, in ladder order.
        swaps: structures whose cold spare was consumed, in order.
        config: the (possibly degraded) final microarch configuration.
        trace: per-epoch ``(epoch, frequency_hz, total_damage)`` rows
            when tracing was requested.
    """

    state: WearState
    run_id: str
    epochs_run: int = 0
    end_of_life: bool = False
    eol_epoch: int | None = None
    resumed_from: int | None = None
    sheds: tuple[str, ...] = ()
    swaps: tuple[str, ...] = ()
    config: MicroarchConfig = BASE_MICROARCH
    trace: tuple[tuple[int, float, float], ...] = field(default_factory=tuple)

    @property
    def within_target(self) -> bool:
        """Placeholder flag recomputed by callers that know the target."""
        return not self.end_of_life


class LifetimeSimulator:
    """Integrates mission schedules into cumulative wear trajectories.

    Args:
        platform: the power/thermal platform.
        cache: memoized workload simulations (one per (app, config)).
        ramp: a qualified RAMP model (fixes T_qual and the FIT target).
        damage_model: accrual parameters (thresholds, asymmetric aging).
        vf_curve: DVS law; its grid is the controller's candidate set.
        base_config: the healthy microarch configuration.
        telemetry_root: stream root for ``lifetime.*`` records; ``None``
            disables checkpointing (pure in-memory simulation).
        checkpoint_every: epochs between wear checkpoints.
        dvs_steps: DVS grid resolution for the rate table.
    """

    def __init__(
        self,
        *,
        platform: Platform,
        cache: SimulationCache,
        ramp: RampModel,
        damage_model: DamageModel | None = None,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        base_config: MicroarchConfig = BASE_MICROARCH,
        telemetry_root: str | os.PathLike | None = None,
        checkpoint_every: int = 32,
        dvs_steps: int = 11,
    ) -> None:
        if checkpoint_every <= 0:
            raise LifetimeError("checkpoint_every must be positive")
        self.platform = platform
        self.cache = cache
        self.ramp = ramp
        self.damage_model = damage_model or DamageModel()
        self.vf_curve = vf_curve
        self.base_config = base_config
        self.telemetry_root = Path(telemetry_root) if telemetry_root else None
        self.checkpoint_every = checkpoint_every
        self.rate_table = RateTable(
            platform=platform,
            cache=cache,
            ramp=ramp,
            damage_model=self.damage_model,
            vf_curve=vf_curve,
            dvs_steps=dvs_steps,
        )

    # ---- identities ----------------------------------------------------

    def run_id_for(self, schedule: MissionSchedule) -> str:
        """Schedule-stable stream identity: a killed and restarted
        process lands in the *same* run directory and can resume it."""
        return f"lifetime-{schedule.digest()[:12]}"

    # ---- open-loop fold ------------------------------------------------

    def open_loop(
        self, schedule: MissionSchedule, state: WearState | None = None
    ) -> WearState:
        """Fold a schedule at its requested frequencies — no controller,
        no telemetry, no faults.  This is the fast path the adversary
        evaluates thousands of schedules through, and the reference the
        split-additivity property is asserted against (folding ``A + B``
        equals folding ``A`` then ``B``, bitwise).  Epochs are folded
        :data:`FOLD_CHUNK_EPOCHS` at a time; if an epoch is invalid, its
        chunk is not folded."""
        state = state if state is not None else WearState.fresh()
        rates_for = self.rate_table.rates_for
        config = self.base_config
        epochs = schedule.epochs
        for start in range(0, len(epochs), FOLD_CHUNK_EPOCHS):
            chunk = epochs[start : start + FOLD_CHUNK_EPOCHS]
            state.fold(
                np.stack([rates_for(e.app, config, e.frequency_hz) for e in chunk]),
                [e.hours for e in chunk],
            )
        return state

    # ---- checkpoint plumbing -------------------------------------------

    def _writer(self, run_id: str) -> TelemetryWriter | None:
        if self.telemetry_root is None:
            return None
        return TelemetryWriter(self.telemetry_root, run_id=run_id)

    def _checkpoint_payload(
        self,
        schedule: MissionSchedule,
        epoch: int,
        state: WearState,
        sheds: list[str],
        swaps: list[str],
        sensors: dict[str, float],
    ) -> dict[str, Any]:
        return {
            "epoch": epoch,
            "digest": schedule.digest(),
            "wear": state.as_payload(),
            "sheds": list(sheds),
            "swaps": list(swaps),
            "sensors": dict(sensors),
        }

    def _write_checkpoint(
        self, writer: TelemetryWriter | None, payload: dict[str, Any]
    ) -> None:
        if writer is None:
            return
        injector = active_injector()
        if injector is not None and injector.checkpoint_torn(
            f"{writer.run_id}:{payload['epoch']}"
        ):
            # Simulated kill -9 mid-checkpoint: append a frame cut in
            # half (newline-terminated so damage cannot cascade past its
            # own line) without consuming a sequence number.  Readers
            # count it as torn; resume falls back to the previous good
            # checkpoint.
            record = TelemetryRecord(
                kind="lifetime.checkpoint",
                run_id=writer.run_id,
                seq=0,
                ts=0.0,
                payload=payload,
            )
            frame = encode_frame(record)
            cut = max(1, len(frame) // 2)
            path = writer.active_segment
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, frame[:cut] + b"\n")
            finally:
                os.close(fd)
            return
        writer.append("lifetime.checkpoint", payload)

    def _latest_checkpoint(
        self, schedule: MissionSchedule, run_id: str
    ) -> dict[str, Any] | None:
        if self.telemetry_root is None:
            return None
        digest = schedule.digest()
        best: dict[str, Any] | None = None
        for record in read_stream(
            self.telemetry_root, run_id=run_id, kinds=("lifetime.checkpoint",)
        ):
            payload = record.payload
            if payload.get("digest") != digest:
                continue
            if best is None or payload.get("epoch", -1) > best.get("epoch", -1):
                best = payload
        return best

    # ---- the main loop -------------------------------------------------

    def simulate(
        self,
        schedule: MissionSchedule,
        *,
        controller: WearAwareController | None = None,
        resume: bool = False,
        stop_after_epochs: int | None = None,
        collect_trace: bool = False,
    ) -> LifetimeResult:
        """Integrate a schedule, optionally closed-loop and resumable.

        Args:
            schedule: the mission to integrate.
            controller: walk the degradation ladder each epoch; ``None``
                integrates open-loop (at the requested frequencies) but
                still checkpoints.
            resume: restore the newest intact checkpoint for this
                schedule from the telemetry stream and continue from it.
            stop_after_epochs: pause cleanly once this many epochs of
                the *schedule* are integrated (a final checkpoint is
                written, so a later ``resume=True`` call continues
                bit-identically) — the graceful analogue of the CI
                job's SIGKILL.
            collect_trace: record ``(epoch, frequency_hz, total)`` rows.

        Raises:
            LifetimeError: on a cycling ladder or malformed checkpoint.
        """
        run_id = self.run_id_for(schedule)
        state = WearState.fresh()
        config = self.base_config
        sheds: list[str] = []
        swaps: list[str] = []
        sensors: dict[str, float] = {name: 0.0 for name in STRUCTURE_NAMES}
        start_epoch = 0
        resumed_from: int | None = None

        if resume:
            checkpoint = self._latest_checkpoint(schedule, run_id)
            if checkpoint is not None:
                try:
                    state = WearState.from_payload(checkpoint["wear"])
                    sheds = [str(s) for s in checkpoint.get("sheds", [])]
                    swaps = [str(s) for s in checkpoint.get("swaps", [])]
                    sensors.update(
                        {
                            str(k): float(v)
                            for k, v in checkpoint.get("sensors", {}).items()
                        }
                    )
                    start_epoch = int(checkpoint["epoch"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise LifetimeError(
                        f"malformed lifetime checkpoint: {exc}", run_id=run_id
                    ) from exc
                for structure in sheds:
                    shrunk = shed_structure(config, structure)
                    if shrunk is None:
                        raise LifetimeError(
                            "checkpoint shed history does not replay",
                            structure=structure,
                            run_id=run_id,
                        )
                    config = shrunk
                resumed_from = start_epoch

        writer = self._writer(run_id)
        if writer is not None:
            writer.append(
                "lifetime.spec",
                {
                    "digest": schedule.digest(),
                    "n_epochs": schedule.n_epochs,
                    "total_hours": schedule.total_hours,
                    "controller": controller is not None,
                    "checkpoint_every": self.checkpoint_every,
                    "resumed_from": resumed_from,
                },
            )

        end_epoch = schedule.n_epochs
        if stop_after_epochs is not None:
            end_epoch = min(end_epoch, max(stop_after_epochs, start_epoch))

        result = LifetimeResult(state=state, run_id=run_id, resumed_from=resumed_from)
        trace: list[tuple[int, float, float]] = []
        injector = active_injector()
        sheddable = _sheddable(config)
        end_of_life = False
        eol_epoch: int | None = None
        epochs_run = 0
        epoch_index = start_epoch

        while epoch_index < end_epoch and not end_of_life:
            epoch = schedule.epochs[epoch_index]
            if controller is None:
                rates = self.rate_table.rates_for(
                    epoch.app, config, epoch.frequency_hz
                )
                chosen_hz = self.rate_table.operating_point(
                    epoch.app, config, epoch.frequency_hz
                ).frequency_hz
                state.accrue(rates, epoch.hours)
            else:
                # Sensor pass: the controller sees per-structure peak-cell
                # wear through (possibly drifting) sensors; readings are
                # sanitised with a monotone clamp, and the *true* state
                # below never uses them.
                true_peaks = state.damage.max(axis=0)
                readings: dict[str, float] = {}
                for s_index, structure in enumerate(STRUCTURE_NAMES):
                    exact = float(true_peaks[s_index])
                    reading = exact
                    if injector is not None:
                        factor = injector.wear_sensor_drift(
                            f"{run_id}:{epoch_index}:{structure}"
                        )
                        if factor is not None:
                            reading = exact * factor
                    reading = max(reading, sensors[structure])
                    sensors[structure] = reading
                    readings[structure] = reading

                chosen: OperatingPoint | None = None
                for _rung in range(MAX_LADDER_RUNGS):
                    decision = controller.decide(
                        elapsed_hours=state.hours,
                        epoch_hours=epoch.hours,
                        wear_total=state.total,
                        wear_by_structure=readings,
                        candidates=self.rate_table.candidates(epoch.app, config),
                        spares_used=frozenset(swaps),
                        sheddable=sheddable,
                    )
                    if decision.action == "run":
                        assert decision.op is not None
                        chosen = decision.op
                        break
                    if writer is not None:
                        writer.append(
                            "lifetime.controller",
                            {
                                "epoch": epoch_index,
                                "action": decision.action,
                                "structure": decision.structure,
                                "reason": decision.reason,
                            },
                        )
                    if decision.action == "spare":
                        assert decision.structure is not None
                        swaps.append(decision.structure)
                        state.reset_structure(decision.structure)
                        sensors[decision.structure] = 0.0
                        readings[decision.structure] = 0.0
                        continue
                    if decision.action == "shed":
                        assert decision.structure is not None
                        shrunk = shed_structure(config, decision.structure)
                        if shrunk is None:
                            raise LifetimeError(
                                "controller shed an unsheddable structure",
                                structure=decision.structure,
                            )
                        config = shrunk
                        sheddable = _sheddable(config)
                        sheds.append(decision.structure)
                        continue
                    if decision.action == "end_of_life":
                        end_of_life = True
                        eol_epoch = epoch_index
                        break
                    raise LifetimeError(
                        f"unknown controller action {decision.action!r}"
                    )
                else:
                    raise LifetimeError(
                        "degradation ladder did not settle "
                        f"within {MAX_LADDER_RUNGS} rungs",
                        epoch=epoch_index,
                    )
                if end_of_life:
                    break
                assert chosen is not None
                rates = self.rate_table.rates_for(
                    epoch.app, config, chosen.frequency_hz
                )
                chosen_hz = chosen.frequency_hz
                state.accrue(rates, epoch.hours)

            epochs_run += 1
            epoch_index += 1
            if collect_trace:
                trace.append((epoch_index - 1, chosen_hz, state.total))
            if epoch_index % self.checkpoint_every == 0 or epoch_index == end_epoch:
                self._write_checkpoint(
                    writer,
                    self._checkpoint_payload(
                        schedule, epoch_index, state, sheds, swaps, sensors
                    ),
                )

        if end_of_life and writer is not None:
            # End-of-life stops mid-stride: persist the terminal state.
            self._write_checkpoint(
                writer,
                self._checkpoint_payload(
                    schedule, epoch_index, state, sheds, swaps, sensors
                ),
            )
        if writer is not None:
            writer.append(
                "lifetime.done",
                {
                    "digest": schedule.digest(),
                    "epochs": epoch_index,
                    "end_of_life": end_of_life,
                    "total_damage": state.total,
                    "peak_damage": state.peak,
                    "hours": state.hours,
                },
            )

        result.state = state
        result.epochs_run = epochs_run
        result.end_of_life = end_of_life
        result.eol_epoch = eol_epoch
        result.sheds = tuple(sheds)
        result.swaps = tuple(swaps)
        result.config = config
        result.trace = tuple(trace)
        return result


def _sheddable(config: MicroarchConfig) -> frozenset[str]:
    """The structures the shed rung can still shrink in ``config``."""
    return frozenset(
        s for s in ("window", "ialu", "fpu") if shed_structure(config, s) is not None
    )
