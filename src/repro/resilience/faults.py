"""Deterministic fault injection: seeded plans, stable decisions.

A :class:`FaultPlan` describes *which* faults to inject at *what* rate;
a :class:`FaultInjector` turns the plan into per-call decisions that are
**pure functions of (plan seed, site, key)** — no wall clock, no global
RNG state — so the same plan injects the same faults into the same jobs
on every run, in every process, on every machine.  That is what makes
chaos runs CI-material: a failure under the ``ci-default`` plan
reproduces locally with one environment variable.

Arming:

- ``REPRO_FAULT_PLAN=ci-default`` (a named plan) or
  ``REPRO_FAULT_PLAN=/path/to/plan.json`` in the environment — the
  setting is inherited by worker processes, so pool workers inject too;
- programmatically via :func:`install` / the :func:`armed` context
  manager (which also exports the environment variable so freshly
  spawned workers see the plan).

Every fired fault is appended to the **fault log** — a telemetry
segment (one CRC-framed ``fault.fired`` record per fault, see
:mod:`repro.telemetry`) at the path named by ``REPRO_FAULT_LOG``, or
collected in memory — so a chaos run leaves a durable, schema-checked
record of exactly what was injected where.

Injection sites (see :data:`SITES`):

========================  ====================================================
site                      effect
========================  ====================================================
``executor.worker_crash`` the worker process dies mid-job (``os._exit``), or
                          raises :class:`~repro.errors.InjectedFault` when
                          running in-process
``executor.worker_hang``  the job sleeps ``hang_s`` before running (trips the
                          executor's wall-clock timeout when one is armed)
``store.corrupt_payload`` a store entry is written truncated (invalid JSON)
``kernel.poison_row``     one candidate row's dynamic-power tensor is set to
                          NaN before the thermal fixed point
``sensor.noisy_temperature``  a temperature sensor reads with Gaussian noise
``sensor.stuck_temperature``  a temperature sensor reads a constant value
``serve.drop_connection`` the decision service closes a client connection
                          before writing the response (at most once per
                          request key, so a retry succeeds)
``serve.slow_response``   the decision service delays a response by
                          ``hang_s`` (asynchronously — the serving loop
                          keeps processing other requests)
``telemetry.torn_append`` a telemetry frame is written truncated and the
                          segment sealed — a simulated ``kill -9``
                          mid-append; readers must recover every
                          complete record
``lifetime.wear_sensor_drift``  a wear-sensor reading is scaled by a
                          deterministic drift factor; the lifetime
                          simulator must sanitise the reading (monotone
                          clamp) and keep the *true* trajectory exact
``lifetime.checkpoint_torn``  a wear checkpoint frame is written torn;
                          resume must fall back to the previous good
                          checkpoint and re-integrate, never corrupt
========================  ====================================================

Fault decisions for the executor sites are, by default, **first-attempt
only**: a retried job runs clean.  Combined with the store's self-heal
and the kernel's per-row salvage this guarantees an armed run converges
to results bit-identical to the fault-free run — the property the chaos
suite asserts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import InjectedFault, ResilienceError

#: Environment variable naming the armed plan (name or JSON file path).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable naming the JSONL fault-log destination.
LOG_ENV = "REPRO_FAULT_LOG"

WORKER_CRASH = "executor.worker_crash"
WORKER_HANG = "executor.worker_hang"
STORE_CORRUPT = "store.corrupt_payload"
KERNEL_POISON = "kernel.poison_row"
SENSOR_NOISE = "sensor.noisy_temperature"
SENSOR_STUCK = "sensor.stuck_temperature"
SERVE_DROP = "serve.drop_connection"
SERVE_SLOW = "serve.slow_response"
TELEMETRY_TORN = "telemetry.torn_append"
WEAR_DRIFT = "lifetime.wear_sensor_drift"
CHECKPOINT_TORN = "lifetime.checkpoint_torn"

#: Every recognised injection site.
SITES = frozenset(
    {
        WORKER_CRASH,
        WORKER_HANG,
        STORE_CORRUPT,
        KERNEL_POISON,
        SENSOR_NOISE,
        SENSOR_STUCK,
        SERVE_DROP,
        SERVE_SLOW,
        TELEMETRY_TORN,
        WEAR_DRIFT,
        CHECKPOINT_TORN,
    }
)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of what to inject.

    Attributes:
        name: plan identifier (recorded in every fault-log line).
        seed: root of every injection decision; two plans that differ
            only in seed inject into disjoint sets of jobs.
        rates: per-site firing probability in [0, 1]; unlisted sites
            never fire.
        hang_s: how long an injected hang sleeps.
        first_attempt_only: executor faults fire only on a job's first
            attempt, so retries always run clean (the property that
            makes chaos runs converge to fault-free results).
        sensor_noise_k: standard deviation of injected sensor noise.
        sensor_stuck_temp_k: the reading a stuck sensor reports.
    """

    name: str
    seed: int = 0
    rates: Mapping[str, float] = dataclasses.field(default_factory=dict)
    hang_s: float = 1.0
    first_attempt_only: bool = True
    sensor_noise_k: float = 2.0
    sensor_stuck_temp_k: float = 273.0

    def __post_init__(self) -> None:
        for site, rate in self.rates.items():
            if site not in SITES:
                raise ResilienceError(
                    f"unknown fault site {site!r}", site=site, plan=self.name
                )
            if not (0.0 <= rate <= 1.0) or math.isnan(rate):
                raise ResilienceError(
                    f"rate for {site} must be in [0, 1], got {rate!r}",
                    site=site,
                    plan=self.name,
                )
        if self.hang_s < 0.0:
            raise ResilienceError("hang_s must be non-negative", plan=self.name)

    def rate(self, site: str) -> float:
        return float(self.rates.get(site, 0.0))

    def as_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["rates"] = dict(self.rates)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ResilienceError(f"malformed fault plan: {exc}") from exc

    @classmethod
    def resolve(cls, spec: str) -> "FaultPlan":
        """A plan from a name (see :data:`NAMED_PLANS`) or a JSON file."""
        if spec in NAMED_PLANS:
            return NAMED_PLANS[spec]
        path = Path(spec)
        if path.suffix == ".json" or path.exists():
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ResilienceError(
                    f"cannot load fault plan from {spec!r}: {exc}", plan=spec
                ) from exc
            return cls.from_dict(payload)
        known = ", ".join(sorted(NAMED_PLANS))
        raise ResilienceError(
            f"unknown fault plan {spec!r} (named plans: {known}; "
            "or pass a .json file path)",
            plan=spec,
        )


#: The fixed-seed plan the CI chaos job arms: >=10% worker crashes, 5%
#: hangs/timeouts, 5% corrupted store payloads, and one poisoned
#: candidate row per kernel grid.  Sensor faults stay off — they change
#: reported numbers by design, so they are exercised only by dedicated
#: tests, never suite-wide.
CI_DEFAULT = FaultPlan(
    name="ci-default",
    seed=20260806,
    rates={
        WORKER_CRASH: 0.12,
        WORKER_HANG: 0.05,
        STORE_CORRUPT: 0.05,
        KERNEL_POISON: 1.0,
        SERVE_DROP: 0.08,
        SERVE_SLOW: 0.05,
        TELEMETRY_TORN: 0.05,
        WEAR_DRIFT: 0.05,
        CHECKPOINT_TORN: 0.05,
    },
    hang_s=0.05,
)

#: Everything-at-once plan for local shakedowns of single components.
AGGRESSIVE = FaultPlan(
    name="aggressive",
    seed=1,
    rates={
        WORKER_CRASH: 0.5,
        WORKER_HANG: 0.25,
        STORE_CORRUPT: 0.5,
        KERNEL_POISON: 1.0,
        SENSOR_NOISE: 0.5,
        SENSOR_STUCK: 0.1,
        SERVE_DROP: 0.3,
        SERVE_SLOW: 0.2,
        TELEMETRY_TORN: 0.25,
        WEAR_DRIFT: 0.25,
        CHECKPOINT_TORN: 0.25,
    },
    hang_s=0.05,
)

NAMED_PLANS: dict[str, FaultPlan] = {
    CI_DEFAULT.name: CI_DEFAULT,
    AGGRESSIVE.name: AGGRESSIVE,
}


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-call decisions.

    Args:
        plan: the armed plan.
        log_path: JSONL destination for fired-fault records; defaults to
            ``REPRO_FAULT_LOG`` from the environment, else in-memory only
            (see :attr:`fired`).
    """

    def __init__(
        self, plan: FaultPlan, log_path: str | os.PathLike | None = None
    ) -> None:
        self.plan = plan
        env_log = os.environ.get(LOG_ENV)
        self.log_path = Path(log_path) if log_path else (
            Path(env_log) if env_log else None
        )
        #: fired-fault records (this process only).
        self.fired: list[dict[str, Any]] = []
        self._once_fired: set[tuple[str, str]] = set()
        # One injector is shared by every serve worker thread; the
        # record list, once-set, and log writer are the only mutable
        # state.
        self._record_lock = threading.Lock()
        self._log_writer = None

    def _writer(self):
        """The telemetry writer for the shared fault log (lazy — the
        common case is an unlogged injector).  Single-segment mode:
        every process appends whole CRC frames to the one well-known
        path with ``O_APPEND``, so workers and the parent interleave at
        frame granularity."""
        if self.log_path is None:
            return None
        with self._record_lock:
            if self._log_writer is None:
                from repro.telemetry import TelemetryWriter

                self._log_writer = TelemetryWriter(
                    segment_path=self.log_path, prefix="faults"
                )
            return self._log_writer

    # ---- the decision primitive ---------------------------------------

    def roll(self, site: str, key: str, lane: int = 0) -> float:
        """A uniform deviate in [0, 1), pure in (seed, site, key, lane)."""
        text = f"{self.plan.seed}|{site}|{key}|{lane}"
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def should(self, site: str, key: str) -> bool:
        """Whether ``site`` fires for ``key`` (no state, no record)."""
        rate = self.plan.rate(site)
        return rate > 0.0 and self.roll(site, key) < rate

    def _record(self, site: str, key: str, **detail: Any) -> None:
        record = {
            "plan": self.plan.name,
            "site": site,
            "key": key,
            "pid": os.getpid(),
            "wall_s": round(time.time(), 3),
            **detail,
        }
        with self._record_lock:
            self.fired.append(record)
        writer = self._writer()
        if writer is not None:
            # Best-effort diagnostics; the writer swallows I/O errors —
            # injection must never fail because the log is unwritable.
            writer.append("fault.fired", record)

    def _once(self, site: str, key: str) -> bool:
        """``should``, firing at most once per (site, key) per process."""
        if not self.should(site, key):
            return False
        with self._record_lock:
            if (site, key) in self._once_fired:
                return False
            self._once_fired.add((site, key))
        return True

    # ---- executor sites ------------------------------------------------

    def _attempt_eligible(self, attempt: int) -> bool:
        return attempt <= 1 or not self.plan.first_attempt_only

    def maybe_crash_worker(
        self, job_key: str, attempt: int, in_subprocess: bool
    ) -> None:
        """Kill the worker (or raise, in-process) if the site fires."""
        if not self._attempt_eligible(attempt):
            return
        if not self.should(WORKER_CRASH, job_key):
            return
        self._record(
            WORKER_CRASH, job_key, attempt=attempt, subprocess=in_subprocess
        )
        if in_subprocess:
            os._exit(17)  # simulated segfault: no exception, no cleanup
        raise InjectedFault(
            "injected worker crash", site=WORKER_CRASH, job_key=job_key
        )

    def maybe_hang(self, job_key: str, attempt: int) -> None:
        """Sleep ``hang_s`` if the site fires (trips armed timeouts)."""
        if not self._attempt_eligible(attempt):
            return
        if not self.should(WORKER_HANG, job_key):
            return
        self._record(WORKER_HANG, job_key, attempt=attempt, hang_s=self.plan.hang_s)
        time.sleep(self.plan.hang_s)

    # ---- store site ----------------------------------------------------

    def corrupt_payload(self, key: str, text: str) -> str | None:
        """The corrupted bytes to write instead of ``text``, or ``None``.

        Fires at most once per key per process, so the self-heal
        recompute's own ``put`` lands clean and the store converges.
        """
        if not self._once(STORE_CORRUPT, key):
            return None
        cut = max(1, len(text) // 2)
        self._record(STORE_CORRUPT, key, truncated_to=cut, original_len=len(text))
        return text[:cut]

    # ---- kernel site ---------------------------------------------------

    def poison_row(self, grid_key: str, n_candidates: int) -> int | None:
        """The candidate row to poison with NaN, or ``None``.

        At most one row per grid, at most once per (grid, process) — the
        salvage path recomputes the row clean, so repeated evaluations
        of the same grid stay deterministic.
        """
        if n_candidates <= 0:
            return None
        if not self._once(KERNEL_POISON, grid_key):
            return None
        row = int(self.roll(KERNEL_POISON, grid_key, lane=1) * n_candidates)
        row = min(row, n_candidates - 1)
        self._record(KERNEL_POISON, grid_key, row=row, n_candidates=n_candidates)
        return row

    # ---- serve sites ---------------------------------------------------

    def drop_connection(self, request_key: str) -> bool:
        """Whether the service should drop this request's connection.

        Fires at most once per request key per process, so a client that
        retries the identical request always gets through — the property
        that lets the chaos load tests assert bit-identical responses.
        """
        if not self._once(SERVE_DROP, request_key):
            return False
        self._record(SERVE_DROP, request_key)
        return True

    def slow_response(self, request_key: str) -> float | None:
        """Delay (seconds) to add before this response, or ``None``.

        At most once per request key per process.  The caller sleeps
        *asynchronously* (``await asyncio.sleep``) so an injected slow
        response degrades one request's latency, never the event loop.
        """
        if not self._once(SERVE_SLOW, request_key):
            return None
        self._record(SERVE_SLOW, request_key, delay_s=self.plan.hang_s)
        return self.plan.hang_s

    # ---- telemetry site ------------------------------------------------

    def torn_append(self, key: str, frame_len: int) -> int | None:
        """The byte offset to truncate an appended frame at, or ``None``.

        Fires at most once per (run, seq) key per process — a simulated
        ``kill -9`` in the middle of a telemetry append.  The writer
        seals the damaged segment afterwards, so exactly one frame is
        lost and every complete record stays recoverable (the property
        the chaos suite asserts).
        """
        if frame_len <= 1:
            return None
        if not self._once(TELEMETRY_TORN, key):
            return None
        cut = max(1, frame_len // 2)
        self._record(TELEMETRY_TORN, key, truncated_to=cut, frame_len=frame_len)
        return cut

    # ---- lifetime sites ------------------------------------------------

    def wear_sensor_drift(self, key: str) -> float | None:
        """Multiplicative drift on one wear-sensor reading, or ``None``.

        The factor is a pure function of the key (run, epoch, structure),
        uniform in [0.5, 1.5) — so an armed plan drifts the *same*
        readings by the *same* amount in every process, and a resumed
        simulation sees exactly the drift the killed one saw.
        """
        if not self.should(WEAR_DRIFT, key):
            return None
        factor = 0.5 + self.roll(WEAR_DRIFT, key, lane=1)
        self._record(WEAR_DRIFT, key, factor=factor)
        return factor

    def checkpoint_torn(self, key: str) -> bool:
        """Whether this wear-checkpoint append should be written torn.

        At most once per (run, epoch) key per process — a simulated
        ``kill -9`` in the middle of the checkpoint write.  The resume
        path must fall back to the previous good checkpoint and
        re-integrate the missing epochs (degrade, never corrupt).
        """
        if not self._once(CHECKPOINT_TORN, key):
            return False
        self._record(CHECKPOINT_TORN, key)
        return True

    # ---- sensor sites --------------------------------------------------

    def sensor_temperature(self, structure: str, exact_k: float) -> float:
        """The (possibly faulty) temperature a sensor reports.

        A stuck sensor is stuck for the whole run (decision keyed on the
        structure alone); noise varies per reading (keyed on the exact
        value) but is still a pure function of it.
        """
        if self.should(SENSOR_STUCK, structure):
            self._record(
                SENSOR_STUCK, structure, stuck_k=self.plan.sensor_stuck_temp_k
            )
            return self.plan.sensor_stuck_temp_k
        reading_key = f"{structure}@{exact_k!r}"
        if self.should(SENSOR_NOISE, reading_key):
            # Box-Muller from two deterministic deviates; lane 1 is kept
            # strictly inside (0, 1] so log() stays finite.
            u1 = max(self.roll(SENSOR_NOISE, reading_key, lane=1), 1e-12)
            u2 = self.roll(SENSOR_NOISE, reading_key, lane=2)
            gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            noisy = exact_k + self.plan.sensor_noise_k * gauss
            self._record(SENSOR_NOISE, structure, exact_k=exact_k, noisy_k=noisy)
            return noisy
        return exact_k


# ---------------------------------------------------------------------------
# The active injector: programmatic installs win over the environment.
# ---------------------------------------------------------------------------

_installed: FaultInjector | None = None
_env_cache: tuple[str, FaultInjector] | None = None


def install(plan: FaultPlan | str | None) -> FaultInjector | None:
    """Arm a plan for this process (``None`` disarms). Returns the injector."""
    global _installed
    if plan is None:
        _installed = None
        return None
    if isinstance(plan, str):
        plan = FaultPlan.resolve(plan)
    _installed = FaultInjector(plan)
    return _installed


def active_injector() -> FaultInjector | None:
    """The armed injector, or ``None`` when no plan is armed.

    Programmatic :func:`install` takes precedence; otherwise the
    ``REPRO_FAULT_PLAN`` environment variable is consulted (and the
    resolved injector cached until the variable changes).
    """
    if _installed is not None:
        return _installed
    spec = os.environ.get(PLAN_ENV)
    if not spec:
        return None
    global _env_cache
    if _env_cache is not None and _env_cache[0] == spec:
        return _env_cache[1]
    injector = FaultInjector(FaultPlan.resolve(spec))
    _env_cache = (spec, injector)
    return injector


class armed:
    """Context manager: arm a plan in-process *and* in the environment.

    Exporting ``REPRO_FAULT_PLAN`` means worker processes spawned inside
    the block inject too.  On exit the previous state (installed
    injector and environment variable) is restored exactly.
    """

    def __init__(self, plan: FaultPlan | str) -> None:
        self.plan = FaultPlan.resolve(plan) if isinstance(plan, str) else plan
        self._prev_env: str | None = None
        self._prev_installed: FaultInjector | None = None
        self._plan_file: Path | None = None

    def __enter__(self) -> FaultInjector:
        global _installed
        self._prev_env = os.environ.get(PLAN_ENV)
        self._prev_installed = _installed
        if self.plan.name in NAMED_PLANS and NAMED_PLANS[self.plan.name] == self.plan:
            os.environ[PLAN_ENV] = self.plan.name
        else:
            # Ad-hoc plan: serialise it so workers can resolve it.
            import tempfile

            fd, name = tempfile.mkstemp(prefix="fault-plan-", suffix=".json")
            with os.fdopen(fd, "w") as handle:
                json.dump(self.plan.as_dict(), handle)
            self._plan_file = Path(name)
            os.environ[PLAN_ENV] = name
        injector = install(self.plan)
        assert injector is not None
        return injector

    def __exit__(self, *exc_info) -> None:
        global _installed
        _installed = self._prev_installed
        if self._prev_env is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = self._prev_env
        if self._plan_file is not None:
            try:
                self._plan_file.unlink()
            except OSError:
                pass


def iter_fault_log(path: str | os.PathLike) -> Iterator[dict[str, Any]]:
    """Parse a fault log, skipping torn or damaged lines.

    The log is a telemetry segment of ``fault.fired`` records; each
    yielded dict is one fired-fault payload.  Any line that is not a
    valid frame (torn, corrupted, or bare JSON) is skipped.
    """
    from repro.telemetry.stream import decode_frame

    try:
        raw = Path(path).read_bytes()
    except OSError:
        return
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        envelope = decode_frame(line)
        if envelope is not None and isinstance(envelope.get("payload"), dict):
            yield envelope["payload"]
