"""Fault-tolerant job execution: process pools, retries, degradation.

Execution policy is a ladder — each rung trades throughput for blame
attribution, and a run only descends as far as its failures force it:

1. **Shared pool** — all runnable jobs of a wave go to one
   ``ProcessPoolExecutor``; a job that raises an ordinary exception is
   retried (bounded, with exponential backoff **plus deterministic
   jitter** so retry storms de-correlate) without disturbing the pool.
2. **Pool rebuild** — if the pool itself breaks (a worker died, or a job
   blew its wall-clock budget and cannot be cancelled), the pool is torn
   down and a **fresh shared pool** is built for the unresolved jobs.
   Casualties of the incident are requeued uncharged: the shared pool
   cannot attribute a crash, so nobody is blamed for it.  Rebuilds are
   bounded (:attr:`ExecutorConfig.max_pool_rebuilds`).
3. **Isolation mode** — a job that has now witnessed
   :attr:`ExecutorConfig.suspect_threshold` pool incidents is a suspect:
   it re-runs in its own fresh single-worker pool, which attributes the
   crash exactly and shields healthy jobs from a poisoned batch.  When
   the rebuild budget runs out, everything unresolved is isolated.
4. **Serial fallback** — if process pools are unavailable at all (no
   usable start method, fork blocked, resource limits), jobs run
   in-process, serially.  Timeouts cannot be enforced there; everything
   else behaves identically.

Orthogonally, every job carries a **failure budget**
(:attr:`ExecutorConfig.failure_budget`): once a job has accumulated that
many *concluded* failed attempts across this executor's lifetime, it is
failed fast instead of re-attempted — a persistently poisonous job
cannot starve the rest of a sweep.

Fault injection: :func:`_worker_run` consults the armed
:class:`~repro.resilience.FaultPlan` (if any), so injected worker
crashes, hangs, and timeouts flow through exactly the production retry /
rebuild / isolate paths that real incidents would.

Results flow back to the parent, which is the only process that writes
the store — workers only read it.  That keeps persistence single-writer
and the event accounting exact.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import os
import time
from concurrent.futures.process import BrokenProcessPool

from repro.engine.events import EventLog
from repro.engine.jobs import Job, JobContext
from repro.engine.store import (
    DECODE_ERRORS,
    ResultStore,
    decode_result,
    encode_result,
)


def _worker_run(
    job: Job,
    store_dir: str | None,
    attempt: int = 1,
    parent_pid: int | None = None,
):
    """Top-level (picklable) worker entry point.

    Runs in pool workers *and* in-process (serial mode); when a fault
    plan is armed, injected crashes/hangs happen here so they traverse
    the same recovery machinery as real incidents.
    """
    from repro.resilience import active_injector

    injector = active_injector()
    if injector is not None:
        in_subprocess = parent_pid is not None and os.getpid() != parent_pid
        injector.maybe_crash_worker(job.cache_key, attempt, in_subprocess)
        injector.maybe_hang(job.cache_key, attempt)
    return job.run(JobContext(store_dir=store_dir))


@dataclasses.dataclass(frozen=True)
class ExecutorConfig:
    """Execution policy (never part of any cache key).

    Attributes:
        max_workers: process count; ``None`` uses ``os.cpu_count()``;
            ``1`` (or 0) means in-process serial execution.
        timeout_s: default per-job wall-clock budget (``None`` = none);
            a job's own ``timeout_s`` attribute takes precedence.
        retries: additional attempts after the first failure.
        backoff_s: base of the exponential retry backoff.
        jitter: deterministic jitter fraction added to each backoff
            sleep (0 disables; 0.25 means up to +25%).  Derived from the
            job key, so it is reproducible yet de-correlates retries.
        failure_budget: maximum *concluded* failed attempts per job
            across this executor's lifetime; once reached, the job is
            failed fast instead of re-attempted.  ``None`` disables.
        max_pool_rebuilds: shared-pool rebuilds per :meth:`execute` call
            before the remaining jobs fall back to isolation mode.
        suspect_threshold: pool incidents a job may witness while
            unresolved before it is isolated for exact crash blame.
    """

    max_workers: int | None = None
    timeout_s: float | None = None
    retries: int = 1
    backoff_s: float = 0.05
    jitter: float = 0.25
    failure_budget: int | None = None
    max_pool_rebuilds: int = 2
    suspect_threshold: int = 2


@dataclasses.dataclass
class JobOutcome:
    """How one job concluded.

    Attributes:
        job: the spec.
        status: ``"run"``, ``"cached"`` or ``"failed"``.
        result: the job's return value (``None`` when failed).
        error: last error string for failed jobs.
        attempts: execution attempts consumed (0 for cache hits).
        duration_s: wall time of the successful attempt.
    """

    job: Job
    status: str
    result: object = None
    error: str | None = None
    attempts: int = 0
    duration_s: float = 0.0


class JobExecutor:
    """Runs job specs against a store with bounded fault tolerance.

    Args:
        config: execution policy.
        store: optional persistent result store (hit before running).
        events: event log (a private one is created if omitted).
    """

    def __init__(
        self,
        config: ExecutorConfig | None = None,
        store: ResultStore | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.config = config or ExecutorConfig()
        self.store = store
        self.events = events if events is not None else EventLog()
        self.memory: dict[str, object] = {}
        #: concluded failed attempts per job key (executor lifetime);
        #: what the failure budget is charged against.
        self.failures: dict[str, int] = {}

    # ---- cache lookups -------------------------------------------------

    def _lookup(self, job: Job):
        """(found, result) from memory or the persistent store."""
        key = job.cache_key
        if key in self.memory:
            return True, self.memory[key]
        if self.store is not None:
            payload = self.store.get(key)
            if payload is not None:
                try:
                    result = decode_result(job.kind, payload)
                except DECODE_ERRORS as exc:
                    # Valid JSON but an undecodable payload: strike it
                    # (self-heal first, quarantine second) and recompute,
                    # exactly like on-disk corruption.
                    action = self.store.invalidate(key)
                    self.events.emit(
                        "quarantined" if action == "quarantined" else "healed",
                        job_key=key,
                        stage=job.stage,
                        detail=f"{job.describe()}: {exc!r}",
                    )
                    return False, None
                self.store.absolve(key)
                self.memory[key] = result
                return True, result
        return False, None

    def _persist(self, job: Job, result) -> None:
        self.memory[job.cache_key] = result
        if self.store is not None:
            payload = encode_result(job.kind, result)
            if payload is not None:
                self.store.put(job.cache_key, job.kind, payload)

    # ---- public API ----------------------------------------------------

    def execute(self, jobs: list[Job]) -> dict[str, JobOutcome]:
        """Execute a wave of mutually independent jobs.

        Returns outcomes keyed by cache key; every input job is present
        (as run, cached, or failed).
        """
        outcomes: dict[str, JobOutcome] = {}
        to_run: list[Job] = []
        for job in jobs:
            if job.cache_key in outcomes:
                continue
            found, result = self._lookup(job)
            if found:
                outcomes[job.cache_key] = JobOutcome(
                    job=job, status="cached", result=result
                )
                self.events.emit(
                    "cache_hit",
                    job_key=job.cache_key,
                    stage=job.stage,
                    detail=job.describe(),
                )
            elif self._budget_exhausted(job):
                outcomes[job.cache_key] = self._fail_over_budget(job)
            else:
                to_run.append(job)
        if not to_run:
            return outcomes
        workers = self._effective_workers(len(to_run))
        if workers <= 1:
            ran = self._execute_serial(to_run)
        else:
            ran = self._execute_parallel(to_run, workers)
        outcomes.update(ran)
        return outcomes

    # ---- failure budget ------------------------------------------------

    def _charge_failure(self, job: Job) -> None:
        key = job.cache_key
        self.failures[key] = self.failures.get(key, 0) + 1

    def _budget_exhausted(self, job: Job) -> bool:
        budget = self.config.failure_budget
        if budget is None:
            return False
        return self.failures.get(job.cache_key, 0) >= budget

    def _fail_over_budget(self, job: Job) -> JobOutcome:
        spent = self.failures.get(job.cache_key, 0)
        self.events.emit(
            "budget_exhausted",
            job_key=job.cache_key,
            stage=job.stage,
            detail=(
                f"{job.describe()}: failure budget exhausted "
                f"({spent}/{self.config.failure_budget} failed attempts)"
            ),
        )
        return self._fail(
            job,
            f"failure budget exhausted ({spent} failed attempts)",
            attempts=0,
        )

    # ---- execution strategies -----------------------------------------

    def _effective_workers(self, n_jobs: int) -> int:
        workers = self.config.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(0, min(workers, n_jobs))

    def _timeout_for(self, job: Job) -> float | None:
        if job.timeout_s is not None:
            return job.timeout_s
        return self.config.timeout_s

    def _store_dir(self) -> str | None:
        return str(self.store.root) if self.store is not None else None

    def _backoff(self, attempt: int, salt: str = "") -> None:
        """Exponential backoff with deterministic jitter.

        The jitter deviate is a pure function of (salt, attempt), so runs
        are reproducible while concurrent retriers still spread out.
        """
        base = self.config.backoff_s
        if base <= 0.0:
            return
        delay = base * (2 ** (attempt - 1))
        if self.config.jitter > 0.0:
            digest = hashlib.sha256(f"{salt}|{attempt}".encode()).digest()
            deviate = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 + self.config.jitter * deviate
        time.sleep(delay)

    def _finish(self, job: Job, result, attempts: int, duration_s: float) -> JobOutcome:
        self._persist(job, result)
        self.events.emit(
            "run_finished",
            job_key=job.cache_key,
            stage=job.stage,
            detail=job.describe(),
            duration_s=duration_s,
            attempts=attempts,
        )
        return JobOutcome(
            job=job,
            status="run",
            result=result,
            attempts=attempts,
            duration_s=duration_s,
        )

    def _fail(self, job: Job, error: str, attempts: int) -> JobOutcome:
        self.events.emit(
            "failed",
            job_key=job.cache_key,
            stage=job.stage,
            detail=f"{job.describe()}: {error}",
            attempts=attempts,
        )
        return JobOutcome(job=job, status="failed", error=error, attempts=attempts)

    def _note_retry(self, job: Job, attempt: int, error: str) -> None:
        self.events.emit(
            "retried",
            job_key=job.cache_key,
            stage=job.stage,
            detail=f"{job.describe()}: attempt {attempt} failed: {error}",
        )

    def _retry_allowed(self, job: Job, attempts: int) -> bool:
        return attempts < self.config.retries + 1 and not self._budget_exhausted(job)

    def _execute_serial(self, jobs: list[Job]) -> dict[str, JobOutcome]:
        """In-process execution (also the no-multiprocessing fallback)."""
        store_dir = self._store_dir()
        parent_pid = os.getpid()
        outcomes: dict[str, JobOutcome] = {}
        for job in jobs:
            attempt = 0
            while True:
                attempt += 1
                start = time.monotonic()
                try:
                    result = _worker_run(job, store_dir, attempt, parent_pid)
                # repro: ignore[RPR006] crash isolation: jobs run arbitrary
                # model code, and any raise must become a JobOutcome, not a
                # crash of the whole wave.
                except Exception as exc:
                    error = repr(exc)
                    self._charge_failure(job)
                    if self._retry_allowed(job, attempt):
                        self._note_retry(job, attempt, error)
                        self._backoff(attempt, salt=job.cache_key)
                        continue
                    outcomes[job.cache_key] = self._fail(job, error, attempt)
                    break
                duration = time.monotonic() - start
                outcomes[job.cache_key] = self._finish(
                    job, result, attempt, duration
                )
                break
        return outcomes

    def _new_pool(self, workers: int):
        try:
            return concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, NotImplementedError):
            return None

    def _execute_parallel(
        self, jobs: list[Job], workers: int
    ) -> dict[str, JobOutcome]:
        pool = self._new_pool(workers)
        if pool is None:
            self.events.emit(
                "degraded", detail="process pool unavailable; running serially"
            )
            return self._execute_serial(jobs)

        outcomes: dict[str, JobOutcome] = {}
        attempts: dict[str, int] = {job.cache_key: 0 for job in jobs}
        #: pool incidents each job witnessed while unresolved — the
        #: evidence that eventually makes it a suspect.
        incidents: dict[str, int] = {job.cache_key: 0 for job in jobs}
        store_dir = self._store_dir()
        parent_pid = os.getpid()
        queue = list(jobs)
        rebuilds = 0
        try:
            while queue:
                if pool is None:
                    # Descend the degradation ladder: isolate suspects,
                    # rebuild the shared pool for everyone else.
                    suspects = [
                        j
                        for j in queue
                        if incidents[j.cache_key]
                        >= self.config.suspect_threshold
                    ]
                    if suspects:
                        queue = [j for j in queue if j not in suspects]
                        self.events.emit(
                            "degraded",
                            detail=(
                                f"isolating {len(suspects)} suspect job(s) "
                                "in single-worker pools"
                            ),
                        )
                        outcomes.update(
                            self._execute_isolated(suspects, attempts)
                        )
                        if not queue:
                            break
                    rebuilds += 1
                    if rebuilds > self.config.max_pool_rebuilds:
                        self.events.emit(
                            "degraded",
                            detail=(
                                f"pool rebuild budget spent; isolating "
                                f"{len(queue)} unresolved job(s)"
                            ),
                        )
                        outcomes.update(
                            self._execute_isolated(queue, attempts)
                        )
                        queue = []
                        break
                    self.events.emit(
                        "degraded",
                        detail=(
                            f"pool incident; rebuilding shared pool "
                            f"(rebuild {rebuilds}/{self.config.max_pool_rebuilds})"
                        ),
                    )
                    pool = self._new_pool(workers)
                    if pool is None:
                        self.events.emit(
                            "degraded",
                            detail="process pool unavailable; running serially",
                        )
                        outcomes.update(self._execute_serial(queue))
                        queue = []
                        break

                batch = queue
                queue = []
                pool_broken = False
                for job in batch:
                    attempts[job.cache_key] += 1
                starts = {job.cache_key: time.monotonic() for job in batch}
                futures = [
                    (
                        job,
                        pool.submit(
                            _worker_run,
                            job,
                            store_dir,
                            attempts[job.cache_key],
                            parent_pid,
                        ),
                    )
                    for job in batch
                ]
                for job, future in futures:
                    key = job.cache_key
                    if pool_broken:
                        # Pool already condemned: anything unresolved is a
                        # casualty — requeued uncharged, incident noted.
                        if not future.done() or future.cancelled():
                            queue.append(job)
                            attempts[key] -= 1  # attempt never concluded
                            incidents[key] += 1
                            continue
                    try:
                        result = future.result(timeout=self._timeout_for(job))
                    except concurrent.futures.TimeoutError:
                        pool_broken = True  # rogue worker may still run
                        error = (
                            f"timed out after {self._timeout_for(job):.1f}s"
                        )
                        self._charge_failure(job)
                        if self._retry_allowed(job, attempts[key]):
                            self._note_retry(job, attempts[key], error)
                            queue.append(job)
                        else:
                            outcomes[key] = self._fail(job, error, attempts[key])
                    except concurrent.futures.CancelledError:
                        attempts[key] -= 1
                        incidents[key] += 1
                        queue.append(job)
                    except BrokenProcessPool:
                        # Every pending future raises this when any worker
                        # dies, so the shared pool cannot attribute the
                        # crash.  Requeue uncharged; the rebuild/isolate
                        # ladder above assigns blame if it recurs.
                        pool_broken = True
                        attempts[key] -= 1
                        incidents[key] += 1
                        queue.append(job)
                    # repro: ignore[RPR006] crash isolation: the job
                    # itself raised (the pool is fine), and any raise
                    # must become a retry/JobOutcome, not kill the wave.
                    except Exception as exc:
                        error = repr(exc)
                        self._charge_failure(job)
                        if self._retry_allowed(job, attempts[key]):
                            self._note_retry(job, attempts[key], error)
                            queue.append(job)
                        else:
                            outcomes[key] = self._fail(job, error, attempts[key])
                    else:
                        duration = time.monotonic() - starts[key]
                        outcomes[key] = self._finish(
                            job, result, attempts[key], duration
                        )
                if pool_broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                elif queue:
                    self._backoff(
                        max(attempts[j.cache_key] for j in queue),
                        salt=queue[0].cache_key,
                    )
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

        return outcomes

    def _execute_isolated(
        self, jobs: list[Job], attempts: dict[str, int]
    ) -> dict[str, JobOutcome]:
        """One fresh single-worker pool per attempt: exact crash blame."""
        outcomes: dict[str, JobOutcome] = {}
        store_dir = self._store_dir()
        parent_pid = os.getpid()
        for job in jobs:
            key = job.cache_key
            while True:
                attempts[key] += 1
                pool = self._new_pool(1)
                if pool is None:
                    self.events.emit(
                        "degraded",
                        detail="process pool unavailable; running serially",
                    )
                    serial = self._execute_serial([job])
                    outcomes.update(serial)
                    break
                start = time.monotonic()
                rogue = False
                try:
                    future = pool.submit(
                        _worker_run, job, store_dir, attempts[key], parent_pid
                    )
                    result = future.result(timeout=self._timeout_for(job))
                except concurrent.futures.TimeoutError:
                    rogue = True
                    error = f"timed out after {self._timeout_for(job):.1f}s"
                    self._charge_failure(job)
                except BrokenProcessPool as exc:
                    error = f"worker died: {exc!r}"
                    self._charge_failure(job)
                # repro: ignore[RPR006] crash isolation: arbitrary job
                # errors must be attributed to this job and retried.
                except Exception as exc:
                    error = repr(exc)
                    self._charge_failure(job)
                else:
                    duration = time.monotonic() - start
                    outcomes[key] = self._finish(
                        job, result, attempts[key], duration
                    )
                    pool.shutdown(wait=True)
                    break
                pool.shutdown(wait=not rogue, cancel_futures=True)
                if self._retry_allowed(job, attempts[key]):
                    self._note_retry(job, attempts[key], error)
                    self._backoff(attempts[key], salt=key)
                    continue
                outcomes[key] = self._fail(job, error, attempts[key])
                break
        return outcomes
