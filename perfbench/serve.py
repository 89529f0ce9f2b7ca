"""``serve_fleet``: open-loop Poisson traffic against the decision service.

Set-up simulates the three apps' base runs into a store.  Each rate step
replays one seeded ``TrafficMix.STATIC`` request list (MPGdec, gzip,
art; T_qual and T_limit on a 0.5 K grid over 340-380 K, every request
tagged with a chip id) against a fresh in-process ``DecisionService``
whose store starts from a copy of the prewarmed simulations.  Requests
are sent on a seeded Poisson schedule whether or not earlier ones have
finished, and each is timed from the moment it was due.  The service's
capacity is timed apart from the replay: fresh services drain a burst of
requests offered all at once.
"""

from __future__ import annotations

import asyncio
import random
import selectors
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.serve import (
    DEFAULT_PARAMETERS,
    DecisionService,
    HttpServer,
    LoadHarness,
    MicroBatcher,
    RequestTraceGenerator,
    ServiceConfig,
    TrafficMix,
    encode_decision,
)

from common import (
    NPROC,
    Calibrator,
    Outcome,
    digest,
    layer_metrics,
    median,
    percentile,
    reference_kernel,
)
from spans import Tracer, install, stepped_task_factory

APPS = ("MPGdec", "gzip", "art")
T_GRID = tuple(340.0 + 0.5 * i for i in range(81))
#: The first requests of every step fill the fresh service's per-thread
#: oracle bundles and its hot set; they are checked but not timed.
WARMUP_REQUESTS = 500
NOMINAL_RPS = 200.0
#: Offered rates above nominal for the capacity ladder of the traced
#: run, ascending; the ladder stops at the first rate that misses the
#: latency limit.  Each step replays ``LADDER_REQUESTS`` requests.
LADDER_RPS = (800.0, 1000.0, 1200.0, 1400.0, 1600.0, 2000.0)
LADDER_REQUESTS = 4000
SLO_P99_MS = 50.0
HTTP_SLICE = 200
#: The capacity figure: requests offered all at once to a warmed fresh
#: service, drained ``BURST_REPEATS`` times (median reported).
BURST_REQUESTS = 2000
BURST_REPEATS = 5

#: The host probe: an eighth of the reference kernel (~0.5 ms) run on the
#: event loop every ``PROBE_PERIOD_S`` while requests are in flight; a
#: request is calibrated by the probes within ``PROBE_WINDOW_S`` of it.
PROBE_PARTS = 8
PROBE_PERIOD_S = 0.1
PROBE_WINDOW_S = 1.0

#: Set-up is three short simulations, so single timings swing with the
#: host's speed; five repeats steady the median.
SETUP_REPEATS = 5


def service_config(store_dir) -> ServiceConfig:
    return ServiceConfig(
        dvs_steps=11,
        instructions=4_000,
        warmup=1_000,
        qual_apps=APPS,
        workers=NPROC,
        store_dir=str(store_dir),
    )


def requests_for(seed: int, n_requests: int):
    parameters = dict(DEFAULT_PARAMETERS)
    parameters.update(apps=APPS, t_qual_k_choices=T_GRID, t_limit_k_choices=T_GRID)
    return RequestTraceGenerator(
        mix=TrafficMix.STATIC, parameters=parameters, seed=seed
    ).generate(n_requests)


def setup(work, seed):
    """Simulate the apps' base runs into ``work/proto/sims``."""
    proto = work / "proto"
    DecisionService(service_config(proto)).prewarm(APPS)
    return {"work": work, "proto": proto, "steps": 0, "seed": seed}


def nominal_requests(state, seconds):
    """The warm-up plus ``seconds`` worth of requests at the nominal rate."""
    return requests_for(state["seed"], WARMUP_REQUESTS + round(seconds * NOMINAL_RPS))


def fresh_service(state) -> DecisionService:
    """A new service whose store holds only the prewarmed simulations."""
    state["steps"] += 1
    store = state["work"] / f"step-{state['steps']}"
    shutil.copytree(state["proto"] / "sims", store / "sims")
    service = DecisionService(service_config(store))
    service.prewarm(APPS)
    return service


class _HostProbe:
    """The host's speed over a replay, from short reference ticks on the
    event loop.

    The host's speed flips by up to 1.8x within a run, faster than ticks
    taken only before and after a 15 s replay can follow, and ticking a
    whole reference on the loop would stall requests; an eighth of it
    every 100 ms costs the loop ~0.6% of its time.  A probe that waits
    for the interpreter lock while a worker computes a miss reads slow;
    the workers are idle most of the replay, and the median over each
    window passes over those.
    """

    #: The probe's time on the calibration host: its share of the whole
    #: reference, which measures 7.5 times as long (the numpy set-up does
    #: not shrink with it).
    REFERENCE_S = Calibrator.REFERENCE_S / 7.5

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._handle = None

    def start(self) -> None:
        self._handle = asyncio.get_running_loop().call_later(PROBE_PERIOD_S, self._tick)

    def stop(self) -> None:
        self._handle.cancel()

    def _tick(self) -> None:
        start = time.perf_counter()
        reference_kernel(PROBE_PARTS)
        self.samples.append((start, time.perf_counter() - start))
        self._handle = asyncio.get_running_loop().call_later(PROBE_PERIOD_S, self._tick)

    def scale(self, start: float, end: float) -> float:
        """Calibrated over raw time for work between ``start`` and ``end``."""
        window = [
            d for t, d in self.samples
            if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S
        ]
        return self.REFERENCE_S / median(window or [d for _, d in self.samples])


class _IdleSelector(selectors.DefaultSelector):
    """Records the event loop's waits as ``loadgen.idle`` spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        index = self._tracer.open("loadgen.idle")
        try:
            return super().select(timeout)
        finally:
            self._tracer.close(index)


class _Probe:
    """What the traced run records beyond spans: when each work item
    entered the batcher, and how long items waited there."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.submitted: dict[int, float] = {}
        self.waits: list[float] = []

    def install(self, patches) -> None:
        original = MicroBatcher.submit
        submitted = self.submitted

        async def submit(batcher, item, **kwargs):
            submitted[id(item)] = time.perf_counter()
            return await original(batcher, item, **kwargs)

        patches.replace(MicroBatcher, "submit", submit)


class _TracedExecutor(ThreadPoolExecutor):
    """The service's worker pool with one ``serve.worker`` span per batch;
    a batch's hand-off ends the batcher wait of every item in it."""

    def __init__(self, probe: _Probe, workers: int) -> None:
        super().__init__(max_workers=workers, thread_name_prefix="repro-serve")
        self._probe = probe

    def submit(self, fn, /, *args, **kwargs):
        now = time.perf_counter()
        probe = self._probe
        for item in (args[0] if args else ()):
            t_submit = probe.submitted.pop(id(item), None)
            if t_submit is not None:
                probe.waits.append(now - t_submit)
        tracer = probe.tracer

        def run():
            index = tracer.open("serve.worker")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return super().submit(run)


async def _replay(service, requests, rate, seed, tracer=None):
    """Open-loop replay: one record per request, in send order."""
    rng = random.Random(seed * 1_000_003 + int(rate))
    loop = asyncio.get_running_loop()
    records = [None] * len(requests)

    async def one(i, request, due, sent):
        try:
            served = await service.decide(request)
        # Counted as a failed request; the replay goes on.
        except Exception as exc:  # noqa: BLE001
            records[i] = (due, sent, time.perf_counter(), "error", exc)
            return
        done = time.perf_counter()
        records[i] = (due, sent, done, served.tier, served)
        if tracer is not None:
            tracer.record_async("serve.request", sent, done, i)

    tasks = []
    t0 = time.perf_counter() + 0.01
    due = t0
    for i, request in enumerate(requests):
        due += rng.expovariate(rate)
        delay = due - time.perf_counter()
        if delay > 0.0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i, request, due, time.perf_counter())))
    await asyncio.gather(*tasks)
    return records


def _summarise(records):
    """Latency and lateness of the timed requests (after the warm-up)."""
    timed = records[WARMUP_REQUESTS:]
    latencies = [done - due for due, _, done, _, _ in timed]
    late = [sent - due for due, sent, _, _, _ in timed]
    tiers = {}
    for record in timed:
        tiers[record[3]] = tiers.get(record[3], 0) + 1
    first_due = min(r[0] for r in timed)
    last_done = max(r[2] for r in timed)
    last_quarter = latencies[len(latencies) * 3 // 4:]
    p99_ms = 1e3 * percentile(latencies, 0.99)
    return {
        "p50_ms": 1e3 * median(latencies),
        "p95_ms": 1e3 * percentile(latencies, 0.95),
        "p99_ms": p99_ms,
        # A growing backlog shows as a slower last quarter; the limit
        # applies to whichever is worse.
        "slo_ms": max(p99_ms, 1e3 * percentile(last_quarter, 0.99)),
        "late_ms_p50": 1e3 * median(late),
        "late_ms_max": 1e3 * max(late),
        "achieved_rps": len(timed) / (last_done - first_due),
        "wall_s": last_done - first_due,
        "tiers": tiers,
        "by_tier_ms": {
            tier: [1e3 * (r[2] - r[0]) for r in timed if r[3] == tier]
            for tier in tiers
        },
    }


def max_rps(steps) -> float:
    """Where the latency limit is crossed, from ``(rate, summary)`` steps
    in ladder order: the highest rate that meets the limit, moved towards
    the first rate that misses it in proportion to the latency headroom
    (linear in p99 between the two steps)."""
    passed = None
    for rate, summary in steps:
        if summary["slo_ms"] > SLO_P99_MS:
            if passed is None:
                return 0.0
            rate_p, slo_p = passed
            share = (SLO_P99_MS - slo_p) / (summary["slo_ms"] - slo_p)
            return rate_p + (rate - rate_p) * share
        passed = (summary["achieved_rps"], summary["slo_ms"])
    return passed[0]


def _run_step(state, rate, requests, probe=None, host=None):
    """Replay ``requests`` at ``rate`` on a fresh service, probing the
    host's speed with ``host`` if given; returns the service, the
    records, and the replay's wall and process CPU seconds.
    With a probe, every step of every task on the event loop is a span
    (the benchmark's own steps are ``loadgen.task``) and the loop's waits
    are ``loadgen.idle`` spans, so only the event loop's own bookkeeping
    goes unattributed."""
    service = fresh_service(state)
    tracer = probe.tracer if probe is not None else None
    if probe is not None:
        service.executor.shutdown(wait=True)
        service.executor = _TracedExecutor(probe, service.config.workers)
    loop = asyncio.SelectorEventLoop(_IdleSelector(tracer) if tracer else None)
    if tracer:
        loop.set_task_factory(stepped_task_factory(tracer))

    async def drive():
        if host is not None:
            host.start()
        try:
            return await _replay(service, requests, rate, state["seed"], tracer)
        finally:
            if host is not None:
                host.stop()
            await service.close()

    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        records = loop.run_until_complete(drive())
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        loop.close()
    return service, records, wall_s, cpu_s


def _check(outcome, service, records, verified):
    """Every served decision must equal a direct oracle call with the
    service's own parameters; ``verified`` maps cache key -> digest and
    is filled on first sight of a key."""
    bundle = service.oracle_bundle()
    outcome.attempted += len(records)
    for due, sent, done, tier, served in records:
        if tier == "error":
            outcome.check(False, f"request failed: {served!r}")
            continue
        kind = served.request.kind
        key = served.cache_key
        if key not in verified:
            verified[key] = digest(encode_decision(kind, bundle.best(served.request)))
        outcome.check(
            digest(encode_decision(kind, served.decision)) == verified[key],
            f"served {kind} decision {key[:12]} differs from a direct call",
        )
    writes = service.sim_cache.store.stats.writes
    outcome.check(writes == 0, f"service simulated {writes} runs during the replay")


def _burst(state, outcome, verified) -> float:
    """Seconds a fresh service takes to drain ``BURST_REQUESTS`` requests
    offered at once, after its warm-up requests, also offered at once."""
    service = fresh_service(state)
    requests = requests_for(state["seed"], WARMUP_REQUESTS + BURST_REQUESTS)
    warmup = requests[:WARMUP_REQUESTS]
    burst = requests[WARMUP_REQUESTS:]

    async def offer(batch):
        return await asyncio.gather(
            *(service.decide(r) for r in batch), return_exceptions=True
        )

    async def drive():
        try:
            served = await offer(warmup)
            start = time.perf_counter()
            served += await offer(burst)
            return served, time.perf_counter() - start
        finally:
            await service.close()

    served, drain_s = asyncio.run(drive())
    records = [
        (0.0, 0.0, 0.0, "error" if isinstance(s, Exception) else s.tier, s)
        for s in served
    ]
    _check(outcome, service, records, verified)
    return drain_s


def measure(state, seconds, seed):
    """One replay at the nominal rate lasting ``seconds``, then the bursts.
    Latencies are calibrated request by request against the host probes
    around each one; the rate and the drains stay raw."""
    outcome = Outcome()
    verified: dict = {}
    requests = nominal_requests(state, seconds)
    host = _HostProbe()
    service, records, _, cpu_s = _run_step(state, NOMINAL_RPS, requests, host=host)
    _check(outcome, service, records, verified)
    nominal = _summarise(records)
    per_cpu_s = len(records) / cpu_s
    latencies = [
        (done - due) * host.scale(due, done)
        for due, _, done, _, _ in records[WARMUP_REQUESTS:]
    ]
    drains = [_burst(state, outcome, verified) for _ in range(BURST_REPEATS)]
    outcome.metrics = {
        # What the service controls at any offered rate: the open-loop
        # replay's own wall time is the generator's arrival schedule.
        "wall_s": median(drains),
        "throughput_per_s": per_cpu_s,
        "latency_ms": 1e3 * median(latencies),
        # About one request in ten misses the cache, so the 95th
        # percentile is the typical miss.  The 99th is printed too, but
        # queueing makes it swing with the host's speed (a spread of
        # 0.33 over ten seeds), wider than any bound.
        "tail_latency_ms": 1e3 * percentile(latencies, 0.95),
    }
    outcome.native = {
        "requests": len(records),
        "burst_drain_s": drains,
        "replay_wall_s": nominal["wall_s"],
        "serve_p50_ms": outcome.metrics["latency_ms"],
        "serve_p95_ms": outcome.metrics["tail_latency_ms"],
        "serve_p99_ms": 1e3 * percentile(latencies, 0.99),
        "requests_per_cpu_s": per_cpu_s,
        "nominal_tiers": nominal["tiers"],
        "raw_serve_p50_ms": nominal["p50_ms"],
        "raw_serve_p95_ms": nominal["p95_ms"],
        "raw_serve_p99_ms": nominal["p99_ms"],
        "probe_ms_p50": 1e3 * median([d for _, d in host.samples]),
    }
    outcome.meta["loadgen_late_ms_p50"] = nominal["late_ms_p50"]
    outcome.meta["loadgen_late_ms_max"] = nominal["late_ms_max"]
    return outcome


def _capacity_ladder(state, outcome):
    """Step the offered rate up until the latency limit is missed."""
    requests = requests_for(state["seed"], LADDER_REQUESTS)
    verified: dict = {}
    steps = []
    for rate in (NOMINAL_RPS,) + LADDER_RPS:
        service, records, _, _ = _run_step(state, rate, requests)
        _check(outcome, service, records, verified)
        steps.append((rate, _summarise(records)))
        if steps[-1][1]["slo_ms"] > SLO_P99_MS:
            break
    outcome.meta["ladder"] = {
        rate: {k: round(summary[k], 3) for k in ("p50_ms", "p99_ms", "slo_ms", "achieved_rps")}
        for rate, summary in steps
    }
    return max_rps(steps)


def _http_overhead_ms(state) -> float:
    """p50 over HTTP minus p50 in-process, same warm slice, closed loop
    with one keep-alive connection per core."""
    service = fresh_service(state)
    requests = requests_for(state["seed"], HTTP_SLICE)
    harness = LoadHarness(concurrency=NPROC)

    async def drive():
        server = HttpServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            await harness.run_inprocess(service, requests)
            inproc = await harness.run_inprocess(service, requests)
            http = await harness.run_http("127.0.0.1", server.port, requests)
            # Let the server's handlers see the clients hang up before
            # stop() cancels whatever is still open.
            await asyncio.sleep(0.1)
        finally:
            await server.stop()  # also closes the service
        return inproc, http

    inproc, http = asyncio.run(drive())
    if inproc.errors or http.errors:
        raise RuntimeError("HTTP slice had failed requests")
    return http.p50_ms - inproc.p50_ms


def _tier_guard(outcome, untraced, traced):
    """Tier counts must not depend on tracing, up to dedupe timing: a
    request deduped inside a batch in one run may be a memory hit in
    the other."""
    def folded(tiers):
        return (tiers.get("computed", 0),
                tiers.get("memory", 0) + tiers.get("deduped", 0) + tiers.get("store", 0))

    outcome.attempted += 1
    outcome.check(
        folded(untraced) == folded(traced),
        f"tier counts differ between untraced {untraced} and traced {traced}",
    )


def traced(state, seed, seconds):
    outcome = Outcome()
    verified: dict = {}
    requests = nominal_requests(state, seconds)
    service, records, untraced_wall, _ = _run_step(state, NOMINAL_RPS, requests)
    _check(outcome, service, records, verified)
    untraced = _summarise(records)

    tracer = Tracer()
    probe = _Probe(tracer)
    patches = install(tracer)
    probe.install(patches)
    try:
        service, records, wall_s, _ = _run_step(state, NOMINAL_RPS, requests, probe)
    finally:
        patches.undo()
    _check(outcome, service, records, verified)
    summary = _summarise(records)
    _tier_guard(outcome, untraced["tiers"], summary["tiers"])

    metrics = layer_metrics(
        tracer, wall_s=wall_s, untraced_wall_s=untraced_wall,
        thread=threading.get_ident(),
    )
    for tier in ("memory", "store", "computed", "deduped"):
        metrics[f"serve.tier.{tier}"] = summary["tiers"].get(tier, 0)
    memo = service.platform.evaluation_memo_stats()
    lookups = memo["hits"] + memo["misses"]
    metrics["serve.eval_memo_hit_ratio"] = memo["hits"] / lookups if lookups else 0.0
    stats = service.batcher.stats
    if stats.flushes:
        metrics["serve.batcher.items_per_flush_mean"] = stats.flushed_items / stats.flushes
    metrics["serve.batcher.wait_ms_p50"] = 1e3 * median(probe.waits)
    metrics["serve.batcher.wait_ms_p99"] = 1e3 * percentile(probe.waits, 0.99)
    busy = sum(s.duration for s in tracer.by_name("serve.worker"))
    metrics["serve.worker.busy_frac"] = busy / (service.config.workers * wall_s)
    metrics["serve.computed_ms_p99"] = percentile(summary["by_tier_ms"].get("computed", []), 0.99)
    metrics["serve.memory_ms_p50"] = median(summary["by_tier_ms"].get("memory", []))
    metrics["loadgen.late_ms_p50"] = summary["late_ms_p50"]
    metrics["loadgen.late_ms_max"] = summary["late_ms_max"]
    metrics["http.overhead_ms_p50"] = _http_overhead_ms(state)
    metrics["serve.max_rps_slo"] = _capacity_ladder(state, outcome)
    outcome.metrics = metrics
    outcome.meta["loadgen_late_ms_p50"] = summary["late_ms_p50"]
    outcome.meta["loadgen_late_ms_max"] = summary["late_ms_max"]
    outcome.meta["tracer"] = tracer
    return outcome
