"""Helpers shared by the benchmark's workloads: paths, statistics,
digests, run metadata and the per-layer metric table."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
#: Scratch space for stores and telemetry roots; always inside the checkout.
WORK_ROOT = ROOT / ".perfbench-work"
#: Where traced runs write their spans.
TRACE_OUT = ROOT / ".perfbench-traces"

NPROC = os.cpu_count() or 1


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def digest(payload) -> str:
    """SHA-256 of canonical JSON (floats serialise exactly via repr)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_work_dir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def source_commit() -> str:
    """``git rev-parse HEAD`` of the checkout, or ``unknown`` outside a
    git clone."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the host so far, from
    ``/proc/stat``; ``None`` where the kernel does not report them."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(f) for f in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[7], sum(fields)


def run_metadata(seed: int, loadavg_start: float, ticks_start) -> dict:
    """What makes a noisy or mis-seeded run visible.  ``steal_frac`` is
    the share of CPU time the hypervisor gave to other guests during the
    run: a host that steals a few percent delays thread and timer
    wake-ups, which the serving latencies feel and a reference kernel
    does not."""
    import numpy

    meta = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": source_commit(),
        "loadavg_1m_start": loadavg_start,
        "seed": seed,
        "argv": sys.argv[1:],
    }
    ticks_end = cpu_ticks()
    if ticks_start is not None and ticks_end is not None:
        total = ticks_end[1] - ticks_start[1]
        meta["steal_frac"] = (ticks_end[0] - ticks_start[0]) / total if total else 0.0
    return meta


def reference_kernel(parts: int = 1) -> float:
    """Fixed interpreter and small-array work, independent of the library:
    the same mix the workloads spend their time in.  ``parts`` > 1 runs
    that share of it."""
    import numpy

    table: dict[int, int] = {}
    acc = 0.0
    for i in range(8000 // parts):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    values = numpy.linspace(1.0, 2.0, 16)
    for _ in range(600 // parts):
        values = numpy.sqrt(values * 1.0001 + 0.5)
        acc += float(values.sum())
    return acc


class Calibrator:
    """Host-speed reference taken around each timed unit of work.

    A shared host's speed drifts by tens of percent within a minute as
    co-tenants come and go.  Where the reference kernel is measured to
    slow down with the workload's own work (interpreter and small-array
    code run in units of well under a second), a unit's time is reported
    *calibrated*: scaled by ``REFERENCE_S`` over the mean of the reference
    times taken just before and just after it.  A unit on a slowed host
    then reads what it would on the calibration host.  Raw times are kept
    beside the calibrated ones.
    """

    #: The reference kernel's median time on the calibration host
    #: (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
    REFERENCE_S = 0.004

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def reading(self, ticks: int = 5) -> float:
        """The median of several ticks: a steadier reference for units
        of a third of a second or more (set-ups, cold simulations)."""
        return median([self.tick() for _ in range(ticks)])

    def scale(self, before: float, after: float) -> float:
        """Calibrated over raw time for work bracketed by two ticks."""
        return self.REFERENCE_S / ((before + after) / 2.0)

    def timed(self, fn, *args, **kwargs):
        """``(result, raw seconds, calibrated seconds)`` of one call."""
        before = self.tick()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        return result, raw, raw * self.scale(before, self.tick())


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name to its value; ``native`` carries the
    same numbers under the names the workload's own documentation uses.
    Every failed output check appends to ``failures``.
    """

    metrics: dict = field(default_factory=dict)
    native: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok


# ---- per-layer metrics ----------------------------------------------------

#: (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("cpu.sim_s", "s"),
    ("cpu.sims", "count"),
    ("cpu.kips", "1/s"),
    ("cpu.host_us_per_cycle", "us"),
    ("cpu.sim_s_p50.MPGdec", "s"),
    ("cpu.sim_s_p50.art", "s"),
    ("workloads.trace_s", "s"),
    ("sweep.sims_per_key", "ratio"),
    ("sweep.memo_hits", "count"),
    ("sweep.memo_misses", "count"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.decode_s", "s"),
    ("kernel.calls", "count"),
    ("kernel.s", "s"),
    ("kernel.candidates", "count"),
    ("kernel.width_mean", "count"),
    ("kernel.candidates_per_s", "1/s"),
    ("kernel.salvaged", "count"),
    ("ramp.s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.drm_arch.ms_p50", "ms"),
    ("oracle.drm_dvs.ms_p50", "ms"),
    ("oracle.drm_archdvs.ms_p50", "ms"),
    ("oracle.dtm.ms_p50", "ms"),
    ("oracle.joint.ms_p50", "ms"),
    ("oracle.intra.ms_p50", "ms"),
    ("serve.tier.memory", "count"),
    ("serve.tier.store", "count"),
    ("serve.tier.computed", "count"),
    ("serve.tier.deduped", "count"),
    ("serve.eval_memo_hit_ratio", "ratio"),
    ("serve.batcher.items_per_flush_mean", "count"),
    ("serve.batcher.wait_ms_p50", "ms"),
    ("serve.batcher.wait_ms_p99", "ms"),
    ("serve.worker.busy_frac", "ratio"),
    ("serve.computed_ms_p99", "ms"),
    ("serve.memory_ms_p50", "ms"),
    ("serve.max_rps_slo", "1/s"),
    ("serve.chip_writes", "count"),
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("http.overhead_ms_p50", "ms"),
    ("lifetime.closed_epochs_per_s", "1/s"),
    ("lifetime.open_epochs_per_s", "1/s"),
    ("lifetime.controller_s", "s"),
    ("lifetime.digest_calls", "count"),
    ("lifetime.digest_s", "s"),
    ("telemetry.appends", "count"),
    ("telemetry.append_s", "s"),
    ("adversary.evals", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Accepted range of ``trace.coverage``: spans must account for the
#: traced wall time to within 5 %.
COVERAGE_RANGE = (0.95, 1.05)


def _sum(spans, attr: str = "duration") -> float:
    return sum(getattr(s, attr) for s in spans)


def layer_metrics(tracer, *, wall_s: float, untraced_wall_s: float,
                  thread: int) -> dict:
    """Every per-layer metric the spans and counters give, zero where a
    layer did no work; the workload fills in the serve/loadgen/http
    numbers it measures itself."""
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    c = tracer.counters
    sims = tracer.by_name("cpu.sim")
    sim_s = _sum(sims)
    metrics["cpu.sim_s"] = sim_s
    metrics["cpu.sims"] = len(sims)
    if sim_s > 0.0:
        metrics["cpu.kips"] = c["cpu.instructions"] / sim_s / 1e3
    if c["cpu.cycles"]:
        metrics["cpu.host_us_per_cycle"] = sim_s / c["cpu.cycles"] * 1e6
    for app in ("MPGdec", "art"):
        metrics[f"cpu.sim_s_p50.{app}"] = median(
            [s.duration for s in sims if s.attrs.get("app") == app]
        )
    metrics["workloads.trace_s"] = _sum(tracer.by_name("workloads.trace"))
    if c["cpu.distinct_keys"]:
        metrics["sweep.sims_per_key"] = len(sims) / c["cpu.distinct_keys"]
    metrics["sweep.memo_hits"] = c["sweep.memo_hits"]
    metrics["sweep.memo_misses"] = c["sweep.simulated"] + c["sweep.store_reads"]
    puts = tracer.by_name("store.put")
    gets = tracer.by_name("store.get")
    metrics["store.puts"] = len(puts)
    metrics["store.put_s"] = _sum(puts)
    metrics["store.gets"] = len(gets)
    metrics["store.get_s"] = _sum(gets)
    metrics["store.decode_s"] = _sum(tracer.by_name("store.decode"))
    kernel = tracer.by_name("kernel.evaluate_batch")
    kernel_s = _sum(kernel, "self_s")
    metrics["kernel.calls"] = c["kernel.calls"]
    metrics["kernel.s"] = kernel_s
    metrics["kernel.candidates"] = c["kernel.candidates"]
    if c["kernel.calls"]:
        metrics["kernel.width_mean"] = c["kernel.candidates"] / c["kernel.calls"]
    if kernel_s > 0.0:
        metrics["kernel.candidates_per_s"] = c["kernel.candidates"] / kernel_s
    metrics["kernel.salvaged"] = c["kernel.salvaged"]
    metrics["ramp.s"] = _sum(tracer.by_name("ramp.fit_batch"), "self_s")
    oracle = [s for s in tracer.spans if s.name.startswith("oracle.")]
    metrics["oracle.self_s"] = _sum(oracle, "self_s")
    for kind in ("drm_arch", "drm_dvs", "drm_archdvs", "dtm", "joint", "intra"):
        metrics[f"oracle.{kind}.ms_p50"] = 1e3 * median(
            [s.duration for s in tracer.by_name(f"oracle.{kind}")]
        )
    metrics["serve.chip_writes"] = len(tracer.by_name("serve.chip_record"))
    closed = tracer.by_name("lifetime.simulate")
    if closed and _sum(closed) > 0.0:
        metrics["lifetime.closed_epochs_per_s"] = c["lifetime.closed_epochs"] / _sum(closed)
    opened = tracer.by_name("lifetime.open_loop")
    if opened and _sum(opened) > 0.0:
        metrics["lifetime.open_epochs_per_s"] = c["lifetime.open_epochs"] / _sum(opened)
    metrics["lifetime.controller_s"] = _sum(tracer.by_name("lifetime.controller"))
    digests = tracer.by_name("lifetime.digest")
    metrics["lifetime.digest_calls"] = len(digests)
    metrics["lifetime.digest_s"] = _sum(digests)
    appends = tracer.by_name("telemetry.append")
    metrics["telemetry.appends"] = len(appends)
    metrics["telemetry.append_s"] = _sum(appends)
    metrics["adversary.evals"] = c["adversary.evals"]
    metrics["trace.coverage"] = tracer.coverage(thread, wall_s)
    if untraced_wall_s > 0.0:
        metrics["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0
    return metrics
