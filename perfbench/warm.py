"""``warm_oracles``: every oracle kind over a fine T_qual grid, simulations
already in the store.

Set-up simulates MPGdec, gzip and art on all 18 microarchitectures into
a fresh store at a reduced budget (the power/thermal and RAMP cost does
not depend on the instruction count).  The timed phase repeats passes;
each pass opens the store with a fresh simulation cache and oracles
several times (runs are decoded, never simulated), then asks DRM
Arch/DVS/ArchDVS, DTM, Joint and intra-application (greedy) for a seeded
sample of (app, T_qual) cells, with T_limit = T_qual - 15 K.
"""

from __future__ import annotations

import random
import threading
import time

from repro import (
    AdaptationMode,
    DRMOracle,
    Platform,
    SimulationCache,
    arch_adaptation_space,
    workload_by_name,
)
from repro.core.combined import JointOracle
from repro.core.dtm import DTMOracle
from repro.core.intra import IntraAppOracle
from repro.serve import encode_decision

from common import Calibrator, Outcome, digest, layer_metrics, load_expected, median, percentile
from spans import Tracer, install

APPS = ("MPGdec", "gzip", "art")
INSTRUCTIONS = 4_000
WARMUP = 1_000
DVS_STEPS = 11
#: The T_qual universe: 340-380 K on a 0.5 K grid.
T_QUAL_GRID = tuple(340.0 + 0.5 * i for i in range(81))
T_LIMIT_OFFSET_K = 15.0
#: (app, T_qual) cells per pass; each cell asks all six kinds.
CELLS_PER_PASS = 24
MIN_ARCHDVS = 100
#: Store opens per pass; an open takes tens of milliseconds, so several
#: a pass give its median enough samples.
OPENS_PER_PASS = 5
KINDS = ("drm_arch", "drm_dvs", "drm_archdvs", "dtm", "joint", "intra")

SETUP_REPEATS = 3


def setup(work, seed):
    """Simulate the 54 (app, config) runs into a fresh store."""
    cache = SimulationCache(instructions=INSTRUCTIONS, warmup=WARMUP, disk_dir=work)
    for app in APPS:
        for config in arch_adaptation_space():
            cache.run(workload_by_name(app), config)
    return {"store": work}


class Oracles:
    """A fresh cache on the store plus one of each oracle over it."""

    def __init__(self, store) -> None:
        self.cache = SimulationCache(
            instructions=INSTRUCTIONS, warmup=WARMUP, disk_dir=store
        )
        platform = Platform()
        self.drm = DRMOracle(
            platform=platform,
            cache=self.cache,
            dvs_steps=DVS_STEPS,
            suite=tuple(workload_by_name(a) for a in APPS),
        )
        self.dtm = DTMOracle(platform=platform, cache=self.cache, dvs_steps=DVS_STEPS)
        self.joint = JointOracle(
            self.drm.ramp_for, platform=platform, cache=self.cache, dvs_steps=DVS_STEPS
        )
        self.intra = IntraAppOracle(self.drm.ramp_for, platform=platform, cache=self.cache)

    def decide(self, kind: str, app: str, t_qual: float):
        profile = workload_by_name(app)
        t_limit = t_qual - T_LIMIT_OFFSET_K
        if kind.startswith("drm_"):
            mode = AdaptationMode(kind[len("drm_"):])
            return self.drm.best(profile, t_qual_k=t_qual, mode=mode)
        if kind == "dtm":
            return self.dtm.best(profile, t_limit_k=t_limit)
        if kind == "joint":
            return self.joint.best(profile, t_qual_k=t_qual, t_limit_k=t_limit)
        return self.intra.best(profile, t_qual_k=t_qual, strategy="greedy")


def decision_key(kind: str, app: str, t_qual: float) -> str:
    return f"{kind}|{app}|{t_qual:g}"


def decision_digest(kind: str, decision) -> str:
    return digest(encode_decision(kind.split("_", 1)[0], decision))


def _cells(rng):
    return [(app, t) for app, t in rng.sample(
        [(a, t) for a in APPS for t in T_QUAL_GRID], CELLS_PER_PASS
    )]


def open_store(store) -> Oracles:
    """A fresh cache and oracles on the store, with every run loaded."""
    oracles = Oracles(store)
    for app in APPS:
        for config in arch_adaptation_space():
            oracles.cache.run(workload_by_name(app), config)
    return oracles


def _pass(store, cells, calibrator=None):
    """Open the store ``OPENS_PER_PASS`` times, then ask every kind for
    every cell on the last open.  Returns each open's ``(raw seconds,
    calibrated seconds)``, per-decision ``(kind, raw seconds, calibrated
    seconds)``, the decisions and the oracles.  With a calibrator, each
    open and each cell is bracketed by reference ticks (outside the
    timings) that calibrate it; without one, calibrated equals raw."""
    after = calibrator.tick() if calibrator is not None else None
    opened = []
    for _ in range(OPENS_PER_PASS):
        before = after
        start = time.perf_counter()
        oracles = open_store(store)
        open_s = time.perf_counter() - start
        after = calibrator.tick() if calibrator is not None else None
        scale = calibrator.scale(before, after) if calibrator is not None else 1.0
        opened.append((open_s, open_s * scale))
    timings, decisions = [], {}
    for app, t_qual in cells:
        before = after
        cell = []
        for kind in KINDS:
            t0 = time.perf_counter()
            decision = oracles.decide(kind, app, t_qual)
            cell.append((kind, time.perf_counter() - t0))
            decisions[decision_key(kind, app, t_qual)] = (kind, decision)
        after = calibrator.tick() if calibrator is not None else None
        scale = calibrator.scale(before, after) if calibrator is not None else 1.0
        timings.extend((kind, raw, raw * scale) for kind, raw in cell)
    return opened, timings, decisions, oracles


def _check(outcome, decisions, oracles, expected):
    stats = oracles.cache.store.stats
    outcome.attempted += 1 + len(decisions)
    outcome.check(
        stats.writes == 0, f"warm pass simulated {stats.writes} runs (want 0)"
    )
    for key, (kind, decision) in decisions.items():
        outcome.check(
            expected.get(key) == decision_digest(kind, decision),
            f"decision {key} digest",
        )


def measure(state, seconds, seed):
    """Passes until ``seconds`` have gone and enough ArchDVS ran."""
    outcome = Outcome()
    expected = load_expected("warm_oracles")
    rng = random.Random(seed)
    calibrator = Calibrator()
    opens, passes, timings = [], [], []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or sum(1 for k, _, _ in timings if k == "drm_archdvs") < MIN_ARCHDVS
    ):
        opened, pass_timings, decisions, oracles = _pass(
            state["store"], _cells(rng), calibrator
        )
        opens.extend(opened)
        passes.append(pass_timings)
        timings.extend(pass_timings)
        _check(outcome, decisions, oracles, expected)
    pass_s = median([sum(cal for _, _, cal in p) for p in passes])
    archdvs = [cal for k, _, cal in timings if k == "drm_archdvs"]
    # Every pass asks the same number of questions, so the median pass
    # gives the rate; a burst of host noise moves one pass, not the median.
    outcome.metrics = {
        "wall_s": median([cal for _, cal in opens]),
        "throughput_per_s": CELLS_PER_PASS * len(KINDS) / pass_s,
        "latency_ms": 1e3 * median(archdvs),
        "tail_latency_ms": 1e3 * percentile(archdvs, 0.9),
    }
    raw_pass_s = median([sum(raw for _, raw, _ in p) for p in passes])
    raw_archdvs = [raw for k, raw, _ in timings if k == "drm_archdvs"]
    outcome.native = {
        "passes": len(passes),
        "archdvs_decisions": len(archdvs),
        "store_open_s": outcome.metrics["wall_s"],
        "decisions_per_s": outcome.metrics["throughput_per_s"],
        "archdvs_ms_p50": outcome.metrics["latency_ms"],
        "archdvs_ms_p90": outcome.metrics["tail_latency_ms"],
        "raw_store_open_s": median([raw for raw, _ in opens]),
        "raw_pass_s": raw_pass_s,
        "raw_archdvs_ms_p50": 1e3 * median(raw_archdvs),
        "raw_archdvs_ms_p90": 1e3 * percentile(raw_archdvs, 0.9),
        "reference_ms_p50": 1e3 * median(calibrator.samples),
    }
    return outcome


def traced(state, seed, seconds):
    outcome = Outcome()
    expected = load_expected("warm_oracles")
    cells = _cells(random.Random(seed))
    start = time.perf_counter()
    _, _, decisions, oracles = _pass(state["store"], cells)
    untraced_wall = time.perf_counter() - start
    _check(outcome, decisions, oracles, expected)
    tracer = Tracer()
    patches = install(tracer)
    try:
        start = time.perf_counter()
        _, _, decisions, oracles = _pass(state["store"], cells)
        wall_s = time.perf_counter() - start
    finally:
        patches.undo()
    _check(outcome, decisions, oracles, expected)
    sims = len(tracer.by_name("cpu.sim"))
    outcome.attempted += 1
    outcome.check(sims == 0, f"warm pass simulated {sims} times (want 0)")
    outcome.metrics = layer_metrics(
        tracer, wall_s=wall_s, untraced_wall_s=untraced_wall,
        thread=threading.get_ident(),
    )
    outcome.meta["tracer"] = tracer
    return outcome
