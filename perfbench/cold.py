"""``cold_archdvs``: ArchDVS decisions from an empty simulation store.

Eight DRM decisions — MPGdec and art at the Fig 2 qualification points
— with the default simulation budget and an empty store, so the 36
cycle-level simulations (2 apps x 18 microarchitectures) run inside the
timed region, serially.  The simulator dominates; the store is written.
"""

from __future__ import annotations

import random
import threading
import time

from repro import (
    AdaptationMode,
    DRMOracle,
    SimulationCache,
    arch_adaptation_space,
    workload_by_name,
)
from repro.config.microarch import BASE_MICROARCH
from repro.engine.store import encode_workload_run
from repro.serve import encode_decision

from common import Calibrator, Outcome, digest, layer_metrics, load_expected, median
from spans import Tracer, install

APPS = ("MPGdec", "art")
T_QUALS = (400.0, 370.0, 345.0, 325.0)
DVS_STEPS = 11
N_SIMS = 36

SETUP_REPEATS = 3


def setup(work, seed):
    """An empty store directory; the cold pass creates the rest."""
    return {"work": work, "passes": 0}


def _order(seed):
    cells = [(app, t) for app in APPS for t in T_QUALS]
    random.Random(seed).shuffle(cells)
    return cells


class _TickingCache(SimulationCache):
    """A simulation cache that takes a calibrator reading after every
    simulation it runs (a store write), so each one is bracketed by the
    reading before it and the reading after it, and records ``(app,
    instructions, raw seconds, calibrated seconds)`` for it."""

    def __init__(self, calibrator, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calibrator = calibrator
        self.last_reading = 0.0
        self.sims: list[tuple[str, int, float, float]] = []

    def run(self, profile, config=BASE_MICROARCH):
        writes = self.store.stats.writes
        start = time.perf_counter()
        run = super().run(profile, config)
        raw = time.perf_counter() - start
        if self.store.stats.writes != writes:
            after = self.calibrator.reading()
            calibrated = raw * self.calibrator.scale(self.last_reading, after)
            self.sims.append((profile.name, run.instructions, raw, calibrated))
            self.last_reading = after
        return run


def _cold_pass(state, seed, calibrator=None):
    """One cold pass on a fresh store: per-decision ``(app, raw seconds,
    calibrated seconds)`` and the results.  With a calibrator, each
    simulation is calibrated on its own; the rest of a decision (its
    evaluation and selection, tens of milliseconds) is counted raw, and
    the readings themselves are left out of both."""
    state["passes"] += 1
    store = state["work"] / f"store-{state['passes']}"
    if calibrator is None:
        cache = SimulationCache(disk_dir=store)
    else:
        cache = _TickingCache(calibrator, disk_dir=store)
    oracle = DRMOracle(
        cache=cache,
        suite=tuple(workload_by_name(a) for a in APPS),
        dvs_steps=DVS_STEPS,
    )
    timings = []
    decisions = {}
    for app, t_qual in _order(seed):
        if calibrator is not None:
            cache.last_reading = calibrator.reading()
            ticks, sims = len(calibrator.samples), len(cache.sims)
        t0 = time.perf_counter()
        decisions[(app, t_qual)] = oracle.best(
            workload_by_name(app), t_qual_k=t_qual, mode=AdaptationMode.ARCHDVS
        )
        raw = time.perf_counter() - t0
        calibrated = raw
        if calibrator is not None:
            raw -= sum(calibrator.samples[ticks:])
            sim_raw = sum(r for _, _, r, _ in cache.sims[sims:])
            sim_cal = sum(c for _, _, _, c in cache.sims[sims:])
            calibrated = raw - sim_raw + sim_cal
        timings.append((app, raw, calibrated))
    return timings, decisions, oracle


def digests(decisions, oracle):
    """Digests of the 36 workload runs and the 8 decisions of a pass."""
    run_digests = {
        f"{app}|{config.describe()}": digest(
            encode_workload_run(oracle.cache.run(workload_by_name(app), config))
        )
        for app in APPS
        for config in arch_adaptation_space()
    }
    decision_digests = {
        f"{app}|{t_qual:g}": digest(encode_decision("drm", decision))
        for (app, t_qual), decision in decisions.items()
    }
    return run_digests, decision_digests


def _check(outcome, decisions, oracle):
    """Compare the pass's runs and decisions with the committed digests,
    and confirm from the store's counters that the pass was cold: every
    simulation written once, nothing read back."""
    expected = load_expected("cold_archdvs")
    stats = oracle.cache.store.stats
    outcome.check(
        stats.writes == N_SIMS and stats.hits == 0,
        f"cold pass wrote {stats.writes} runs (want {N_SIMS}) "
        f"and read {stats.hits} store hits (want 0)",
    )
    run_digests, decision_digests = digests(decisions, oracle)
    outcome.attempted += 1 + len(run_digests) + len(decision_digests)
    for key, value in sorted(run_digests.items()):
        outcome.check(expected["runs"].get(key) == value, f"run {key} digest")
    for key, value in sorted(decision_digests.items()):
        outcome.check(expected["decisions"].get(key) == value, f"decision {key} digest")


def _isolation_guard(outcome, tracer):
    """The traced pass must be cold too: 36 simulations, no store hits."""
    sims = len(tracer.by_name("cpu.sim"))
    outcome.check(sims == N_SIMS, f"cold pass simulated {sims} times, not {N_SIMS}")
    hits = tracer.counters["store.hits"]
    outcome.check(hits == 0, f"cold pass read {hits} store hits")


def measure(state, seconds, seed):
    outcome = Outcome()
    calibrator = Calibrator()
    walls, raw_walls, sims = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        timings, decisions, oracle = _cold_pass(state, seed, calibrator)
        walls.append(sum(cal for _, _, cal in timings))
        raw_walls.append(sum(raw for _, raw, _ in timings))
        sims.extend(oracle.cache.sims)
        _check(outcome, decisions, oracle)
    cold_wall = median(walls)

    def sim_ms(app):
        return 1e3 * median([cal for name, _, _, cal in sims if name == app])

    # The pass is ~99% simulation, so the other three figures are taken
    # from the simulations alone: the simulator's speed, and the typical
    # simulation of each app (MPGdec has high IPC, art is memory-bound,
    # so a simulator change can move them differently).
    outcome.metrics = {
        "wall_s": cold_wall,
        "throughput_per_s": sum(n for _, n, _, _ in sims) / sum(cal for *_, cal in sims),
        "latency_ms": sim_ms("MPGdec"),
        "tail_latency_ms": sim_ms("art"),
    }
    outcome.native = {
        "cold_wall_s": cold_wall,
        "cold_passes": len(walls),
        "raw_cold_wall_s": median(raw_walls),
        "instructions_per_sim_s": outcome.metrics["throughput_per_s"],
        "sim_ms_p50_MPGdec": outcome.metrics["latency_ms"],
        "sim_ms_p50_art": outcome.metrics["tail_latency_ms"],
        "reference_ms_p50": 1e3 * median(calibrator.samples),
    }
    return outcome


def _timed_pass(state, seed):
    """A pass timed as a whole, cache and oracle construction included."""
    start = time.perf_counter()
    _, decisions, oracle = _cold_pass(state, seed)
    return decisions, oracle, time.perf_counter() - start


def traced(state, seed, seconds):
    outcome = Outcome()
    decisions, oracle, untraced_wall = _timed_pass(state, seed)
    _check(outcome, decisions, oracle)
    tracer = Tracer()
    patches = install(tracer)
    try:
        decisions, oracle, wall_s = _timed_pass(state, seed)
    finally:
        patches.undo()
    _isolation_guard(outcome, tracer)
    _check(outcome, decisions, oracle)
    outcome.metrics = layer_metrics(
        tracer, wall_s=wall_s, untraced_wall_s=untraced_wall,
        thread=threading.get_ident(),
    )
    outcome.meta["tracer"] = tracer
    return outcome
