"""``lifetime_redteam``: a closed-loop 30-year mission, open-loop folds and
an adversarial schedule search.

Set-up qualifies RAMP at T_qual = 380 K and fills the rate table for
MPGdec, gzip and art at 3, 4 and 5 GHz, so the timed phase is the
lifetime layer alone: a 30-year, 24 h-epoch mission under the
``WearAwareController`` checkpointing to a fresh telemetry root, then
open-loop folds of seeded 30-year schedules, then seeded
``AdversarySearch.search`` runs with a fixed budget.  The run repeats
such cycles for the requested seconds.
"""

from __future__ import annotations

import random
import threading
import time

from repro import DRMOracle, SimulationCache, workload_by_name
from repro.config.microarch import BASE_MICROARCH
from repro.core.controllers import WearAwareController
from repro.lifetime import AdversarySearch, LifetimeSimulator
from repro.workloads import generator

from common import Calibrator, Outcome, digest, layer_metrics, load_expected, median, percentile
from spans import Tracer, install

APPS = ("MPGdec", "gzip", "art")
FREQUENCIES = (3.0e9, 4.0e9, 5.0e9)
T_QUAL_K = 380.0
EPOCH_HOURS = 24.0
HOURS_PER_YEAR = 8760.0
MISSION_YEARS = 30.0
N_EPOCHS = int(MISSION_YEARS * HOURS_PER_YEAR / EPOCH_HOURS)
#: The closed-loop mission is one fixed input, so its final wear has a
#: committed digest; the seed drives the folds and the adversary.
MISSION_SEED = 7
FOLDS_PER_CYCLE = 20
SEARCHES_PER_CYCLE = 3
SEARCH_EPOCHS = 64
SEARCH_BUDGET = {"n_random": 20, "greedy_passes": 1, "anneal_steps": 8_000}
DECISIONS_PER_TICK = 365
#: The red-team gate: the adversary must beat the random baseline by 25 %.
MIN_IMPROVEMENT = 0.25

SETUP_REPEATS = 3


def setup(work, seed):
    """Qualify RAMP and evaluate every (app, frequency) rate-table cell."""
    cache = SimulationCache(instructions=4_000, warmup=1_000)
    oracle = DRMOracle(
        cache=cache, suite=tuple(workload_by_name(a) for a in APPS), dvs_steps=11
    )
    ramp = oracle.ramp_for(T_QUAL_K)
    state = {"work": work, "oracle": oracle, "ramp": ramp, "cycles": 0}
    simulator = _simulator(state, telemetry_root=None)
    for app in APPS:
        for frequency in FREQUENCIES:
            simulator.rate_table.rates_for(app, BASE_MICROARCH, frequency)
    state["rate_table"] = simulator.rate_table
    return state


def _simulator(state, telemetry_root):
    oracle = state["oracle"]
    simulator = LifetimeSimulator(
        platform=oracle.platform,
        cache=oracle.cache,
        ramp=state["ramp"],
        telemetry_root=telemetry_root,
        dvs_steps=11,
    )
    if "rate_table" in state:
        simulator.rate_table = state["rate_table"]
    return simulator


def _controller(state):
    return WearAwareController(state["oracle"].platform, state["ramp"])


class _TickingController(WearAwareController):
    """The mission's controller, ticking the calibrator every
    ``DECISIONS_PER_TICK`` decisions, so the multi-second mission is
    timed as short segments, each bracketed by the ticks at its ends and
    each tick left out of the segments."""

    def __init__(self, state, calibrator) -> None:
        super().__init__(state["oracle"].platform, state["ramp"])
        self.calibrator = calibrator
        self.decisions = 0
        self.segments: list[tuple[float, float]] = []
        self._last_tick = calibrator.tick()
        self._mark = time.perf_counter()

    def decide(self, *args, **kwargs):
        self.decisions += 1
        if self.decisions % DECISIONS_PER_TICK == 0:
            self.end_segment()
        return super().decide(*args, **kwargs)

    def end_segment(self) -> None:
        raw = time.perf_counter() - self._mark
        after = self.calibrator.tick()
        self.segments.append((raw, raw * self.calibrator.scale(self._last_tick, after)))
        self._last_tick = after
        self._mark = time.perf_counter()


def mission():
    return generator.random_mission(
        apps=APPS, frequencies=FREQUENCIES, n_epochs=N_EPOCHS,
        epoch_hours=EPOCH_HOURS, seed=MISSION_SEED,
    )


def wear_digest(result) -> str:
    return digest({
        "wear": result.state.as_payload(),
        "end_of_life": result.end_of_life,
        "sheds": list(result.sheds),
        "swaps": list(result.swaps),
    })


def expected_digests() -> dict:
    """The committed expectation: the closed-loop mission's final wear."""
    from common import make_work_dir

    state = setup(make_work_dir("expected-lifetime"), 0)
    simulator = _simulator(state, telemetry_root=None)
    result = simulator.simulate(mission(), controller=_controller(state))
    return {"closed_loop_wear": wear_digest(result)}


def _timed(calibrator, fn, *args, **kwargs):
    """``(result, raw seconds, calibrated seconds)``; without a
    calibrator there are no ticks and calibrated equals raw."""
    if calibrator is not None:
        return calibrator.timed(fn, *args, **kwargs)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - start
    return result, raw, raw


def _cycle(state, schedule, rng, calibrator=None):
    """One mission, the folds and the searches; timings and results.
    With a calibrator, each fold and search is bracketed by reference
    ticks and also timed in calibrated seconds (``*_cal_s``), and so is
    the mission, in segments.  Without one (the traced run) nothing
    ticks, and ``wall_s`` is the whole cycle: schedule generation and
    search set-up included."""
    start = time.perf_counter()
    state["cycles"] += 1
    telemetry = state["work"] / f"telemetry-{state['cycles']}"
    simulator = _simulator(state, telemetry_root=telemetry)
    folds = [
        generator.random_mission(apps=APPS, frequencies=FREQUENCIES, n_epochs=N_EPOCHS,
                                 epoch_hours=EPOCH_HOURS, seed=rng.randrange(2**31))
        for _ in range(FOLDS_PER_CYCLE)
    ]
    searches = [
        AdversarySearch(
            simulator, apps=APPS, frequencies=FREQUENCIES, n_epochs=SEARCH_EPOCHS,
            epoch_hours=EPOCH_HOURS, seed=rng.randrange(2**31),
        )
        for _ in range(SEARCHES_PER_CYCLE)
    ]
    if calibrator is not None:
        controller = _TickingController(state, calibrator)
        closed = simulator.simulate(schedule, controller=controller)
        controller.end_segment()
        mission_s = sum(raw for raw, _ in controller.segments)
        mission_cal_s = sum(cal for _, cal in controller.segments)
    else:
        closed, mission_s, mission_cal_s = _timed(
            None, simulator.simulate, schedule, controller=_controller(state)
        )
    fold_states, fold_s, fold_cal_s = [], [], []
    for fold in folds:
        folded, raw, cal = _timed(calibrator, simulator.open_loop, fold)
        fold_states.append(folded)
        fold_s.append(raw)
        fold_cal_s.append(cal)
    found, search_s, search_cal_s = [], [], []
    for search in searches:
        result, raw, cal = _timed(calibrator, search.search, **SEARCH_BUDGET)
        found.append(result)
        search_s.append(raw)
        search_cal_s.append(cal)
    return {
        "closed": closed, "mission_s": mission_s, "mission_cal_s": mission_cal_s,
        "folds": folds, "fold_states": fold_states,
        "fold_s": fold_s, "fold_cal_s": fold_cal_s,
        "found": found, "search_s": search_s, "search_cal_s": search_cal_s,
        "wall_s": time.perf_counter() - start,
    }


def _check(outcome, state, cycle, expected):
    simulator = _simulator(state, telemetry_root=None)
    outcome.attempted += 2 + 2 * len(cycle["found"])
    outcome.check(
        wear_digest(cycle["closed"]) == expected["closed_loop_wear"],
        "closed-loop mission final wear digest",
    )
    # Folding A + B equals folding A then B, bitwise.
    fold, folded = cycle["folds"][0], cycle["fold_states"][0]
    head, tail = fold.split(fold.n_epochs // 2)
    again = simulator.open_loop(tail, simulator.open_loop(head))
    outcome.check(
        again.as_payload() == folded.as_payload(),
        "open-loop fold is not split-additive",
    )
    for found in cycle["found"]:
        outcome.check(
            found.improvement >= MIN_IMPROVEMENT,
            f"adversary improvement {found.improvement:.3f} below {MIN_IMPROVEMENT}",
        )
        controller = _controller(state)
        defended = simulator.simulate(found.best_schedule, controller=controller)
        budget = controller.target_damage_rate * defended.state.hours
        outcome.check(
            not defended.end_of_life and defended.state.total <= budget,
            "controller did not survive the adversary's schedule",
        )


def measure(state, seconds, seed):
    outcome = Outcome()
    expected = load_expected("lifetime_redteam")
    rng = random.Random(seed)
    calibrator = Calibrator()
    schedule = mission()
    # Keep only each cycle's numbers, so the peak RSS does not grow with
    # the number of cycles that fit in ``seconds``.
    cycles = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle = _cycle(state, schedule, rng, calibrator)
        _check(outcome, state, cycle, expected)
        cycles.append({
            "mission_s": cycle["mission_s"],
            "mission_cal_s": cycle["mission_cal_s"],
            "fold_s": cycle["fold_s"],
            "fold_cal_s": cycle["fold_cal_s"],
            "evals": [found.evaluations for found in cycle["found"]],
            "improvement": min(found.improvement for found in cycle["found"]),
            "search_s": cycle["search_s"],
            "search_cal_s": cycle["search_cal_s"],
        })
        del cycle

    def rates(key):
        return [n / s for c in cycles for n, s in zip(c["evals"], c[key])]

    mission_s = median([c["mission_cal_s"] for c in cycles])
    fold_ms = [1e3 * s for c in cycles for s in c["fold_cal_s"]]
    outcome.metrics = {
        "wall_s": mission_s,
        "throughput_per_s": median(rates("search_cal_s")),
        "latency_ms": median(fold_ms),
        # The upper quartile: the highest percentile with ten folds
        # beyond it in a two-cycle run.
        "tail_latency_ms": percentile(fold_ms, 0.75),
    }
    raw_fold_ms = [1e3 * s for c in cycles for s in c["fold_s"]]
    outcome.native = {
        "cycles": len(cycles),
        "lifetime_years_per_s": MISSION_YEARS / mission_s,
        "adversary_evals_per_s": outcome.metrics["throughput_per_s"],
        "adversary_improvement_min": min(c["improvement"] for c in cycles),
        "raw_mission_s": median([c["mission_s"] for c in cycles]),
        "raw_adversary_evals_per_s": median(rates("search_s")),
        "raw_fold_ms_p50": median(raw_fold_ms),
        "raw_fold_ms_p75": percentile(raw_fold_ms, 0.75),
        "reference_ms_p50": 1e3 * median(calibrator.samples),
    }
    return outcome


def traced(state, seed, seconds):
    outcome = Outcome()
    expected = load_expected("lifetime_redteam")
    schedule = mission()
    cycle = _cycle(state, schedule, random.Random(seed))
    _check(outcome, state, cycle, expected)
    tracer = Tracer()
    patches = install(tracer)
    try:
        traced_cycle = _cycle(state, schedule, random.Random(seed))
    finally:
        patches.undo()
    _check(outcome, state, traced_cycle, expected)
    outcome.metrics = layer_metrics(
        tracer, wall_s=traced_cycle["wall_s"], untraced_wall_s=cycle["wall_s"],
        thread=threading.get_ident(),
    )
    outcome.meta["tracer"] = tracer
    return outcome
