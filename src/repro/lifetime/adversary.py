"""Seeded red-team search for wear-maximizing mission schedules.

"Targeted Wearout Attacks in Microprocessor Cores" (PAPERS.md) shows
that hostile schedules can concentrate wear far beyond what random
workloads inflict.  :class:`AdversarySearch` hunts for such schedules
over the mission space (which application runs, at which requested
frequency, per epoch) with three stacked strategies:

1. **random population** — seeded uniform missions; their mean wear is
   the *baseline* the attack is measured against;
2. **greedy coordinate ascent** — epoch-by-epoch exhaustive swaps from
   the best random schedule;
3. **simulated annealing** — Metropolis-accepted single-epoch mutations
   with a geometrically decaying temperature, to hop out of greedy's
   local optima.

Every evaluation is *exact* but incremental: a schedule's wear is a
linear fold of per-epoch rate matrices (open loop), so mutating one
epoch updates the summed ``(mechanisms, structures)`` damage matrix with
one ``±rate·hours`` delta instead of re-folding the whole mission.  The
whole search is a pure function of its seed.

The found schedule is the *survival gate*: the CI ``lifetime`` job (and
``tests/test_lifetime_adversary.py``) asserts both that the adversary
beats the random baseline by ≥25 % accrued wear and that the
:class:`~repro.core.controllers.WearAwareController` keeps the chip
within its lifetime target while running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import LifetimeError
from repro.kernels.wear import accrue
from repro.lifetime.simulator import LifetimeSimulator
from repro.workloads.generator import MissionEpoch, MissionSchedule, random_mission

#: Damage objectives the search can maximise: total Miner's-rule damage
#: across every (mechanism, structure) cell, or the single most-worn
#: cell (the targeted-attack shape).
OBJECTIVES = ("total", "peak")


@dataclass(frozen=True)
class AdversaryResult:
    """Outcome of one adversarial search.

    Attributes:
        baseline_wear: mean objective over the seeded-random population.
        best_wear: objective of the best schedule found.
        best_schedule: the wear-maximizing schedule itself.
        evaluations: schedules evaluated across all strategies.
        history: ``(strategy, objective)`` milestones, in search order.
    """

    baseline_wear: float
    best_wear: float
    best_schedule: MissionSchedule
    evaluations: int
    history: tuple[tuple[str, float], ...]

    @property
    def improvement(self) -> float:
        """Fractional wear gain over the random baseline (0.25 = +25 %)."""
        return self.best_wear / self.baseline_wear - 1.0


class _IncrementalEval:
    """Exact, delta-updated objective for one mutable schedule.

    Keeps the summed ``(M, S)`` damage matrix of the current epoch list;
    replacing epoch ``i`` costs two rate lookups and one elementwise
    update.  The objective is recomputed from the matrix, so ``peak`` is
    exact too (a max cannot be delta-updated, but the matrix can).
    """

    def __init__(self, search: "AdversarySearch", epochs: list[MissionEpoch]) -> None:
        self.search = search
        self.epochs = epochs
        rates = np.stack([search._rate_for(epoch) for epoch in epochs])
        self.matrix = accrue(
            np.zeros(rates.shape[1:]), rates, [epoch.hours for epoch in epochs]
        )

    def objective(self) -> float:
        if self.search.objective == "peak":
            return float(self.matrix.max())
        return float(self.matrix.sum())

    def replace(self, index: int, epoch: MissionEpoch) -> float:
        """Swap epoch ``index`` in and return the new objective."""
        old = self.epochs[index]
        self.matrix = (
            self.matrix
            - self.search._rate_for(old) * old.hours
            + self.search._rate_for(epoch) * epoch.hours
        )
        self.epochs[index] = epoch
        return self.objective()

    def schedule(self) -> MissionSchedule:
        return MissionSchedule(tuple(self.epochs))


class AdversarySearch:
    """Hunts wear-maximizing schedules over a fixed mission shape.

    Args:
        simulator: provides the rate table (physics is shared with the
            defence — the adversary attacks the same model the
            controller defends).
        apps: applications the adversary may schedule.
        frequencies: requested frequencies it may pick (typically the
            DVS grid; the controller is free to override downward).
        n_epochs: mission length in epochs.
        epoch_hours: hours per epoch.
        seed: root of the whole search; same seed, same attack.
        objective: ``"total"`` or ``"peak"`` (see :data:`OBJECTIVES`).
    """

    def __init__(
        self,
        simulator: LifetimeSimulator,
        *,
        apps: Sequence[str],
        frequencies: Sequence[float],
        n_epochs: int,
        epoch_hours: float,
        seed: int = 0,
        objective: str = "total",
    ) -> None:
        if objective not in OBJECTIVES:
            raise LifetimeError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        if not apps or not frequencies:
            raise LifetimeError("need at least one app and one frequency")
        if n_epochs <= 0 or epoch_hours <= 0.0:
            raise LifetimeError("need positive n_epochs and epoch_hours")
        self.simulator = simulator
        self.apps = tuple(str(a) for a in apps)
        self.frequencies = tuple(float(f) for f in frequencies)
        self.n_epochs = n_epochs
        self.epoch_hours = epoch_hours
        self.seed = seed
        self.objective = objective
        self.evaluations = 0

    # ---- physics lookups ----------------------------------------------

    def _rate_for(self, epoch: MissionEpoch) -> np.ndarray:
        return self.simulator.rate_table.rates_for(
            epoch.app, self.simulator.base_config, epoch.frequency_hz
        )

    def prewarm(self) -> None:
        """Evaluate every (app, frequency) cell once up front, so the
        search loop is pure numpy arithmetic."""
        for app in self.apps:
            for freq in self.frequencies:
                self._rate_for(MissionEpoch(app, freq, self.epoch_hours))

    def _score(self, schedule: MissionSchedule) -> float:
        self.evaluations += 1
        state = self.simulator.open_loop(schedule)
        return state.peak if self.objective == "peak" else state.total

    # ---- the search ----------------------------------------------------

    def search(
        self,
        *,
        n_random: int = 12,
        greedy_passes: int = 1,
        anneal_steps: int = 200,
        temperature: float = 0.05,
    ) -> AdversaryResult:
        """Run random → greedy → annealed search and return the best.

        Args:
            n_random: population size for the baseline phase.
            greedy_passes: full coordinate-ascent sweeps over the epochs.
            anneal_steps: Metropolis mutation steps.
            temperature: initial acceptance temperature, as a fraction
                of the incumbent objective (decays geometrically to 1 %
                of its starting value by the final step).

        Raises:
            LifetimeError: on non-positive search budgets.
        """
        if n_random <= 0:
            raise LifetimeError("need a positive random population")
        if greedy_passes < 0 or anneal_steps < 0:
            raise LifetimeError("search budgets must be non-negative")
        self.prewarm()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xADE2]))
        history: list[tuple[str, float]] = []

        # Phase 1: seeded random population; its mean is the baseline.
        population = [
            random_mission(
                apps=self.apps,
                frequencies=self.frequencies,
                n_epochs=self.n_epochs,
                epoch_hours=self.epoch_hours,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            for _ in range(n_random)
        ]
        scores = [self._score(schedule) for schedule in population]
        baseline = float(np.mean(scores))
        best_index = int(np.argmax(scores))
        incumbent = _IncrementalEval(self, list(population[best_index].epochs))
        best = float(scores[best_index])
        history.append(("random", best))

        # Phase 2: greedy coordinate ascent — exhaustive single-epoch
        # swaps, epoch by epoch, keeping any strict improvement.
        choices = [
            MissionEpoch(app, freq, self.epoch_hours)
            for app in self.apps
            for freq in self.frequencies
        ]
        for _ in range(greedy_passes):
            for index in range(self.n_epochs):
                original = incumbent.epochs[index]
                chosen = original
                for candidate in choices:
                    self.evaluations += 1
                    score = incumbent.replace(index, candidate)
                    if score > best:
                        best = score
                        chosen = candidate
                incumbent.replace(index, chosen)
        history.append(("greedy", best))

        # Phase 3: simulated annealing from the greedy incumbent.  The
        # walker may go downhill; ``best``/``best_epochs`` track the
        # high-water mark separately.
        best_epochs = list(incumbent.epochs)
        current = incumbent.objective()
        t0 = max(temperature * max(current, 1e-300), 1e-300)
        decay = 0.01 ** (1.0 / max(anneal_steps, 1))
        t = t0
        for _ in range(anneal_steps):
            index = int(rng.integers(0, self.n_epochs))
            mutant = choices[int(rng.integers(0, len(choices)))]
            previous = incumbent.epochs[index]
            self.evaluations += 1
            score = incumbent.replace(index, mutant)
            delta = score - current
            if delta >= 0.0 or rng.random() < math.exp(delta / t):
                current = score
                if score > best:
                    best = score
                    best_epochs = list(incumbent.epochs)
            else:
                incumbent.replace(index, previous)
            t *= decay
        history.append(("anneal", best))

        return AdversaryResult(
            baseline_wear=baseline,
            best_wear=best,
            best_schedule=MissionSchedule(tuple(best_epochs)),
            evaluations=self.evaluations,
            history=tuple(history),
        )
