"""Tests for the simulation cache and the report formatters."""

import sys
import threading
import time

import pytest

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.simulator import CycleSimulator
from repro.errors import ReproError
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import SimulationCache
from repro.workloads.suite import workload_by_name

TWOLF = workload_by_name("twolf")


class TestSimulationCache:
    def test_memoises_runs(self):
        cache = SimulationCache(instructions=1500, warmup=300)
        a = cache.run(TWOLF)
        b = cache.run(TWOLF)
        assert a is b

    def test_different_configs_different_runs(self):
        cache = SimulationCache(instructions=1500, warmup=300)
        a = cache.run(TWOLF, BASE_MICROARCH)
        b = cache.run(TWOLF, MicroarchConfig(window_size=16))
        assert a is not b
        assert a.ipc != b.ipc

    def test_disk_cache_round_trip(self, tmp_path):
        c1 = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        run1 = c1.run(TWOLF)
        c2 = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        run2 = c2.run(TWOLF)
        assert run2.ipc == pytest.approx(run1.ipc)
        assert run2.phases[0].stats.activity == pytest.approx(
            run1.phases[0].stats.activity
        )
        assert [p.phase.name for p in run2.phases] == [p.phase.name for p in run1.phases]

    def test_disk_cache_files_created(self, tmp_path):
        cache = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        cache.run(TWOLF)
        # Content-addressed layout: objects/<hash[:2]>/<hash>.json.
        entries = list(tmp_path.glob("objects/*/*.json"))
        assert len(entries) == 1
        name = entries[0].stem
        assert len(name) == 64 and entries[0].parent.name == name[:2]

    def test_disk_cache_key_ignores_profile_name_cosmetics(self, tmp_path):
        # The key is a content hash of the full profile, not its filename.
        cache = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        cache.run(TWOLF)
        (entry,) = tmp_path.glob("objects/*/*.json")
        assert "twolf" not in entry.name

    def test_corrupt_disk_entry_falls_back_to_resimulation(self, tmp_path):
        c1 = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        run1 = c1.run(TWOLF)
        (entry,) = tmp_path.glob("objects/*/*.json")
        entry.write_text("{not json")
        c2 = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        run2 = c2.run(TWOLF)  # must re-simulate, not crash
        assert run2 == run1
        assert c2.store.stats.healed == 1
        assert c2.store.stats.quarantined == 0
        # The re-simulation was persisted again, readable by a third cache.
        c3 = SimulationCache(instructions=1500, warmup=300, disk_dir=tmp_path)
        assert c3.run(TWOLF) == run1
        assert c3.store.stats.hits == 1


class TestSingleFlight:
    """Concurrent callers of one key share one simulation."""

    @staticmethod
    def _counting(monkeypatch, before=None):
        calls = []
        lock = threading.Lock()
        real_run = CycleSimulator.run

        def run(self, profile):
            with lock:
                calls.append((profile.name, self.config.describe()))
                n = len(calls)
            if before is not None:
                before(n)
            return real_run(self, profile)

        monkeypatch.setattr(CycleSimulator, "run", run)
        return calls

    def test_one_simulation_per_distinct_key(self, monkeypatch):
        # Hold each simulation long enough that every thread arrives
        # while its key is still in flight.
        calls = self._counting(monkeypatch, before=lambda n: time.sleep(0.1))
        cache = SimulationCache(instructions=300, warmup=100)
        keys = [
            (app, config)
            for app in ("twolf", "art")
            for config in (BASE_MICROARCH, MicroarchConfig(window_size=16))
        ]
        start = threading.Barrier(8)
        results = [None] * 8

        def worker(slot):
            app, config = keys[slot % 4]
            start.wait()
            results[slot] = cache.run(workload_by_name(app), config)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 4
        assert sorted(calls) == sorted(
            (app, config.describe()) for app, config in keys
        )
        for k in range(4):
            assert results[k] is results[k + 4]
            assert results[k] is cache.run(workload_by_name(keys[k][0]), keys[k][1])
        assert len(calls) == 4

    def test_failure_reaches_waiters_and_frees_the_key(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()

        def first_call_fails(n):
            if n == 1:
                entered.set()
                release.wait(10)
                raise RuntimeError("simulator crashed")

        calls = self._counting(monkeypatch, before=first_call_fails)
        cache = SimulationCache(instructions=300, warmup=100)
        outcomes = []

        def caller():
            try:
                outcomes.append(cache.run(TWOLF))
            except RuntimeError as exc:
                outcomes.append(exc)

        leader = threading.Thread(target=caller)
        leader.start()
        assert entered.wait(10)
        waiters = [threading.Thread(target=caller) for _ in range(3)]
        for t in waiters:
            t.start()
        time.sleep(0.2)  # the waiters block on the leader's flight
        release.set()
        for t in [leader, *waiters]:
            t.join(30)
        assert not any(t.is_alive() for t in [leader, *waiters])
        assert len(calls) == 1
        assert len(outcomes) == 4
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        # The failed key is not stuck: the next call simulates again.
        run = cache.run(TWOLF)
        assert len(calls) == 2
        assert cache.run(TWOLF) is run


class TestFormatTable:
    def test_basic_render(self):
        text = format_table(["app", "ipc"], [["twolf", 0.8], ["art", 0.7]])
        lines = text.splitlines()
        assert lines[0].startswith("app")
        assert "twolf" in lines[2]
        assert "0.800" in lines[2]

    def test_title_included(self):
        text = format_table(["x"], [[1]], title="Table 2")
        assert text.splitlines()[0] == "Table 2"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [[1]])

    def test_columns_aligned(self):
        text = format_table(["name", "v"], [["long-name-here", 1.0], ["x", 22.5]])
        lines = text.splitlines()
        # The value column starts at the same offset in every row.
        idx = lines[0].index("v")
        assert lines[2][idx] != " " or lines[3][idx] != " "

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestFormatSeries:
    def test_series_render(self):
        text = format_series("Tqual", [400, 370], {"bzip2": [1.1, 1.05]})
        assert "Tqual" in text
        assert "bzip2" in text
        assert "1.100" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            format_series("x", [1, 2], {"y": [1.0]})

    def test_multiple_series_columns(self):
        text = format_series("f", [1], {"a": [0.5], "b": [0.7]})
        header = text.splitlines()[0]
        assert "a" in header and "b" in header
