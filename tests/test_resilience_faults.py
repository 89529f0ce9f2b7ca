"""The fault-injection layer itself: plans, determinism, arming, logs.

Everything here is in-process — the decisions are pure functions of
(plan seed, site, key, lane), so no subprocesses are needed to pin down
exactly what a plan will inject.  The end-to-end consequences (executor
recovery, store self-heal, kernel salvage, sweep resume) live in
``test_engine_chaos.py`` and ``test_kernels_salvage.py``.
"""

import json

import pytest

from repro.errors import InjectedFault, ResilienceError
from repro.resilience import (
    AGGRESSIVE,
    CHECKPOINT_TORN,
    CI_DEFAULT,
    KERNEL_POISON,
    SENSOR_NOISE,
    SENSOR_STUCK,
    SERVE_DROP,
    SERVE_SLOW,
    SITES,
    STORE_CORRUPT,
    TELEMETRY_TORN,
    WEAR_DRIFT,
    WORKER_CRASH,
    WORKER_HANG,
    FaultInjector,
    FaultPlan,
    active_injector,
    armed,
    install,
    iter_fault_log,
)


@pytest.fixture(autouse=True)
def disarm():
    """No fault plan leaks into (or out of) any test in this module."""
    install(None)
    yield
    install(None)


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ResilienceError):
            FaultPlan(name="bad", rates={"engine.warp_core": 0.5})

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ResilienceError):
            FaultPlan(name="bad", rates={WORKER_CRASH: 1.5})
        with pytest.raises(ResilienceError):
            FaultPlan(name="bad", rates={WORKER_CRASH: float("nan")})

    def test_negative_hang_rejected(self):
        with pytest.raises(ResilienceError):
            FaultPlan(name="bad", hang_s=-1.0)

    def test_round_trips_through_dict(self):
        plan = FaultPlan(name="rt", seed=9, rates={STORE_CORRUPT: 0.25})
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_resolve_named_plans(self):
        assert FaultPlan.resolve("ci-default") is CI_DEFAULT
        assert FaultPlan.resolve("aggressive") is AGGRESSIVE

    def test_resolve_json_file(self, tmp_path):
        plan = FaultPlan(name="file", seed=3, rates={WORKER_HANG: 0.1})
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.as_dict()))
        assert FaultPlan.resolve(str(path)) == plan

    def test_resolve_unknown_name_lists_plans(self):
        with pytest.raises(ResilienceError, match="ci-default"):
            FaultPlan.resolve("no-such-plan")

    def test_resolve_malformed_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ResilienceError):
            FaultPlan.resolve(str(path))

    def test_ci_default_keeps_sensor_sites_off(self):
        # Sensor faults change reported numbers by design; the CI plan
        # must stay convergent (bit-identical to fault-free), so they
        # are never part of it.
        # repro: ignore[RPR004] disabled means exactly-zero rate, not ~0
        assert CI_DEFAULT.rate(SENSOR_NOISE) == 0.0
        assert CI_DEFAULT.rate(SENSOR_STUCK) == 0.0  # repro: ignore[RPR004] exact
        assert CI_DEFAULT.first_attempt_only


class TestDeterminism:
    def test_roll_is_pure_in_seed_site_key_lane(self):
        a = FaultInjector(FaultPlan(name="a", seed=7))
        b = FaultInjector(FaultPlan(name="b", seed=7))
        assert a.roll(WORKER_CRASH, "job1") == b.roll(WORKER_CRASH, "job1")
        assert a.roll(WORKER_CRASH, "job1", lane=1) != a.roll(
            WORKER_CRASH, "job1"
        )
        assert a.roll(WORKER_CRASH, "job1") != a.roll(WORKER_CRASH, "job2")

    def test_different_seeds_inject_differently(self):
        keys = [f"job{i}" for i in range(64)]
        plan7 = FaultInjector(FaultPlan(name="x", seed=7, rates={WORKER_CRASH: 0.3}))
        plan8 = FaultInjector(FaultPlan(name="x", seed=8, rates={WORKER_CRASH: 0.3}))
        hits7 = {k for k in keys if plan7.should(WORKER_CRASH, k)}
        hits8 = {k for k in keys if plan8.should(WORKER_CRASH, k)}
        assert hits7 and hits7 != hits8

    def test_rate_extremes(self):
        never = FaultInjector(FaultPlan(name="n", rates={}))
        always = FaultInjector(FaultPlan(name="a", rates={WORKER_CRASH: 1.0}))
        assert not never.should(WORKER_CRASH, "k")
        assert always.should(WORKER_CRASH, "k")

    def test_once_fires_at_most_once_per_key(self):
        inj = FaultInjector(FaultPlan(name="o", rates={STORE_CORRUPT: 1.0}))
        assert inj.corrupt_payload("key", "0123456789") == "01234"
        assert inj.corrupt_payload("key", "0123456789") is None
        assert inj.corrupt_payload("other", "ab") is not None


class TestSites:
    def test_in_process_crash_raises_injected_fault(self):
        inj = FaultInjector(FaultPlan(name="c", rates={WORKER_CRASH: 1.0}))
        with pytest.raises(InjectedFault):
            inj.maybe_crash_worker("job", attempt=1, in_subprocess=False)

    def test_first_attempt_only_spares_retries(self):
        inj = FaultInjector(FaultPlan(name="c", rates={WORKER_CRASH: 1.0}))
        inj.maybe_crash_worker("job", attempt=2, in_subprocess=False)
        assert inj.fired == []

    def test_every_attempt_mode(self):
        plan = FaultPlan(
            name="c", rates={WORKER_CRASH: 1.0}, first_attempt_only=False
        )
        inj = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            inj.maybe_crash_worker("job", attempt=5, in_subprocess=False)

    def test_poison_row_in_range_and_once_per_grid(self):
        inj = FaultInjector(FaultPlan(name="p", rates={KERNEL_POISON: 1.0}))
        row = inj.poison_row("grid", 7)
        assert row is not None and 0 <= row < 7
        assert inj.poison_row("grid", 7) is None
        assert inj.poison_row("grid", 0) is None

    def test_stuck_sensor_is_stuck_for_the_run(self):
        plan = FaultPlan(
            name="s", rates={SENSOR_STUCK: 1.0}, sensor_stuck_temp_k=300.0
        )
        inj = FaultInjector(plan)
        # repro: ignore[RPR004] a stuck sensor returns the exact constant
        assert inj.sensor_temperature("ALU", 345.0) == 300.0
        assert inj.sensor_temperature("ALU", 390.0) == 300.0  # repro: ignore[RPR004] exact

    def test_noisy_sensor_is_deterministic_per_reading(self):
        plan = FaultPlan(name="s", rates={SENSOR_NOISE: 1.0}, sensor_noise_k=2.0)
        a = FaultInjector(plan).sensor_temperature("ALU", 345.0)
        b = FaultInjector(plan).sensor_temperature("ALU", 345.0)
        assert a == b
        assert a != 345.0  # repro: ignore[RPR004] noise must move the value

    def test_unarmed_sites_pass_through(self):
        inj = FaultInjector(FaultPlan(name="quiet"))
        inj.maybe_crash_worker("j", attempt=1, in_subprocess=False)
        inj.maybe_hang("j", attempt=1)
        assert inj.corrupt_payload("k", "text") is None
        assert inj.poison_row("g", 5) is None
        # repro: ignore[RPR004] unarmed pass-through must be bit-exact
        assert inj.sensor_temperature("ALU", 345.0) == 345.0
        assert inj.fired == []


class TestArming:
    def test_unarmed_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert active_injector() is None

    def test_install_wins_and_disarms(self):
        injector = install(CI_DEFAULT)
        assert active_injector() is injector
        install(None)
        assert active_injector() is None

    def test_install_resolves_names(self):
        injector = install("aggressive")
        assert injector.plan is AGGRESSIVE

    def test_env_arming(self, monkeypatch, tmp_path):
        plan = FaultPlan(name="envy", seed=11, rates={WORKER_HANG: 0.5})
        path = tmp_path / "envy.json"
        path.write_text(json.dumps(plan.as_dict()))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        injector = active_injector()
        assert injector is not None and injector.plan == plan
        # Stable until the variable changes.
        assert active_injector() is injector

    def test_armed_context_manager_restores_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        with armed("ci-default") as injector:
            assert active_injector() is injector
            import os

            assert os.environ["REPRO_FAULT_PLAN"] == "ci-default"
        import os

        assert "REPRO_FAULT_PLAN" not in os.environ
        assert active_injector() is None

    def test_armed_serialises_adhoc_plans_for_workers(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        plan = FaultPlan(name="adhoc", seed=2, rates={STORE_CORRUPT: 1.0})
        with armed(plan):
            spec = os.environ["REPRO_FAULT_PLAN"]
            assert spec.endswith(".json")
            # A worker process would resolve the very same plan.
            assert FaultPlan.resolve(spec) == plan
        assert not os.path.exists(spec)


class TestFaultLog:
    def test_fired_faults_land_in_telemetry_frames(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        inj = FaultInjector(
            FaultPlan(name="logged", rates={STORE_CORRUPT: 1.0}), log_path=log
        )
        inj.corrupt_payload("abc", "payload-text")
        records = list(iter_fault_log(log))
        assert len(records) == 1
        assert records[0]["site"] == STORE_CORRUPT
        assert records[0]["key"] == "abc"
        assert records[0]["plan"] == "logged"
        # The on-disk form is a CRC-framed telemetry segment, readable by
        # the stream tooling too.
        from repro.telemetry import scan_segment

        scan = scan_segment(log)
        assert scan.torn == 0
        assert [r.kind for r in scan.records] == ["fault.fired"]

    def test_torn_trailing_line_skipped(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        FaultInjector(
            FaultPlan(name="torn", rates={STORE_CORRUPT: 1.0}), log_path=log
        ).corrupt_payload("k", "payload-text")
        whole = log.read_bytes()
        with open(log, "ab") as handle:
            handle.write(whole[: len(whole) // 2])
        records = list(iter_fault_log(log))
        assert [r["key"] for r in records] == ["k"]

    def test_bare_json_lines_are_skipped(self, tmp_path):
        """A bare JSON object is not a frame: skipped like any damage."""
        log = tmp_path / "faults.jsonl"
        FaultInjector(
            FaultPlan(name="mixed", rates={STORE_CORRUPT: 1.0}), log_path=log
        ).corrupt_payload("framed", "payload-text")
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"site": WORKER_CRASH, "key": "bare"}) + "\n")
        assert [r["key"] for r in iter_fault_log(log)] == ["framed"]

    def test_missing_log_yields_nothing(self, tmp_path):
        assert list(iter_fault_log(tmp_path / "absent.jsonl")) == []


def test_site_constants_cover_every_site():
    assert SITES == {
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
