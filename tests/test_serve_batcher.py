"""Micro-batcher unit tests: triggers, robustness, failure fan-out.

The three robustness properties the ISSUE calls out each get a
dedicated test: the empty flush tick, a request cancelled mid-batch,
and an oversized single request that must not stall the queue.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.batcher import MicroBatcher


def run(coro):
    return asyncio.run(coro)


def make_echo_batcher(batches, **kwargs):
    """A batcher whose flush echoes items and records batch contents."""

    async def flush(items):
        batches.append(list(items))
        return [f"r:{item}" for item in items]

    return MicroBatcher(flush, **kwargs)


class TestTriggers:
    def test_size_trigger_flushes_at_max_batch(self):
        batches = []

        async def scenario():
            batcher = make_echo_batcher(batches, max_batch=4, max_delay_s=10.0)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(8))
            )
            await batcher.close()
            return results

        results = run(scenario())
        assert results == [f"r:{i}" for i in range(8)]
        # With a 10 s deadline only the size trigger can have fired.
        assert all(len(b) == 4 for b in batches)
        assert len(batches) == 2

    def test_deadline_trigger_flushes_partial_batch(self):
        batches = []

        async def scenario():
            batcher = make_echo_batcher(batches, max_batch=100, max_delay_s=0.01)
            results = await asyncio.gather(
                batcher.submit("a"), batcher.submit("b")
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = run(scenario())
        assert results == ["r:a", "r:b"]
        assert stats.deadline_triggered == 1
        assert stats.size_triggered == 0
        assert batches == [["a", "b"]]

    def test_empty_flush_tick_is_recorded_noop(self):
        # The straggler-timer scenario: a deadline tick arriving after
        # the queue was already drained must be a counted no-op, never
        # an error or a phantom flush.
        batches = []

        async def scenario():
            batcher = make_echo_batcher(batches, max_batch=2, max_delay_s=0.01)
            await asyncio.gather(batcher.submit(1), batcher.submit(2))
            batcher._on_deadline()  # the straggler tick
            stats = batcher.stats
            await batcher.close()
            return stats

        stats = run(scenario())
        assert stats.empty_ticks == 1
        assert stats.flushes == 1
        assert batches == [[1, 2]]


class TestCancellation:
    def test_request_cancelled_mid_batch_does_not_block_others(self):
        started = asyncio.Event()

        async def slow_flush(items):
            started.set()
            await asyncio.sleep(0.05)
            return [f"r:{item}" for item in items]

        async def scenario():
            nonlocal started
            started = asyncio.Event()
            batcher = MicroBatcher(slow_flush, max_batch=3, max_delay_s=10.0)
            tasks = [
                asyncio.ensure_future(batcher.submit(i)) for i in range(3)
            ]
            await started.wait()  # the batch is in flight
            tasks[1].cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = run(scenario())
        assert results[0] == "r:0"
        assert results[2] == "r:2"
        assert isinstance(results[1], asyncio.CancelledError)
        assert stats.cancelled == 1

    def test_request_cancelled_while_queued_is_skipped(self):
        batches = []

        async def scenario():
            batcher = make_echo_batcher(batches, max_batch=10, max_delay_s=0.02)
            keep = asyncio.ensure_future(batcher.submit("keep"))
            drop = asyncio.ensure_future(batcher.submit("drop"))
            await asyncio.sleep(0)  # both enqueued, deadline not fired
            drop.cancel()
            result = await keep
            stats = batcher.stats
            await batcher.close()
            return result, stats

        result, stats = run(scenario())
        assert result == "r:keep"
        assert stats.cancelled == 1
        assert batches == [["keep"]]


class TestOversized:
    def test_oversized_request_flushes_alone_without_stalling(self):
        batches = []

        async def scenario():
            batcher = make_echo_batcher(batches, max_batch=4, max_delay_s=0.01)
            big = asyncio.ensure_future(batcher.submit("big", weight=10))
            await asyncio.sleep(0)
            small = [
                asyncio.ensure_future(batcher.submit(f"s{i}")) for i in range(3)
            ]
            results = await asyncio.gather(big, *small)
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = run(scenario())
        assert results == ["r:big", "r:s0", "r:s1", "r:s2"]
        assert stats.oversized == 1
        # The oversized item departed in a batch of its own; the small
        # items were not wedged behind it.
        assert ["big"] in batches
        assert sorted(sum((b for b in batches if b != ["big"]), [])) == [
            "s0", "s1", "s2",
        ]

    def test_weight_cap_splits_drains(self):
        batches = []

        async def scenario():
            batcher = make_echo_batcher(batches, max_batch=3, max_delay_s=10.0)
            submits = [
                asyncio.ensure_future(batcher.submit(item, weight=2))
                for item in "abc"
            ]
            await asyncio.sleep(0)
            # ``c`` is left below the size trigger; closing drains it
            # through the same capped path instead of waiting out the
            # 10 s deadline.
            await batcher.close()
            return await asyncio.gather(*submits), batcher.stats

        results, stats = run(scenario())
        assert results == ["r:a", "r:b", "r:c"]
        # Two 2-weight items exceed max_batch = 3: one item per flush.
        assert all(2 * len(batch) <= 3 for batch in batches)
        assert batches == [["a"], ["b"], ["c"]]
        assert stats.flushes == 3


class TestFailureFanOut:
    def test_flush_exception_reaches_every_submitter(self):
        async def bad_flush(items):
            raise RuntimeError("boom")

        async def scenario():
            batcher = MicroBatcher(bad_flush, max_batch=2, max_delay_s=0.01)
            results = await asyncio.gather(
                batcher.submit(1), batcher.submit(2), return_exceptions=True
            )
            await batcher.close()
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_exception_instance_fails_only_its_slot(self):
        async def mixed_flush(items):
            return [
                ValueError(f"bad:{item}") if item == "bad" else f"r:{item}"
                for item in items
            ]

        async def scenario():
            batcher = MicroBatcher(mixed_flush, max_batch=2, max_delay_s=0.01)
            results = await asyncio.gather(
                batcher.submit("ok"), batcher.submit("bad"),
                return_exceptions=True,
            )
            await batcher.close()
            return results

        results = run(scenario())
        assert results[0] == "r:ok"
        assert isinstance(results[1], ValueError)

    def test_result_count_mismatch_is_an_error(self):
        async def short_flush(items):
            return ["only-one"]

        async def scenario():
            batcher = MicroBatcher(short_flush, max_batch=2, max_delay_s=0.01)
            results = await asyncio.gather(
                batcher.submit(1), batcher.submit(2), return_exceptions=True
            )
            await batcher.close()
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert "2 items" in str(results[0])


class TestLifecycle:
    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = make_echo_batcher([], max_batch=2, max_delay_s=0.01)
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit(1)

        run(scenario())

    def test_invalid_construction(self):
        async def flush(items):
            return list(items)

        with pytest.raises(ValueError):
            MicroBatcher(flush, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(flush, max_delay_s=-1.0)

    def test_invalid_weight(self):
        async def scenario():
            batcher = make_echo_batcher([], max_batch=2, max_delay_s=0.01)
            with pytest.raises(ValueError):
                await batcher.submit("x", weight=0)
            await batcher.close()

        run(scenario())
