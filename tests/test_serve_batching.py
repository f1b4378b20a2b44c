"""``MicroBatcher`` batch formation: dispatch on idle, coalescing, drain.

A fake runner records every batch it is handed and holds the first one
behind a gate, so each test decides exactly what is executing while it
submits more work.
"""

import asyncio
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import MicroBatcher, QueueFull


class GatedRunner:
    """Records batches; the first one waits for :attr:`release`."""

    def __init__(self):
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, requests, request_ids):
        self.batches.append(list(requests))
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(10)
        return [f"done:{request}" for request in requests]


async def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.001)


def _run(scenario, **kwargs):
    """Run ``scenario(batcher, runner)`` on a fresh loop and batcher."""
    runner = kwargs.pop("runner", None) or GatedRunner()

    async def main():
        batcher = MicroBatcher(runner, **kwargs)
        await batcher.start()
        try:
            return await scenario(batcher, runner)
        finally:
            if isinstance(runner, GatedRunner):
                runner.release.set()
            await batcher.stop()

    return asyncio.run(main())


class TestBatchFormation:
    def test_lone_request_dispatches_alone(self):
        async def scenario(batcher, runner):
            runner.release.set()
            assert await batcher.submit("a", "A") == "done:A"
            assert runner.batches == [["A"]]

        _run(scenario)

    def test_requests_queued_behind_a_batch_run_together(self):
        async def scenario(batcher, runner):
            first = batcher.submit("a", "A")
            await _until(runner.entered.is_set)
            rest = [batcher.submit(k, k.upper()) for k in "bcd"]
            assert batcher.depth == 3
            runner.release.set()
            assert await first == "done:A"
            assert await asyncio.gather(*rest) == [
                "done:B", "done:C", "done:D"
            ]
            assert runner.batches == [["A"], ["B", "C", "D"]]
            assert batcher.stats()["batches"] == 2

        _run(scenario)

    def test_queued_requests_split_at_max_batch(self):
        async def scenario(batcher, runner):
            first = batcher.submit("a", "A")
            await _until(runner.entered.is_set)
            rest = [batcher.submit(k, k.upper()) for k in "bcde"]
            runner.release.set()
            await asyncio.gather(first, *rest)
            assert runner.batches == [["A"], ["B", "C"], ["D", "E"]]

        _run(scenario, max_batch=2)

    def test_identical_submit_coalesces_onto_executing_request(self):
        async def scenario(batcher, runner):
            first = batcher.submit("a", "A", request_id="r1")
            await _until(runner.entered.is_set)
            before = batcher.stats()
            second = batcher.submit("a", "A", request_id="r2")
            assert second is first
            after = batcher.stats()
            assert after["deduped"] == before["deduped"] + 1
            assert after["executed"] == before["executed"]
            runner.release.set()
            assert await second == "done:A"
            assert batcher.stats()["executed"] == 1
            assert runner.batches == [["A"]]

        _run(scenario)

    def test_full_queue_refuses_behind_an_executing_batch(self):
        async def scenario(batcher, runner):
            first = batcher.submit("a", "A")
            await _until(runner.entered.is_set)
            queued = batcher.submit("b", "B")
            with pytest.raises(QueueFull):
                batcher.submit("c", "C")
            runner.release.set()
            await asyncio.gather(first, queued)

        _run(scenario, max_queue=1)


class TestDrain:
    def test_drain_after_failed_batch_returns_promptly(self):
        """A runner that raises fails its batch and leaves the batcher
        idle, so a drain completes instead of waiting out its timeout."""

        def broken(requests, request_ids):
            raise RuntimeError("runner bug")

        async def scenario(batcher, runner):
            with pytest.raises(RuntimeError, match="runner bug"):
                await batcher.submit("a", "A")
            assert await batcher.drain(1.0) is True

        _run(scenario, runner=broken)

    def test_drain_waits_for_the_executing_batch(self):
        async def scenario(batcher, runner):
            future = batcher.submit("a", "A")
            await _until(runner.entered.is_set)
            assert await batcher.drain(0.05) is False
            runner.release.set()
            assert await batcher.drain(5.0) is True
            assert future.done()

        _run(scenario)


class TestQueueWaitMetric:
    def test_queue_wait_observed_once_per_dispatched_request(self):
        metrics = MetricsRegistry()

        async def scenario(batcher, runner):
            first = batcher.submit("a", "A")
            await _until(runner.entered.is_set)
            queued = [batcher.submit(k, k.upper()) for k in "bc"]
            # Coalesced waiters share a dispatch, so they add no sample.
            batcher.submit("b", "B")
            await asyncio.sleep(0.02)
            runner.release.set()
            await asyncio.gather(first, *queued)

        _run(scenario, metrics=metrics)
        waits = metrics.histogram("serve.queue_wait_seconds")
        assert waits.count == 3
        # B and C waited behind the held batch for at least the sleep.
        assert waits.max >= 0.02
        assert metrics.histogram("serve.batch_seconds").count == 2
