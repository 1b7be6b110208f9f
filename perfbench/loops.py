"""Load drivers for the scheduler daemon, owned by the benchmark.

``open_loop`` sends event ``i`` at its due time ``start + i / rate``
whether or not earlier events have resolved, and times every event from
that due time, so a stall also counts against the events queued behind
it.  ``closed_loop`` keeps a fixed window of unresolved events and times
each from its send.  Both keep every sample; neither reads the daemon's
own latency window.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import ReproError
from tracing import perf_counter

#: The generator sleeps until this close to a due time, then yields to
#: the loop in a spin: sleeping the whole way would wake up to a
#: millisecond late.
_SPIN_S = 0.0015


class Samples:
    """Per-event due, send and done times of one replay."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.started = 0
        self.failed = 0

    def latencies_s(self) -> list[float]:
        return [d - u for d, u in zip(self.done, self.due)]

    def lags_s(self) -> list[float]:
        return [s - u for s, u in zip(self.sent, self.due)]

    def wall_s(self) -> float:
        return max(self.done) - min(self.due)


async def _send(daemon, event, i: int, samples: Samples) -> None:
    samples.sent[i] = perf_counter()
    samples.started += 1
    try:
        result = await daemon.submit(event)
    except ReproError:
        samples.failed += 1
        samples.done[i] = perf_counter()
        return
    # The daemon stamps its own enqueue time within microseconds of
    # ``sent`` and measures ``latency_s`` up to the end of the apply.
    samples.done[i] = samples.sent[i] + result["latency_s"]


async def _finish(daemon, tasks, samples: Samples, n: int) -> None:
    # Every send must be enqueued before the drain, or a batching
    # daemon could close its last chunk without them.
    while samples.started < n:
        await asyncio.sleep(0)
    await daemon.drain()
    await asyncio.gather(*tasks)


async def open_loop(daemon, events, rate: float, tracer) -> Samples:
    """Send ``events`` at a fixed ``rate`` (events/s); never block."""
    loop = asyncio.get_running_loop()
    n = len(events)
    samples = Samples(n)
    tasks = []
    start = perf_counter() + 0.005
    for i, event in enumerate(events):
        due = start + i / rate
        samples.due[i] = due
        with tracer.span("loadgen.wait"):
            while True:
                left = due - perf_counter()
                if left <= 0:
                    break
                await asyncio.sleep(left - _SPIN_S if left > _SPIN_S else 0)
        tasks.append(loop.create_task(_send(daemon, event, i, samples)))
    await _finish(daemon, tasks, samples, n)
    return samples


async def closed_loop(daemon, events, window: int) -> Samples:
    """Keep ``window`` events unresolved; send the next when one resolves."""
    loop = asyncio.get_running_loop()
    n = len(events)
    samples = Samples(n)
    tasks = []
    inflight: deque = deque()
    for i, event in enumerate(events):
        task = loop.create_task(_send(daemon, event, i, samples))
        tasks.append(task)
        inflight.append(task)
        if len(inflight) >= window:
            await inflight.popleft()
    await _finish(daemon, tasks, samples, n)
    # A closed loop's event is due when it is sent.
    samples.due = list(samples.sent)
    return samples
