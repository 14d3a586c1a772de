"""Open- and closed-loop load over at most two keep-alive connections.

In the open loop, requests are due on a fixed schedule whatever the
server does.  A due request goes out on the first free connection; when
both are busy it waits in order, and that wait counts against the server,
because each latency is timed from the request's scheduled send time.  The generator also records
how late it woke for each due time (``late``), which bounds how far its own
scheduling distorts the latencies.  The closed loop keeps every
connection busy and measures how many requests the server completes.

The load comes from this process; the server runs in another one, so the
generator never shares an event loop with the code it measures.
"""

from __future__ import annotations

import asyncio
import itertools


class Outcome:
    """What one segment of load produced."""

    def __init__(self):
        self.latencies = []   # seconds, scheduled send -> response read
        self.service = []     # seconds, actual send -> response read
        self.late = []        # seconds, scheduled send -> generator awake
        self.sent = 0
        self.errors = 0       # non-200, connection and malformed answers
        self.wrong = 0        # answers that failed a check
        self.elapsed = 0.0    # first due time -> last response
        self.start = 0.0      # loop time the segment began
        self.finished = []    # loop times the answers were read


async def _send(client, i, send, outcome):
    """Request ``i`` on ``client``; its document, or None after an error."""
    from repro.serving.client import ServerError

    try:
        return await send(client, i)
    except (ServerError, OSError, EOFError, ValueError, IndexError):
        # A failed exchange may leave the stream half read: drop the
        # connection; the client reconnects on its next request.
        outcome.errors += 1
        await client.close()
        return None


async def open_loop(clients, rate, duration, send, check):
    """Drive ``rate`` requests per second for ``duration`` seconds.

    Args:
        clients: Connected :class:`~repro.serving.client.AsyncServingClient`
            objects (at most two are used at once, one request each).
        send: ``async fn(client, i) -> document`` issuing request ``i``.
        check: ``fn(i, document) -> bool``; False counts as a wrong answer.
    """
    loop = asyncio.get_running_loop()
    free = asyncio.Queue()
    for client in clients:
        free.put_nowait(client)
    outcome = Outcome()
    n_requests = max(1, int(round(rate * duration)))
    start = loop.time() + 0.005

    async def fire(i, due):
        client = await free.get()
        sent_at = loop.time()
        try:
            document = await _send(client, i, send, outcome)
        finally:
            free.put_nowait(client)
        if document is None:
            return
        done = loop.time()
        outcome.latencies.append(done - due)
        outcome.service.append(done - sent_at)
        if not check(i, document):
            outcome.wrong += 1

    tasks = []
    for i in range(n_requests):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome.late.append(max(0.0, loop.time() - due))
        tasks.append(loop.create_task(fire(i, due)))
        outcome.sent += 1
    await asyncio.gather(*tasks)
    outcome.elapsed = loop.time() - start
    return outcome


async def closed_loop(clients, duration, send, check):
    """Each client sends its next request as soon as its last one is
    answered, until ``duration`` seconds have passed.

    The answered requests over ``elapsed`` are the most the server completes
    over these connections: the rate an open loop can offer before its
    backlog grows.  Latencies here are service times; ``finished`` gives
    the completion rate block by block (:func:`block_rates`).
    """
    loop = asyncio.get_running_loop()
    outcome = Outcome()
    requests = itertools.count()
    start = outcome.start = loop.time()
    deadline = start + duration

    async def keep_busy(client):
        while loop.time() < deadline:
            i = next(requests)
            outcome.sent += 1
            sent_at = loop.time()
            document = await _send(client, i, send, outcome)
            if document is None:
                continue
            done = loop.time()
            outcome.latencies.append(done - sent_at)
            outcome.service.append(done - sent_at)
            outcome.finished.append(done)
            if not check(i, document):
                outcome.wrong += 1

    await asyncio.gather(*(keep_busy(client) for client in clients))
    outcome.elapsed = loop.time() - start
    return outcome


def block_rates(outcome, size):
    """Answers per second over each run of ``size`` consecutive answers of
    a closed loop, from its start; one rate over the whole loop when it
    has fewer answers."""
    times = [outcome.start] + outcome.finished
    if len(outcome.finished) < size:
        return [len(outcome.finished) / outcome.elapsed]
    return [size / (times[j + size] - times[j])
            for j in range(0, len(times) - size, size)]
