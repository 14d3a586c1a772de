"""Start ``repro.serving.server`` with the benchmark's layer timers installed.

Used for traced ``serve`` runs in place of ``python -m
repro.serving.server`` (same arguments).  Before the server starts it wraps

- ``MicroBatcher._take_batch`` — each dequeued request's queue wait, and
  how many requests share the batch;
- ``PolicyEngine.act`` — engine time and rows per flushed batch;
- ``CompiledCircuit.run_rows`` — circuit forward time per batch;

and adds their totals to the ``GET /metrics`` document under
``"perfbench"``.  Queue-wait samples are handed out once: each
``/metrics`` read drains them.
"""

from __future__ import annotations

import os
import sys
import time


def install():
    from repro.quantum.compile import CompiledCircuit
    from repro.serving.batcher import MicroBatcher
    from repro.serving.engine import PolicyEngine
    from repro.serving.server import PolicyServer

    totals = {
        "engine_ns": 0, "engine_calls": 0, "engine_rows": 0,
        "engine_request_ns": 0, "forward_ns": 0, "forward_calls": 0,
        "forward_rows": 0, "requests": 0,
    }
    waits_us = []
    batch_requests = [0]

    take_batch = MicroBatcher._take_batch
    engine_act = PolicyEngine.act
    run_rows = CompiledCircuit.run_rows
    metrics = PolicyServer._metrics

    def traced_take_batch(self):
        taken, rows = take_batch(self)
        now = time.perf_counter()
        waits_us.extend((now - entry.enqueued_at) * 1e6 for entry in taken)
        batch_requests[0] = len(taken)
        totals["requests"] += len(taken)
        return taken, rows

    def traced_engine_act(self, observations, agents, greedy_mask):
        start = time.perf_counter_ns()
        actions, probs, generation = engine_act(
            self, observations, agents, greedy_mask)
        took = time.perf_counter_ns() - start
        totals["engine_ns"] += took
        totals["engine_request_ns"] += took * batch_requests[0]
        totals["engine_calls"] += 1
        totals["engine_rows"] += len(observations)
        return actions, probs, generation

    def traced_run_rows(self, *args, **kwargs):
        start = time.perf_counter_ns()
        out = run_rows(self, *args, **kwargs)
        totals["forward_ns"] += time.perf_counter_ns() - start
        totals["forward_calls"] += 1
        totals["forward_rows"] += len(out)
        return out

    def traced_metrics(self):
        document = metrics(self)
        block = dict(totals)
        block["queue_wait_us"] = list(waits_us)
        waits_us.clear()
        document["perfbench"] = block
        return document

    MicroBatcher._take_batch = traced_take_batch
    PolicyEngine.act = traced_engine_act
    CompiledCircuit.run_rows = traced_run_rows
    PolicyServer._metrics = traced_metrics


def main(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    install()
    from repro.serving.server import main as serve

    serve(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
