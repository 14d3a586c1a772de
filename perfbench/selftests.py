"""The benchmark's own tests.

Run with ``python3 -m pytest -q perfbench/selftests.py`` from the checkout
root (about two minutes: every workload runs at a smoke length, traced and
untraced).  The file name keeps them out of the repository's tier-1 run.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import METRIC_NAME, use_source_tree  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMOKE_SECONDS = "2"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_declared_names_are_valid_and_unique():
    spec = _spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    for name in names:
        assert METRIC_NAME.match(name), name
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "3",
               "--seconds", SMOKE_SECONDS, "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for entry in declared:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert math.isfinite(got["value"])
        assert METRIC_NAME.match(entry["name"])
        if trace == 0:
            assert got["value"] > 0, entry["name"]


async def _reversed_rows(document):
    # Reversed rows still sum to one: only the comparison with an
    # in-process engine can tell that the answer is wrong.
    document["probs"] = [row[::-1] for row in document["probs"]]
    return document


async def _cut_off(document):
    raise asyncio.IncompleteReadError(b"", 100)


@pytest.mark.parametrize("fault", [_reversed_rows, _cut_off])
def test_injected_wrong_answer_counts_as_failed(monkeypatch, fault):
    use_source_tree()
    import serve
    from repro.serving.client import AsyncServingClient

    act_batch = AsyncServingClient.act_batch

    async def faulty(self, *args, **kwargs):
        return await fault(await act_batch(self, *args, **kwargs))

    monkeypatch.setattr(AsyncServingClient, "act_batch", faulty)
    result = serve.run("serve", seed=5, seconds=1.5)
    assert result["failed"] > 0
    assert result["correct"] is False
    named = result["report"]["named"]
    if fault is _reversed_rows:
        assert named["reference_mismatches"]["value"] > 0
    else:
        # The single phase still answers after the batch phase's errors.
        assert named["single.p50_ms"]["value"] > 0


def test_answer_checks_reject_bad_rows():
    from serve import rows_ok

    assert rows_ok([1], [[0.25, 0.25, 0.5]], 3, 1)
    assert not rows_ok([3], [[0.25, 0.25, 0.5]], 3, 1)
    assert not rows_ok([1], [[0.25, 0.25, 0.4]], 3, 1)
    assert not rows_ok([1], [[0.25, 0.25, 0.5]], 3, 2)
    assert not rows_ok([1], [[float("nan"), 0.5, 0.5]], 3, 1)


def test_self_time_subtracts_children():
    from tracer import LayerTracer

    class Layers:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(20000))

    tracer = LayerTracer()
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner")
    try:
        Layers().outer()
    finally:
        tracer.uninstall()
    outer, inner = tracer.totals["outer"], tracer.totals["inner"]
    assert inner["calls"] == 2
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    assert Layers.outer.__name__ == "outer"


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "train_fig3", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
