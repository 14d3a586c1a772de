"""The ``serve`` workload: the checkpointed ``proposed`` policy over HTTP.

The server runs as ``python -m repro.serving.server`` in its own process
at its default batching (``max_batch=32``, ``max_wait_us=2000``).  This
process drives it open loop (see :mod:`loadgen`) in two phases:

- ``single`` — 1-row ``/v1/act`` requests;
- ``batch`` — 32-row ``/v1/act-batch`` requests (8 env copies x 4 agents,
  with ``return_probs``).

Each phase runs a sparse rate, then a fixed number of probe rates that
bisect a rate range, then closed loops, so that a run's load lasts its
``--seconds`` whatever the server does.  ``capacity_rps`` is the highest
probed rate whose median latency is within the 10 ms SLO without a growing
backlog; ``max_rps_at_slo`` the highest probed rate whose p99 also is;
``throughput_rps`` the requests the server completes per second with both
connections kept busy, as the median over blocks of consecutive answers.
The ``single`` closed loop runs in four slices spread over both phases, so
that its median covers the whole run rather than a few seconds of it.
"""

from __future__ import annotations

import asyncio
import http.client
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

import numpy as np

from common import ROOT, SRC, median, metric, peak_rss_mb, percentile
from loadgen import block_rates, closed_loop, open_loop

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")

SLO_MS = 10.0
CONNECTIONS = 2
SPARSE_RPS = 100
# The capacity search bisects this range of offered rates (requests/s);
# five probes resolve it to 25 requests/s.  The knee is near 500 for both
# phases on a 2-CPU host.
SEARCH_RANGE = (200.0, 1000.0)
SEARCH_PROBES = 5
# Shares of the run's seconds: per phase a warm-up at the sparse rate,
# the sparse segment (1000 requests at 30 s, enough for a p99) and each
# probe; the batch phase's closed loop; and the rest in equal slices of
# the single phase's closed loop, two per phase.  Together they fill the
# run.
WARMUP_SHARE = 1 / 100
SPARSE_SHARE = 1 / 3
PROBE_SHARE = 1 / 75
BATCH_LOOP_SHARE = 1 / 30
SINGLE_SLICES = 4
SINGLE_SLICE_SHARE = (
    1 - 2 * (WARMUP_SHARE + SPARSE_SHARE + SEARCH_PROBES * PROBE_SHARE)
    - BATCH_LOOP_SHARE) / SINGLE_SLICES
# Closed-loop throughput is the median of its rates over blocks of this
# many answers (about a quarter second each).
BLOCK_ANSWERS = 128
ENV_COPIES = 8
OBS_POOL_STEPS = 64
SAMPLE_EVERY = 8
PROB_TOL = 1e-9
SETUP_REPEATS = 15
CHECKPOINT_EPOCHS = 2


# -- inputs -------------------------------------------------------------------

def make_checkpoint(directory, seed):
    """Train the Fig. 3 ``proposed`` arm briefly and save it."""
    from repro.marl.checkpoint import save_checkpoint
    from train import build

    framework = build("train_fig3", seed)
    try:
        framework.train(n_epochs=CHECKPOINT_EPOCHS)
        return save_checkpoint(framework, os.path.join(directory, "policy"))
    finally:
        framework.close()


def observation_pool(seed):
    """``(steps, copies, agents, obs)`` observations from env copies driven
    by random actions — realistic inputs, fixed by the seed."""
    from repro.config import SingleHopConfig
    from repro.envs.vector import SingleHopVectorEnv

    rng = np.random.default_rng(seed)
    env = SingleHopVectorEnv(ENV_COPIES, config=SingleHopConfig(),
                             rngs=rng.spawn(ENV_COPIES))
    obs, _ = env.reset()
    pool = []
    for _ in range(OBS_POOL_STEPS):
        pool.append(np.array(obs, dtype=float))
        actions = rng.integers(env.n_actions, size=(ENV_COPIES, env.n_agents))
        obs = env.step(actions).observations
    return np.stack(pool)


class Requests:
    """Request ``i`` of each phase, drawn from the observation pool."""

    def __init__(self, pool):
        self.pool = pool
        self.steps, self.copies, self.agents = pool.shape[:3]
        self.batch_agents = np.tile(np.arange(self.agents), self.copies)

    def single(self, i):
        step, rest = divmod(i, self.copies * self.agents)
        copy, agent = divmod(rest, self.agents)
        return self.pool[step % self.steps, copy, agent][None], [agent]

    def batch(self, i):
        rows = self.pool[i % self.steps].reshape(-1, self.pool.shape[-1])
        return rows, self.batch_agents


# -- answers ------------------------------------------------------------------

def rows_ok(actions, probs, n_actions, n_rows):
    """Every action in range; every probability row sums to one."""
    if len(actions) != n_rows or len(probs) != n_rows:
        return False
    for action, row in zip(actions, probs):
        if not (isinstance(action, int) and 0 <= action < n_actions):
            return False
        if len(row) != n_actions or not all(
                math.isfinite(p) and p >= 0.0 for p in row):
            return False
        if abs(sum(row) - 1.0) > PROB_TOL:
            return False
    return True


def answer_rows(phase, document):
    """``(actions, probs)`` lists of one response document."""
    if phase == "single":
        return [document.get("action")], [document.get("probs", [])]
    return document.get("actions", []), document.get("probs", [])


class Checker:
    """Checks every answer; keeps every SAMPLE_EVERY-th for the reference."""

    def __init__(self, requests, n_actions):
        self.requests = requests
        self.n_actions = n_actions
        self.samples = []

    def for_phase(self, phase):
        make = getattr(self.requests, phase)

        def check(i, document):
            observations, agents = make(i)
            actions, probs = answer_rows(phase, document)
            if not rows_ok(actions, probs, self.n_actions, len(agents)):
                return False
            if i % SAMPLE_EVERY == 0:
                self.samples.append((observations, agents, probs))
            return True

        return check

    def reference_failures(self, checkpoint):
        """Sampled answers that differ from an in-process engine."""
        from repro.serving.engine import FrameworkSpec, PolicyEngine

        engine = PolicyEngine(FrameworkSpec(name="proposed"),
                              checkpoint_path=checkpoint)
        failures = 0
        try:
            for observations, agents, probs in self.samples:
                expected, _ = engine.infer(observations, np.asarray(agents))
                error = np.max(np.abs(expected - np.asarray(probs)))
                if not error <= PROB_TOL:
                    failures += 1
        finally:
            engine.close()
        return failures


# -- the server process -------------------------------------------------------

def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthy(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Server:
    """One server process on a free local port."""

    def __init__(self, checkpoint, traced=False):
        self.port = _free_port()
        workdir = os.path.dirname(checkpoint)
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        else:
            command = [sys.executable, "-m", "repro.serving.server"]
        command += ["--checkpoint", checkpoint, "--port", str(self.port)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.log_path = os.path.join(workdir, f"server-{self.port}.log")
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=self._log)
        try:
            while not _healthy(self.port):
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.process.returncode}: "
                        + self.log_tail())
                if time.perf_counter() - started > 60:
                    raise RuntimeError("server not healthy after 60 s")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def log_tail(self):
        with open(self.log_path) as f:
            return f.read()[-2000:]

    def peak_rss_mb(self):
        return peak_rss_mb(self.process.pid)

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# -- load ---------------------------------------------------------------------

def _sender(phase, requests):
    make = getattr(requests, phase)

    async def send(client, i):
        observations, agents = make(i)
        if phase == "single":
            return await client.act(observations[0], agents[0])
        return await client.act_batch(observations, agents,
                                      return_probs=True)

    return send


def _meets_slo(outcome, pct):
    """Whether percentile ``pct`` of the latencies is within the SLO and the
    backlog did not grow (the last tenth of requests, by median, also is)."""
    latencies = outcome.latencies
    if outcome.errors or outcome.wrong or not latencies:
        return False
    last_tenth = latencies[-max(1, len(latencies) // 10):]
    return (percentile(latencies, pct) * 1e3 <= SLO_MS
            and median(last_tenth) * 1e3 <= SLO_MS)


class Session:
    """The load generator's connections and tallies for one server."""

    def __init__(self, port, requests, checker):
        self.port = port
        self.requests = requests
        self.checker = checker
        self.sent = self.errors = self.wrong = 0
        self.late = []
        self.single_rates = []   # block rates of the single closed loop

    async def segment(self, clients, phase, rate, duration):
        """Open loop at ``rate``, or closed loop when ``rate`` is None."""
        send = _sender(phase, self.requests)
        check = self.checker.for_phase(phase)
        if rate is None:
            outcome = await closed_loop(clients, duration, send, check)
        else:
            outcome = await open_loop(
                clients, rate, duration, send, check)
        self.sent += outcome.sent
        self.errors += outcome.errors
        self.wrong += outcome.wrong
        self.late.extend(outcome.late)
        return outcome

    async def single_slice(self, clients, seconds):
        """One slice of the single phase's closed loop."""
        busy = await self.segment(
            clients, "single", None, seconds * SINGLE_SLICE_SHARE)
        self.single_rates.extend(block_rates(busy, BLOCK_ANSWERS))

    async def drive(self, seconds, phases=("single", "batch"), search=True):
        """Per phase: warm-up, the sparse rate, then the capacity search
        between two slices of the single closed loop (and, in the batch
        phase, the batch closed loop)."""
        from repro.serving.client import AsyncServingClient

        clients = [
            await AsyncServingClient("127.0.0.1", self.port).connect()
            for _ in range(CONNECTIONS)
        ]
        results = {}
        try:
            for phase in phases:
                await self.segment(
                    clients, phase, SPARSE_RPS, seconds * WARMUP_SHARE)
                before = await clients[0].metrics()
                sparse = await self.segment(
                    clients, phase, SPARSE_RPS, seconds * SPARSE_SHARE)
                after = await clients[0].metrics()
                result = {"sparse": sparse, "server": (before, after),
                          "max_rps": 0.0, "capacity_rps": 0.0}
                results[phase] = result
                if not search:
                    continue
                await self.single_slice(clients, seconds)
                low, high = SEARCH_RANGE
                for _ in range(SEARCH_PROBES):
                    rate = (low + high) / 2
                    outcome = await self.segment(
                        clients, phase, rate, seconds * PROBE_SHARE)
                    if _meets_slo(outcome, 99):
                        result["max_rps"] = max(result["max_rps"], rate)
                    if _meets_slo(outcome, 50):
                        result["capacity_rps"] = low = rate
                    else:
                        high = rate
                if phase == "batch":
                    busy = await self.segment(
                        clients, phase, None, seconds * BATCH_LOOP_SHARE)
                    result["throughput_rps"] = median(
                        block_rates(busy, BLOCK_ANSWERS))
                await self.single_slice(clients, seconds)
        finally:
            for client in clients:
                await client.close()
        if self.single_rates and "single" in results:
            results["single"]["throughput_rps"] = median(self.single_rates)
        return results


class Inputs:
    """A scratch directory in the checkout holding the policy checkpoint,
    the request inputs and their checker; removed on exit."""

    def __init__(self, seed):
        from repro.config import SingleHopConfig

        self.workdir = os.path.join(WORK, f"serve-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        try:
            self.checkpoint = make_checkpoint(self.workdir, seed)
            self.requests = Requests(observation_pool(seed))
        except BaseException:
            self.remove()
            raise
        self.checker = Checker(self.requests, SingleHopConfig().n_actions)

    def remove(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.remove()


def _latency_named(phase, outcome):
    # A phase with no answer at all has failed every request; its
    # latencies read 0 and the run is not correct.
    ms = [t * 1e3 for t in outcome.latencies] or [0.0]
    return {
        f"{phase}.p50_ms": metric(median(ms), "ms"),
        f"{phase}.p90_ms": metric(percentile(ms, 90), "ms"),
        f"{phase}.p99_ms": metric(percentile(ms, 99), "ms"),
        f"{phase}.sparse_requests": metric(len(outcome.latencies), "count"),
    }


def run(workload, seed, seconds):
    """Untraced run; returns the result dict for :func:`common.emit`."""
    with Inputs(seed) as inputs:
        setups = []

        def timed_start():
            server = Server(inputs.checkpoint)
            setups.append(server.setup_s)
            return server

        # Half the starts before the load and half after, so that their
        # median covers the same stretch of host speed as the load.
        for _ in range(SETUP_REPEATS // 2):
            timed_start().stop()
        server = timed_start()
        try:
            session = Session(server.port, inputs.requests, inputs.checker)
            results = asyncio.run(session.drive(seconds))
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        while len(setups) < SETUP_REPEATS:
            timed_start().stop()
        mismatches = inputs.checker.reference_failures(inputs.checkpoint)

    failed = session.errors + session.wrong + mismatches
    named = {}
    for phase, result in results.items():
        named.update(_latency_named(phase, result["sparse"]))
        named[f"{phase}.max_rps_at_slo"] = metric(result["max_rps"], "1/s")
        named[f"{phase}.capacity_rps"] = metric(result["capacity_rps"], "1/s")
        named[f"{phase}.throughput_rps"] = metric(
            result["throughput_rps"], "1/s")
    named["setup_s"] = metric(median(setups), "s")
    named["peak_rss_mb"] = metric(rss, "MB")
    named["failed_frac"] = metric(failed / session.sent, "frac")
    named["reference_mismatches"] = metric(mismatches, "count")
    named["loadgen.late_p99_ms"] = metric(
        percentile(session.late, 99) * 1e3, "ms")
    return {
        "correct": failed == 0,
        "attempted": session.sent,
        "failed": failed,
        "metrics": {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "p50_ms": named["single.p50_ms"],
            "rate_per_s": named["single.throughput_rps"],
        },
        "report": {"named": named},
    }


# -- traced run ---------------------------------------------------------------

def _serving_layers(phase, result):
    """Per-layer serving metrics of one phase's sparse segment."""
    before, after = result["server"]
    outcome = result["sparse"]

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    waits = after["perfbench"]["queue_wait_us"]
    flushes = delta("flush_reasons", "size") + delta("flush_reasons", "time")
    batches = delta("batch_occupancy", "count")
    engine_calls = delta("perfbench", "engine_calls")
    requests = delta("perfbench", "requests")
    service_us = 1e6 * sum(outcome.service) / len(outcome.service)
    queue_us = sum(waits) / len(waits)
    engine_us = delta("perfbench", "engine_request_ns") / requests / 1e3
    prefix = f"serving.{phase}."
    return {
        prefix + "queue_wait_us_p50": metric(median(waits), "us"),
        prefix + "queue_wait_us_p99": metric(percentile(waits, 99), "us"),
        prefix + "timer_flush_frac": metric(
            delta("flush_reasons", "time") / flushes, "frac"),
        prefix + "rows_per_batch": metric(
            delta("batch_occupancy", "sum") / batches, "count"),
        prefix + "engine_us_per_batch": metric(
            delta("perfbench", "engine_ns") / engine_calls / 1e3, "us"),
        prefix + "forward_us_per_batch": metric(
            delta("perfbench", "forward_ns")
            / delta("perfbench", "forward_calls") / 1e3, "us"),
        prefix + "engine_busy_frac": metric(
            delta("perfbench", "engine_ns") / (outcome.elapsed * 1e9),
            "frac"),
        prefix + "http_self_us": metric(
            service_us - queue_us - engine_us, "us"),
        prefix + "rejected": metric(delta("rejected"), "count"),
    }


def run_traced(workload, seed, seconds):
    """The single phase against a plain server, then both phases against
    the traced launcher; per-layer metrics and the tracing overhead."""
    sessions, outcomes = [], []
    with Inputs(seed) as inputs:
        for traced, phases in ((False, ("single",)),
                               (True, ("single", "batch"))):
            server = Server(inputs.checkpoint, traced=traced)
            try:
                session = Session(server.port, inputs.requests,
                                  inputs.checker)
                outcomes.append(asyncio.run(
                    session.drive(seconds, phases=phases, search=False)))
                sessions.append(session)
            finally:
                server.stop()
        mismatches = inputs.checker.reference_failures(inputs.checkpoint)

    plain, traced = outcomes
    layers = {}
    for phase, result in traced.items():
        layers.update(_serving_layers(phase, result))
    late = [x for s in sessions for x in s.late]
    layers["loadgen.late_p99_ms"] = metric(percentile(late, 99) * 1e3, "ms")
    untraced_p50 = median(plain["single"]["sparse"].latencies)
    traced_p50 = median(traced["single"]["sparse"].latencies)
    layers["tracing.overhead_pct"] = metric(
        100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
    sent = sum(s.sent for s in sessions)
    failed = sum(s.errors + s.wrong for s in sessions) + mismatches
    return {
        "correct": failed == 0,
        "attempted": sent,
        "failed": failed,
        "layers": layers,
        "report": {"named": {
            "single.p50_ms.untraced": metric(untraced_p50 * 1e3, "ms"),
            "single.p50_ms.traced": metric(traced_p50 * 1e3, "ms"),
        }},
    }
