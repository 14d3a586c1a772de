"""Training workloads: ``train_fig3`` and ``train_sharded``.

Both build an arm through ``build_framework`` with the Fig. 3 ``full``
settings (T=50, ``_TRAIN_KW``, ``_VQC_KW``), take the median of several
set-ups (build plus one warm-up epoch), then call ``train_epoch`` until the
run's time is spent.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import family_peak_rss_mb, median, metric, percentile
from tracer import LayerTracer

# name: (arm, rollout_envs, episodes_per_epoch, rollout_workers)
WORKLOADS = {
    "train_fig3": ("proposed", 4, 4, 1),
    "train_sharded": ("comp2", 64, 64, 2),
}
EPISODE_LIMIT = 50
SETUP_REPEATS = 21
GRAD_CHECK_TOL = 1e-8
GRAD_CHECK_ROWS = 32


def build(workload, seed):
    """One arm with the Fig. 3 ``full`` settings for ``workload``."""
    from repro.config import replace
    from repro.experiments.fig3 import preset_settings
    from repro.marl.frameworks import build_framework

    arm, envs, episodes, workers = WORKLOADS[workload]
    _, env_config, train_config, vqc_config, _ = preset_settings("full")
    if env_config.episode_limit != EPISODE_LIMIT:
        raise RuntimeError("the full preset no longer runs T=50 episodes")
    train_config = replace(train_config, episodes_per_epoch=episodes)
    return build_framework(
        arm, seed=seed, env_config=env_config, vqc_config=vqc_config,
        train_config=train_config, rollout_envs=envs, rollout_workers=workers,
    )


def set_up(workload, seed):
    """Build and warm one framework; returns ``(framework, seconds)``."""
    start = time.perf_counter()
    framework = build(workload, seed)
    try:
        framework.trainer.train_epoch()
    except BaseException:
        framework.close()
        raise
    return framework, time.perf_counter() - start


def _restarts(trainer):
    collector = trainer._sharded_collector
    return 0 if collector is None else collector.total_restarts


def epoch_ok(record):
    keys = ("critic_loss", "actor_loss", "total_reward")
    return all(math.isfinite(record[k]) for k in keys)


def run_epochs(framework, seconds):
    """``train_epoch`` until ``seconds`` pass.

    Returns ``(times_s, attempted, failed)``; an epoch fails when it
    raises (which ends the loop), yields a non-finite loss or reward, or
    restarts a rollout worker.
    """
    trainer = framework.trainer
    times, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        restarts = _restarts(trainer)
        attempted += 1
        start = time.perf_counter()
        try:
            record = trainer.train_epoch()
        except Exception as exc:  # noqa: BLE001 — counted, then stop
            print(f"# epoch raised {type(exc).__name__}: {exc}")
            failed += 1
            break
        times.append(time.perf_counter() - start)
        if not epoch_ok(record) or _restarts(trainer) != restarts:
            failed += 1
    return times, attempted, failed


def gradient_check(framework, seed):
    """Adjoint vs parameter-shift gradients on a batch from the run.

    Applies to quantum arms: the stacked actor call (per-sample weights,
    all agents) and the online critic call, each with a seeded upstream.
    Returns ``(checks, failures)``.
    """
    from repro.marl.actors import QuantumActorGroup
    from repro.marl.critics import QuantumCentralCritic
    from repro.quantum.gradients import backward

    trainer = framework.trainer
    batch = trainer.buffer.batch()
    rng = np.random.default_rng(seed)
    cases = []
    actors = trainer.actors
    if isinstance(actors, QuantumActorGroup):
        obs = np.asarray(batch.observations[:GRAD_CHECK_ROWS], dtype=float)
        weights = np.stack([a.layer.weights.data for a in actors.actors])
        cases.append((
            actors._circuit, actors._observables,
            obs.reshape(-1, obs.shape[-1]), np.tile(weights, (len(obs), 1)),
        ))
    critic = trainer.critic
    if isinstance(critic, QuantumCentralCritic):
        vqc = critic.layer.vqc
        cases.append((
            vqc.circuit, vqc.observables,
            np.asarray(batch.states[:GRAD_CHECK_ROWS], dtype=float),
            critic.layer.weights.data,
        ))
    failures = 0
    for circuit, observables, inputs, weights in cases:
        upstream = rng.standard_normal((inputs.shape[0], len(observables)))
        _, adjoint = backward(circuit, observables, inputs, weights,
                              upstream, method="adjoint")
        _, shift = backward(circuit, observables, inputs, weights,
                            upstream, method="parameter_shift")
        error = float(np.max(np.abs(adjoint - shift)))
        if not error <= GRAD_CHECK_TOL:
            print(f"# gradient check failed: max |adjoint - shift| = {error}")
            failures += 1
    return len(cases), failures


def _named(workload, times, setups, rss_mb, attempted, failed):
    """Every end-to-end metric of one training run, by its full name."""
    episodes = WORKLOADS[workload][2]
    ms = [t * 1e3 for t in times]
    return {
        "epoch_ms_p50": metric(median(ms), "ms"),
        # >= 100 epochs per run leave >= 10 beyond p90.
        "epoch_ms_p90": metric(percentile(ms, 90), "ms"),
        "epochs": metric(len(ms), "count"),
        "steps_per_s": metric(
            len(times) * episodes * EPISODE_LIMIT / sum(times), "1/s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "failed_frac": metric(failed / attempted, "frac"),
    }


def run(workload, seed, seconds):
    """Untraced run; returns the result dict for :func:`common.emit`.

    Half the set-ups run before the measured epochs and half after, so
    their median covers the same stretch of host speed as the epochs.
    """
    setups = []

    def timed_set_up():
        framework, took = set_up(workload, seed)
        setups.append(took)
        return framework

    for _ in range(SETUP_REPEATS // 2):
        timed_set_up().close()
    framework = timed_set_up()
    try:
        times, attempted, failed = run_epochs(framework, seconds)
        checks, check_failures = gradient_check(framework, seed)
        rss = family_peak_rss_mb()
    finally:
        framework.close()
    while len(setups) < SETUP_REPEATS:
        timed_set_up().close()
    attempted += checks
    failed += check_failures
    named = _named(workload, times, setups, rss, attempted, failed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "p50_ms": named["epoch_ms_p50"],
            "rate_per_s": named["steps_per_s"],
        },
        "report": {"named": named},
    }


# -- traced run ---------------------------------------------------------------

def _episode_bytes(result):
    episodes, _ = result
    fields = ("states", "observations", "actions", "rewards", "next_states",
              "next_observations", "dones")
    return sum(getattr(ep, f).nbytes for ep in episodes for f in fields)


def install_training_tracer(tracer, collected_bytes):
    """Wrap the public entry points of every training layer."""
    from repro.envs.vector import VectorEnv
    from repro.marl import actors as actors_module
    from repro.marl import critics as critics_module
    from repro.marl import trainer as trainer_module
    from repro.marl.actors import ActorGroup
    from repro.marl.parallel import ShardedRolloutCollector
    from repro.marl.parallel.worker import ShardActionAdapter
    from repro.marl.trainer import CTDETrainer
    from repro.nn.optim import Adam
    from repro.quantum.backends import StatevectorBackend
    from repro.quantum.compile import CompiledCircuit

    def input_rows(args, kwargs, result):
        return len(args[2])

    def result_rows(args, kwargs, result):
        return int(np.shape(result)[0])

    def action_rows(args, kwargs, result):
        return int(np.size(result))

    wrap = tracer.wrap
    wrap(CTDETrainer, "train_epoch", "trainer.epoch")
    wrap(CTDETrainer, "collect_episodes", "trainer.rollout")
    wrap(CTDETrainer, "update", "trainer.update")
    wrap(ShardedRolloutCollector, "collect", "parallel.collect",
         on_result=lambda result: collected_bytes.append(
             _episode_bytes(result)))
    wrap(VectorEnv, "step", "envs.step")
    wrap(ActorGroup, "act_batch", "actors.act_batch", rows=action_rows)
    wrap(ShardActionAdapter, "act_batch", "actors.act_batch",
         rows=action_rows)
    wrap(actors_module, "_qbackward", "actors.adjoint", rows=input_rows)
    wrap(trainer_module, "paired_critic_values", "critics.forward",
         rows=input_rows)
    wrap(critics_module, "_qbackward", "critics.adjoint", rows=input_rows)
    wrap(StatevectorBackend, "run", "quantum.forward", rows=result_rows)
    wrap(CompiledCircuit, "run", "quantum.forward", rows=result_rows)
    wrap(CompiledCircuit, "run_rows", "quantum.forward", rows=result_rows)
    wrap(Adam, "step", "optim.step")


def training_layers(tracer, epochs, n_workers, collected_bytes, restarts):
    """Per-epoch per-layer metrics from a traced segment."""
    from repro import obs

    counters = obs.snapshot()["counters"]
    tracer.merge_worker_counters(counters)

    def per_epoch_ms(name, field="total_ns"):
        return tracer.get(name, field) / epochs / 1e6

    def per_epoch(name, field):
        return tracer.get(name, field) / epochs

    out = {}
    for layer in ("trainer.rollout", "trainer.update", "actors.act_batch",
                  "critics.forward", "parallel.collect", "trainer.epoch"):
        out[f"{layer}_ms"] = metric(per_epoch_ms(layer), "ms")
        out[f"{layer}_self_ms"] = metric(per_epoch_ms(layer, "self_ns"), "ms")
    for layer in ("envs.step", "actors.adjoint", "critics.adjoint",
                  "quantum.forward", "optim.step"):
        out[f"{layer}_ms"] = metric(per_epoch_ms(layer), "ms")
    out["envs.step_calls"] = metric(per_epoch("envs.step", "calls"), "count")
    out["actors.act_rows"] = metric(
        per_epoch("actors.act_batch", "rows"), "count")
    for layer in ("actors.adjoint", "critics.adjoint", "quantum.forward"):
        out[f"{layer}_rows"] = metric(per_epoch(layer, "rows"), "count")
    collect_ns = tracer.get("parallel.collect", "total_ns")
    busy_ns = counters.get("span.worker.collect.total_ns", 0)
    out["parallel.worker_busy_ms"] = metric(busy_ns / epochs / 1e6, "ms")
    out["parallel.idle_frac"] = metric(
        1.0 - busy_ns / (n_workers * collect_ns) if collect_ns else 0.0,
        "frac")
    out["parallel.bytes_per_epoch"] = metric(
        sum(collected_bytes) / epochs, "bytes")
    out["parallel.restarts"] = metric(restarts, "count")
    return out


def run_traced(workload, seed, seconds):
    """Half the time untraced, half traced on an identically seeded
    framework; per-layer metrics and the tracing overhead."""
    from repro import obs

    workers = WORKLOADS[workload][3]
    framework, _ = set_up(workload, seed)
    try:
        plain_times, attempted, failed = run_epochs(framework, seconds / 2)
    finally:
        framework.close()

    tracer = LayerTracer()
    collected_bytes = []
    install_training_tracer(tracer, collected_bytes)
    # Workers ship worker.collect totals (and their own layer totals) back
    # only while telemetry is on.
    previous = obs.set_enabled(workers > 1)
    try:
        framework, _ = set_up(workload, seed)
        try:
            tracer.reset()
            collected_bytes.clear()
            obs.reset()
            times, more_attempted, more_failed = run_epochs(
                framework, seconds / 2)
            restarts = _restarts(framework.trainer)
        finally:
            framework.close()
        layers = training_layers(
            tracer, max(1, len(times)), workers, collected_bytes, restarts)
    finally:
        obs.set_enabled(previous)
        tracer.uninstall()
    attempted += more_attempted
    failed += more_failed
    overhead = median(times) / median(plain_times) - 1.0
    layers["tracing.overhead_pct"] = metric(100.0 * overhead, "%")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "report": {"named": {
            "epoch_ms_p50.untraced": metric(median(plain_times) * 1e3, "ms"),
            "epoch_ms_p50.traced": metric(median(times) * 1e3, "ms"),
        }},
    }
