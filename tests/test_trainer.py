"""Unit tests for the CTDE trainer (Algorithm 1)."""

import json

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.marl.actors import ActorGroup, ClassicalActor, RandomActor
from repro.marl.frameworks import build_framework
from repro.marl.critics import ClassicalCentralCritic
from repro.marl.trainer import CTDETrainer, rollout_episode
from repro.obs import flight


def tiny_setup(seed=0, episode_limit=6, initial_queue_level=0.5,
               **train_overrides):
    env_config = SingleHopConfig(
        episode_limit=episode_limit, initial_queue_level=initial_queue_level
    )
    rng = np.random.default_rng(seed)
    env = SingleHopOffloadEnv(env_config, rng=np.random.default_rng(seed + 1))
    actors = ActorGroup(
        [
            ClassicalActor(
                env_config.observation_size, env_config.n_actions, (5,), rng
            )
            for _ in range(env_config.n_agents)
        ]
    )
    critic = ClassicalCentralCritic(env_config.state_size, (4,), rng)
    target = ClassicalCentralCritic(
        env_config.state_size, (4,), np.random.default_rng(seed + 2)
    )
    defaults = {
        "n_epochs": 3,
        "episodes_per_epoch": 2,
        "gamma": 0.9,
        "actor_lr": 1e-2,
        "critic_lr": 1e-2,
        "target_update_period": 2,
    }
    defaults.update(train_overrides)
    config = TrainingConfig(**defaults)
    trainer = CTDETrainer(env, actors, critic, target, config, rng)
    return trainer


class TestRolloutEpisode:
    def test_episode_and_stats_consistent(self):
        trainer = tiny_setup()
        episode, stats = rollout_episode(
            trainer.env, trainer.actors, np.random.default_rng(3)
        )
        assert episode.length == 6
        assert stats["length"] == 6
        assert stats["total_reward"] == pytest.approx(episode.total_reward)
        assert 0.0 <= stats["mean_queue"] <= 1.0

    def test_greedy_rollout(self):
        trainer = tiny_setup()
        episode, _ = rollout_episode(
            trainer.env, trainer.actors, np.random.default_rng(3), greedy=True
        )
        assert episode.length == 6

    def test_random_group_rollout(self):
        trainer = tiny_setup()
        group = ActorGroup([RandomActor(4) for _ in range(4)])
        episode, stats = rollout_episode(
            trainer.env, group, np.random.default_rng(0)
        )
        assert episode.length == 6


class TestTrainerMechanics:
    def test_agent_count_mismatch_rejected(self):
        trainer = tiny_setup()
        group = ActorGroup([RandomActor(4)])
        with pytest.raises(ValueError):
            CTDETrainer(
                trainer.env, group, trainer.critic, trainer.target_critic,
                trainer.config, trainer.rng,
            )

    def test_target_initialised_to_critic(self):
        trainer = tiny_setup()
        states = np.random.default_rng(5).uniform(size=(3, 16))
        assert np.allclose(
            trainer.critic.values(states), trainer.target_critic.values(states)
        )

    def test_update_changes_parameters(self):
        trainer = tiny_setup()
        before_actor = [p.data.copy() for p in trainer.actors.parameters()]
        before_critic = [p.data.copy() for p in trainer.critic.parameters()]
        trainer.train_epoch()
        after_actor = trainer.actors.parameters()
        after_critic = trainer.critic.parameters()
        assert any(
            not np.allclose(b, a.data)
            for b, a in zip(before_actor, after_actor)
        )
        assert any(
            not np.allclose(b, a.data)
            for b, a in zip(before_critic, after_critic)
        )

    def test_target_sync_period(self):
        trainer = tiny_setup(target_update_period=2)
        trainer.train_epoch()  # epoch 1: no sync
        states = np.random.default_rng(5).uniform(size=(3, 16))
        diverged = not np.allclose(
            trainer.critic.values(states), trainer.target_critic.values(states)
        )
        assert diverged
        trainer.train_epoch()  # epoch 2: sync
        assert np.allclose(
            trainer.critic.values(states), trainer.target_critic.values(states)
        )

    @pytest.mark.parametrize("arm", ["classical", "proposed"])
    def test_nonfinite_update_refused_with_weights_untouched(
        self, tmp_path, arm
    ):
        """A NaN reward makes the loss and gradients NaN; clipping cannot
        catch a NaN norm, so the update itself must refuse to step."""
        if arm == "classical":
            trainer = tiny_setup()
        else:
            trainer = build_framework(
                "proposed", seed=3,
                env_config=SingleHopConfig(episode_limit=4),
                train_config=TrainingConfig(episodes_per_epoch=1),
            ).trainer
        episodes, _ = trainer.collect_episodes(1)
        trainer.buffer.add_episodes(episodes)
        batch = trainer.buffer.batch()
        batch.rewards[0] = np.nan
        params = (
            list(trainer.critic.parameters())
            + list(trainer.actors.parameters())
        )
        before = [p.data.copy() for p in params]
        prior_dir = flight.set_dump_dir(str(tmp_path))
        prior_enabled = flight.set_enabled(True)
        try:
            with pytest.raises(FloatingPointError, match="non-finite"):
                trainer.update(batch)
        finally:
            flight.set_enabled(prior_enabled)
            flight.set_dump_dir(prior_dir)
        assert all(np.array_equal(b, p.data) for b, p in zip(before, params))
        (dump,) = tmp_path.glob("flight-nonfinite_update-*.json")
        document = json.loads(dump.read_text())
        assert document["reason"] == "nonfinite_update"
        assert np.isnan(document["extra"]["critic_loss"])

    def test_history_records(self):
        trainer = tiny_setup()
        trainer.train(n_epochs=3)
        assert trainer.history.n_epochs == 3
        record = trainer.history.records[-1]
        for key in (
            "epoch", "total_reward", "mean_queue", "empty_ratio",
            "overflow_ratio", "critic_loss", "actor_loss",
            "mean_abs_td_error", "mean_value",
        ):
            assert key in record

    def test_buffer_cleared_each_epoch(self):
        trainer = tiny_setup(episodes_per_epoch=2)
        trainer.train_epoch()
        assert trainer.buffer.n_episodes == 2  # this epoch's episodes only
        trainer.train_epoch()
        assert trainer.buffer.n_episodes == 2

    def test_callback_receives_records(self):
        trainer = tiny_setup()
        seen = []
        trainer.train(n_epochs=2, callback=seen.append)
        assert len(seen) == 2
        assert seen[0]["epoch"] == 1

    def test_callback_stop_iteration(self):
        trainer = tiny_setup()

        def stop_after_one(record):
            raise StopIteration

        trainer.train(n_epochs=5, callback=stop_after_one)
        assert trainer.history.n_epochs == 1

    def test_evaluate(self):
        trainer = tiny_setup()
        stats = trainer.evaluate(n_episodes=2)
        assert set(stats) == {
            "total_reward", "length", "mean_queue", "empty_ratio",
            "overflow_ratio",
        }

    def test_no_grad_clip(self):
        trainer = tiny_setup(grad_clip=None)
        trainer.train_epoch()  # must not raise

    def test_entropy_coef_path(self):
        trainer = tiny_setup(entropy_coef=0.05)
        record = trainer.train_epoch()
        assert np.isfinite(record["actor_loss"])


class TestVectorizedCollection:
    """Determinism regressions for the vectorized rollout engine.

    The serial-vs-batched comparison loops live in the cross-engine
    equivalence harness (``tests.helpers``), shared with the sharded
    engine's suite — one pinned contract, three engines.
    """

    @pytest.mark.parametrize("initial_queue_level", [0.5, "uniform"])
    def test_vector_n1_bit_identical_to_serial(self, initial_queue_level):
        """Same seed => bit-identical episodes/metrics/streams, serial vs
        N=1, through the shared harness."""
        from tests.helpers import assert_cross_engine_equivalence

        assert_cross_engine_equivalence(
            "single_hop",
            ("serial", "vector"),
            n_envs=1,
            n_workers=1,
            n_epochs=3,
            episode_limit=6,
            env_kwargs={"initial_queue_level": initial_queue_level},
        )

    def test_vector_n1_bit_identical_quantum(self):
        """The quantum framework's batched inference path is also exact."""
        env_config = SingleHopConfig(episode_limit=5)
        records = {}
        for mode in ("serial", "vector"):
            train = TrainingConfig(
                episodes_per_epoch=2, actor_lr=1e-3, critic_lr=1e-3,
                rollout_mode=mode, rollout_envs=1,
            )
            fw = build_framework(
                "proposed", seed=7, env_config=env_config, train_config=train
            )
            records[mode] = [fw.trainer.train_epoch() for _ in range(2)]
        for record_s, record_v in zip(records["serial"], records["vector"]):
            for key in record_s:
                assert record_s[key] == record_v[key], key

    def test_vector_n8_run_to_run_deterministic(self):
        """Same seed => identical metrics across runs at N=8."""
        def run():
            trainer = tiny_setup(
                seed=5, episodes_per_epoch=8, rollout_envs=8
            )
            assert trainer.vectorized_rollouts
            assert trainer.rollout_envs == 8
            return [trainer.train_epoch() for _ in range(2)]

        assert run() == run()

    def test_rollout_envs_clamped_to_episodes_per_epoch(self):
        trainer = tiny_setup(episodes_per_epoch=2, rollout_envs=16)
        assert trainer.rollout_envs == 2
        record = trainer.train_epoch()
        assert trainer.buffer.n_episodes == 2
        assert np.isfinite(record["total_reward"])

    def test_rollout_envs_clamped_to_divisor(self):
        """A non-divisor copy count would discard whole episodes each epoch."""
        trainer = tiny_setup(episodes_per_epoch=6, rollout_envs=4)
        assert trainer.rollout_envs == 3
        trainer.train_epoch()
        assert trainer.buffer.n_episodes == 6
        assert tiny_setup(episodes_per_epoch=7, rollout_envs=4).rollout_envs == 1
        assert tiny_setup(episodes_per_epoch=8, rollout_envs=4).rollout_envs == 4

    def test_auto_mode_engages_vector_path(self):
        assert not tiny_setup(rollout_envs=1).vectorized_rollouts
        assert tiny_setup(episodes_per_epoch=4, rollout_envs=4).vectorized_rollouts

    def test_collect_episodes_matches_serial_accounting(self):
        trainer = tiny_setup(episodes_per_epoch=4, rollout_envs=4)
        episodes, stats = trainer.collect_episodes(4)
        assert len(episodes) == 4 and len(stats) == 4
        for episode, stat in zip(episodes, stats):
            assert episode.length == 6
            assert stat["length"] == 6
            assert stat["total_reward"] == pytest.approx(episode.total_reward)
            assert set(stat) == {
                "total_reward", "length", "mean_queue", "empty_ratio",
                "overflow_ratio",
            }

    def test_vectorized_training_updates_parameters(self):
        trainer = tiny_setup(episodes_per_epoch=4, rollout_envs=4)
        before = [p.data.copy() for p in trainer.actors.parameters()]
        trainer.train_epoch()
        after = trainer.actors.parameters()
        assert any(
            not np.allclose(b, a.data) for b, a in zip(before, after)
        )
