"""Round-trip tests for the parent-worker pipe protocol
(``repro.marl.parallel.transport``).

Arbitrary episode batches and reply arrays cross a real worker process
through :class:`PipeChannel` / :class:`WorkerEndpoint` bit-exactly.
"""

import contextlib
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marl.buffer import Episode
from repro.marl.parallel.transport import PipeChannel, WorkerEndpoint

from tests.helpers import EPISODE_COLUMNS


def _echo_worker(connection):
    endpoint = WorkerEndpoint(connection)
    while True:
        try:
            message = endpoint.recv()
        except (EOFError, OSError):
            break
        if message[0] == "close":
            endpoint.send_ok(None)
            break
        endpoint.send_ok(message[1])
    endpoint.close()


@contextlib.contextmanager
def echo_channel():
    """A parent channel to a forked worker that replies with its payload."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_echo_worker, args=(child_end,), daemon=True
    )
    process.start()
    child_end.close()
    channel = PipeChannel(process, parent_end)
    try:
        yield channel
        channel.send(("close",))
        channel.recv()
    finally:
        channel.close()
        process.join(timeout=10.0)
        if process.is_alive():
            process.kill()


@st.composite
def episode_batches(draw, max_episodes=3, max_steps=4):
    """Small random transition batches with varying shapes."""
    n_episodes = draw(st.integers(1, max_episodes))
    n_steps = draw(st.integers(1, max_steps))
    n_agents = draw(st.integers(1, 3))
    obs_size = draw(st.integers(1, 5))
    state_size = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    episodes = []
    for _ in range(n_episodes):
        episode = Episode()
        for t in range(n_steps):
            episode.add(
                rng.normal(size=state_size),
                rng.normal(size=(n_agents, obs_size)),
                rng.integers(0, 4, size=n_agents),
                float(rng.normal()),
                rng.normal(size=state_size),
                rng.normal(size=(n_agents, obs_size)),
                t == n_steps - 1,
            )
        episodes.append(episode.finish())
    return episodes


class TestEndToEndTransports:
    """Arbitrary payloads through the full worker protocol."""

    @settings(max_examples=10, deadline=None)
    @given(episodes=episode_batches())
    def test_collect_reply_roundtrip(self, episodes):
        """A collect-shaped reply (episodes + control payload) crosses a
        real worker process bit-exactly."""
        payload = {
            "episodes": episodes,
            "stats": [{"total_reward": e.total_reward} for e in episodes],
            "marker": 123,
        }
        with echo_channel() as channel:
            channel.send(("echo", payload))
            result = channel.recv()
        assert result["marker"] == 123
        assert result["stats"] == payload["stats"]
        assert len(result["episodes"]) == len(episodes)
        for sent, got in zip(episodes, result["episodes"]):
            for column in EPISODE_COLUMNS:
                assert np.array_equal(
                    getattr(sent, column), getattr(got, column)
                ), column


class TestArrayReplyBlocks:
    """Reply arrays — the serving tier's probability blocks — keep their
    dtype, shape and values across the pipe."""

    def test_arrays_roundtrip(self):
        rng = np.random.default_rng(11)
        arrays = [
            rng.normal(size=(3, 4)),
            np.array([], dtype=np.int64),
            rng.normal(size=(2, 2, 2)).astype(np.float32),
            np.asarray(7.5),
        ]
        with echo_channel() as channel:
            channel.send(("echo", {"arrays": arrays, "generation": 3}))
            result = channel.recv()
        assert result["generation"] == 3
        assert len(result["arrays"]) == len(arrays)
        for sent, got in zip(arrays, result["arrays"]):
            assert got.dtype == sent.dtype
            assert got.shape == sent.shape
            assert np.array_equal(got, sent)
