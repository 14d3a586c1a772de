"""Unit tests for circuit compilation (cached variational unitaries)."""

import gc
import weakref

import numpy as np
import pytest

from repro.marl.actors import QuantumActor, QuantumActorGroup
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.compile import CompiledCircuit, compiled_circuit, split_index
from repro.quantum.vqc import build_vqc


class TestSplitIndex:
    def test_standard_vqc_splits_after_encoding(self):
        vqc = build_vqc(4, 16, 50, seed=1)
        assert split_index(vqc.circuit) == 16

    def test_no_inputs_compiles_everything(self):
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("cnot", (0, 1))
        assert split_index(circuit) == 0

    def test_interleaved_inputs_limit_suffix(self):
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("ry", (0,), ParameterRef.input(0))
        circuit.add("rz", (1,), ParameterRef.weight(1))
        assert split_index(circuit) == 2


class TestCompiledEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_uncompiled_backend(self, rng, seed):
        vqc = build_vqc(4, 8, 30, seed=seed)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(6, 8))
        exact = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        compiled = CompiledCircuit(vqc.circuit, vqc.observables)
        assert np.allclose(compiled.run(inputs, weights), exact, atol=1e-12)

    def test_per_sample_weights_match(self, rng):
        vqc = build_vqc(3, 3, 12, seed=4)
        weights = np.stack([vqc.initial_weights(rng) for _ in range(4)])
        inputs = rng.uniform(size=(4, 3))
        exact = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        compiled = CompiledCircuit(vqc.circuit, vqc.observables)
        assert np.allclose(compiled.run(inputs, weights), exact, atol=1e-12)

    def test_suffix_unitary_is_unitary(self, rng):
        vqc = build_vqc(3, 3, 15, seed=5)
        weights = vqc.initial_weights(rng)
        compiled = CompiledCircuit(vqc.circuit)
        unitary = compiled.suffix_unitary(weights)
        assert np.allclose(
            unitary @ unitary.conj().T, np.eye(8), atol=1e-10
        )

    def test_evolve_without_inputs(self, rng):
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("rx", (1,), ParameterRef.weight(0))
        compiled = CompiledCircuit(circuit)
        psi = compiled.evolve(weights=np.array([0.7]), batch_size=3)
        exact = StatevectorBackend().evolve(
            circuit, None, np.array([0.7]), batch_size=3
        )
        assert np.allclose(psi, exact, atol=1e-12)


class TestCaching:
    def test_cache_hit_returns_same_object(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)
        compiled = CompiledCircuit(vqc.circuit)
        first = compiled.suffix_unitary(weights)
        second = compiled.suffix_unitary(weights.copy())
        assert first is second  # content-equal weights hit the cache

    def test_inplace_mutation_invalidates(self, rng):
        """Adam mutates weight arrays in place; the cache must notice."""
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)
        compiled = CompiledCircuit(vqc.circuit, vqc.observables)
        inputs = rng.uniform(size=(2, 2))
        before = compiled.run(inputs, weights)
        weights += 0.3  # in-place update, same array object
        after = compiled.run(inputs, weights)
        exact = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert not np.allclose(before, after)
        assert np.allclose(after, exact, atol=1e-12)

    def test_manual_invalidate(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)
        compiled = CompiledCircuit(vqc.circuit)
        first = compiled.suffix_unitary(weights)
        compiled.invalidate()
        second = compiled.suffix_unitary(weights)
        assert first is not second
        assert np.allclose(first, second)

    def test_weight_row_mismatch_rejected(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = np.stack([vqc.initial_weights(rng) for _ in range(3)])
        compiled = CompiledCircuit(vqc.circuit, vqc.observables)
        with pytest.raises(ValueError):
            compiled.run(rng.uniform(size=(2, 2)), weights)

    def test_ensemble_weights_cycle_over_batch(self, rng):
        """Batch k*G with G weight rows: row b uses weight row b % G."""
        vqc = build_vqc(3, 3, 12, seed=5)
        n_sets, k = 3, 4
        weights = np.stack([vqc.initial_weights(rng) for _ in range(n_sets)])
        inputs = rng.uniform(size=(k * n_sets, 3))
        compiled = CompiledCircuit(vqc.circuit, vqc.observables)
        outputs = compiled.run(inputs, weights)
        exact = StatevectorBackend().run(
            vqc.circuit,
            vqc.observables,
            inputs,
            np.tile(weights, (k, 1)),
        )
        assert np.allclose(outputs, exact, atol=1e-12)
        # Only the distinct suffix unitaries are cached, keyed
        # independently of the batch tiling factor.
        assert compiled._cached_unitary.shape[0] == n_sets
        cached = compiled._cached_unitary
        compiled.run(inputs[: 2 * n_sets], weights)
        assert compiled._cached_unitary is cached

    def test_run_without_observables_rejected(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        compiled = CompiledCircuit(vqc.circuit)
        with pytest.raises(ValueError):
            compiled.run(rng.uniform(size=(1, 2)), vqc.initial_weights(rng))

    def test_repr(self):
        vqc = build_vqc(2, 2, 8, seed=6)
        assert "compiled=8 ops" in repr(CompiledCircuit(vqc.circuit))


class TestActorGroupIntegration:
    def test_compiled_group_matches_uncompiled(self, rng):
        vqc = build_vqc(4, 4, 20, seed=7)
        actors = [QuantumActor(vqc, np.random.default_rng(i)) for i in range(4)]
        compiled_group = QuantumActorGroup(actors, compile_rollouts=True)
        plain_group = QuantumActorGroup(actors, compile_rollouts=False)
        observations = [rng.uniform(size=4) for _ in range(4)]
        assert np.allclose(
            compiled_group.team_probabilities(observations),
            plain_group.team_probabilities(observations),
            atol=1e-12,
        )

    def test_compiled_group_tracks_training_updates(self, rng):
        vqc = build_vqc(4, 4, 20, seed=7)
        actors = [QuantumActor(vqc, np.random.default_rng(i)) for i in range(4)]
        group = QuantumActorGroup(actors, compile_rollouts=True)
        observations = [rng.uniform(size=4) for _ in range(4)]
        before = group.team_probabilities(observations)
        for actor in actors:
            actor.layer.weights.data += 0.2  # simulated optimiser step
        after = group.team_probabilities(observations)
        individual = np.concatenate(
            [a.probabilities(o) for a, o in zip(actors, observations)]
        )
        assert not np.allclose(before, after)
        assert np.allclose(after, individual, atol=1e-12)


class TestSharedCompiledCircuit:
    """``compiled_circuit``: one instance per (circuit, array backend)."""

    def test_one_instance_per_circuit_and_backend(self):
        vqc = build_vqc(4, 4, 20, seed=7)
        shared = compiled_circuit(vqc.circuit)
        assert compiled_circuit(vqc.circuit) is shared
        assert compiled_circuit(vqc.circuit, "mock") is not shared
        assert compiled_circuit(build_vqc(4, 4, 20, seed=7).circuit) is not shared

    def test_group_rollout_and_update_share_it(self, rng):
        vqc = build_vqc(4, 4, 20, seed=7)
        group = QuantumActorGroup(
            [QuantumActor(vqc, np.random.default_rng(i)) for i in range(2)]
        )
        assert group._compiled is compiled_circuit(vqc.circuit)

    def test_appending_an_operation_rebuilds(self, rng):
        vqc = build_vqc(2, 2, 4, seed=1)
        stale = compiled_circuit(vqc.circuit)
        vqc.circuit.add("rx", (0,), ParameterRef.input(0))
        fresh = compiled_circuit(vqc.circuit)
        assert fresh is not stale
        assert fresh.n_compiled_operations == 0

    def test_does_not_keep_the_circuit_alive(self, rng):
        vqc = build_vqc(2, 2, 4, seed=1)
        compiled_circuit(vqc.circuit).run(
            rng.uniform(size=(3, 2)), vqc.initial_weights(rng), vqc.observables
        )
        circuit = weakref.ref(vqc.circuit)
        del vqc
        gc.collect()
        assert circuit() is None
