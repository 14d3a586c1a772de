"""The array-backend seam: selection, zero-overhead numpy, mock transfers.

Three contracts under test:

1. **Selection** — name / instance / default resolution, the context
   manager, and ``available_array_backends()``.
2. **Zero-overhead numpy default** — every hot op on the numpy backend is
   the numpy function itself (no wrapper frames), and the boundary
   primitives are identities.
3. **Device residency on mock** — compiled programs upload constants once,
   never re-upload them, never round-trip through the host inside the hot
   loop (the mock raises on any implicit mix), and cross back to the host
   exactly once per measure / adjoint boundary.  A full ``train_epoch`` on
   the mock backend runs transfer-clean and bit-identical to numpy.
"""

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig, VQCConfig
from repro.marl.frameworks import build_framework
from repro.quantum import backend as qback
from repro.quantum import program as qprog
from repro.quantum import statevector as sv
from repro.quantum.backends import StatevectorBackend
from repro.quantum.gradients import adjoint_backward, grouped_adjoint_backward
from repro.quantum.vqc import build_vqc


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def mock():
    backend = qback.get_array_backend("mock")
    backend.reset_counts()
    return backend


def _problem(rng, n_qubits=4, n_features=4, n_weights=12, batch=5, seed=3):
    vqc = build_vqc(n_qubits, n_features, n_weights, seed=seed)
    inputs = rng.uniform(size=(batch, n_features))
    weights = rng.uniform(-np.pi, np.pi, size=n_weights)
    return vqc, inputs, weights


class TestSelection:
    def test_names_resolve_to_singletons(self):
        assert qback.get_array_backend("numpy") is qback.get_array_backend("numpy")
        assert qback.get_array_backend("mock") is qback.get_array_backend("mock")

    def test_instance_passthrough(self):
        backend = qback.get_array_backend("mock")
        assert qback.get_array_backend(backend) is backend

    def test_none_follows_process_default(self):
        assert qback.get_array_backend(None) is qback.default_array_backend()

    def test_unknown_name_rejected(self):
        with pytest.raises((ValueError, ImportError)):
            qback.get_array_backend("not-a-backend")

    def test_context_manager_restores_default(self):
        before = qback.default_array_backend()
        with qback.using_array_backend("mock"):
            assert qback.default_array_backend().name == "mock"
        assert qback.default_array_backend() is before

    def test_available_always_includes_numpy_and_mock(self):
        names = qback.available_array_backends()
        assert names[:2] == ["numpy", "mock"]

    def test_array_namespace_dispatch(self):
        mock = qback.get_array_backend("mock")
        device = mock.asarray(np.zeros(3))
        assert qback.array_namespace(device) is mock
        assert qback.array_namespace(np.zeros(3)).name == "numpy"
        assert qback.array_namespace(None).name == "numpy"


class TestNumpyZeroOverhead:
    def test_hot_ops_are_numpy_functions(self):
        nb = qback.get_array_backend("numpy")
        assert nb.take is np.take
        assert nb.multiply is np.multiply
        assert nb.matmul is np.matmul
        assert nb.einsum is np.einsum
        assert nb.concatenate is np.concatenate
        assert nb.zeros is np.zeros

    def test_boundaries_are_identities(self):
        nb = qback.get_array_backend("numpy")
        x = np.arange(4.0)
        assert nb.device_constant(x) is x
        assert nb.to_host(x) is x
        assert nb.asarray(x) is x


class TestMockProtocol:
    def test_implicit_host_mix_rejected(self, mock):
        device = mock.asarray(np.arange(4.0))
        with pytest.raises(qback.MockTransferError):
            device + np.arange(4.0)
        with pytest.raises(qback.MockTransferError):
            device[np.array([0, 1])]

    def test_scalars_allowed(self, mock):
        device = mock.asarray(np.arange(4.0))
        out = device * 2.0 + np.float64(1.0)
        assert isinstance(out, qback.MockDeviceArray)

    def test_transfer_counters(self, mock):
        device = mock.asarray(np.arange(4.0))
        assert mock.counts["h2d"] == 1
        host = mock.to_host(device)
        assert mock.counts["d2h"] == 1
        assert type(host) is np.ndarray

    def test_device_constant_uploads_once(self, mock):
        table = np.arange(8.0)
        first = mock.device_constant(table)
        second = mock.device_constant(table)
        assert first is second
        assert mock.counts["constant_uploads"] == 1


class TestProgramResidency:
    def test_evolve_bit_identical_and_transfer_clean(self, rng, mock):
        vqc, inputs, weights = _problem(rng)
        reference = qprog.compile_program(vqc.circuit).evolve(
            inputs, weights, batch_size=inputs.shape[0]
        )
        program = qprog.compile_program(vqc.circuit, mock)
        out = program.evolve(inputs, weights, batch_size=inputs.shape[0])
        assert isinstance(out, qback.MockDeviceArray)
        # Bitwise equality: the mock is numpy underneath and the kernels
        # issue the same ops in the same order.
        assert np.array_equal(mock.to_host(out), reference)

    def test_constants_upload_once_across_calls(self, rng, mock):
        vqc, inputs, weights = _problem(rng)
        program = qprog.compile_program(vqc.circuit, mock)
        program.evolve(inputs, weights, batch_size=inputs.shape[0])
        steady = dict(mock.counts)
        program.evolve(inputs, weights, batch_size=inputs.shape[0])
        assert mock.counts["constant_uploads"] == steady["constant_uploads"]
        assert mock.counts["d2h"] == steady["d2h"]  # evolve never downloads

    def test_measure_downloads_exactly_once(self, rng, mock):
        vqc, inputs, weights = _problem(rng)
        backend = StatevectorBackend(array_backend=mock)
        reference = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        mock.reset_counts()
        out = backend.run(vqc.circuit, vqc.observables, inputs, weights)
        assert type(out) is np.ndarray
        assert mock.counts["d2h"] == 1
        assert np.array_equal(out, reference)

    def test_adjoint_downloads_only_gradients(self, rng, mock):
        vqc, inputs, weights = _problem(rng)
        upstream = rng.normal(size=(inputs.shape[0], vqc.n_outputs))
        gi_ref, gw_ref = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        mock.reset_counts()
        gi, gw = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream,
            array_backend=mock,
        )
        assert type(gi) is np.ndarray and type(gw) is np.ndarray
        # One download per returned gradient buffer, nothing mid-sweep.
        assert mock.counts["d2h"] == 2
        assert np.array_equal(gi, gi_ref)
        assert np.array_equal(gw, gw_ref)

    def test_grouped_adjoint_downloads_once(self, rng, mock):
        """The operator-space sweep stays on the device: prefix states, the
        density columns and every gate inversion; only the (G, n_weights)
        gradient crosses back."""
        vqc, inputs, _ = _problem(rng, batch=9)
        weights = rng.uniform(-np.pi, np.pi, size=(3, vqc.n_weights))
        upstream = rng.normal(size=(inputs.shape[0], vqc.n_outputs))
        rows = np.arange(inputs.shape[0]) % 3
        _, gw_ref = grouped_adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream, rows
        )
        mock.reset_counts()
        gi, gw = grouped_adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream, rows,
            array_backend=mock,
        )
        assert gi is None and type(gw) is np.ndarray
        assert mock.counts["d2h"] == 1
        assert np.array_equal(gw, gw_ref)

    def test_sample_bitstrings_converts_explicitly(self, rng, mock):
        psi = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        device = mock.asarray(psi)
        mock.reset_counts()
        host_draws = sv.sample_bitstrings(psi, 16, np.random.default_rng(11))
        device_draws = sv.sample_bitstrings(device, 16, np.random.default_rng(11))
        assert mock.counts["d2h"] == 1
        assert np.array_equal(host_draws, device_draws)


class TestTrainEpochResidency:
    def test_train_epoch_transfer_clean_and_bit_identical(self):
        """A full quantum train_epoch on the mock backend must never
        round-trip implicitly (the mock raises if it does), must not
        re-upload program constants after warm-up, and must produce
        bit-identical training metrics to the numpy run."""
        env_config = SingleHopConfig(episode_limit=4)
        train = TrainingConfig(
            n_epochs=2, episodes_per_epoch=1, actor_lr=1e-3, critic_lr=1e-3
        )
        records = {}
        for name in ("numpy", "mock"):
            fw = build_framework(
                "proposed",
                seed=11,
                env_config=env_config,
                train_config=train,
                vqc_config=VQCConfig(array_backend=name),
            )
            if name == "mock":
                mock = qback.get_array_backend("mock")
                mock.reset_counts()
                records[name] = [fw.trainer.train_epoch()]
                warm = dict(mock.counts)
                records[name].append(fw.trainer.train_epoch())
                # Steady state: constants stay resident across epochs.
                assert mock.counts["constant_uploads"] == warm["constant_uploads"]
                assert mock.counts["d2h"] > warm["d2h"]  # measure boundaries only
            else:
                records[name] = [fw.trainer.train_epoch() for _ in range(2)]
        for record_np, record_mock in zip(records["numpy"], records["mock"]):
            for key in record_np:
                assert record_np[key] == record_mock[key], key
