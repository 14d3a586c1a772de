"""Cross-validation of the three circuit-differentiation methods.

These are the most important tests in the quantum substrate: adjoint,
parameter-shift and finite differences are three independent derivations of
the same gradients, so their agreement to near machine precision is strong
evidence each is correct.
"""

import numpy as np
import pytest

from repro.quantum import backend as qback
from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.channels import NoiseModel
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.gradients import (
    adjoint_backward,
    backward,
    finite_difference_backward,
    jacobians,
    parameter_shift_backward,
)
from repro.quantum.observables import Hamiltonian, PauliString, all_z_observables
from repro.quantum.program import using_program
from repro.quantum.vqc import build_vqc


def _random_problem(rng, n_qubits=3, n_features=6, n_weights=14, batch=4, seed=0):
    vqc = build_vqc(n_qubits, n_features, n_weights, seed=seed)
    inputs = rng.uniform(0.0, 1.0, size=(batch, n_features))
    weights = vqc.initial_weights(rng)
    upstream = rng.normal(size=(batch, vqc.n_outputs))
    return vqc, inputs, weights, upstream


@pytest.fixture(params=qback.available_array_backends())
def array_backend(request):
    """Run the method-agreement suite once per importable array backend.

    The adjoint sweep dispatches through the seam (device arrays on mock /
    cupy / torch); shift and finite-difference stay on host numpy, so each
    parametrization cross-checks the seamed sweep against two independent
    host derivations.
    """
    with qback.using_array_backend(request.param):
        yield qback.get_array_backend(request.param)


@pytest.mark.usefixtures("array_backend")
class TestMethodAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjoint_vs_parameter_shift(self, rng, seed):
        vqc, inputs, weights, upstream = _random_problem(rng, seed=seed)
        gi_a, gw_a = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        gi_p, gw_p = parameter_shift_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        assert np.allclose(gw_a, gw_p, atol=1e-10)
        assert np.allclose(gi_a, gi_p, atol=1e-10)

    def test_adjoint_vs_finite_difference(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        gi_a, gw_a = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        gi_f, gw_f = finite_difference_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        assert np.allclose(gw_a, gw_f, atol=1e-6)
        assert np.allclose(gi_a, gi_f, atol=1e-6)

    def test_controlled_rotation_four_term_rule(self, rng):
        """Isolate CRX/CRY/CRZ so the four-term rule is what's being tested."""
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("crx", (0, 1), ParameterRef.weight(0))
        circuit.add("cry", (1, 0), ParameterRef.weight(1))
        circuit.add("crz", (0, 1), ParameterRef.weight(2))
        observables = all_z_observables(2)
        weights = rng.uniform(0, 2 * np.pi, size=3)
        upstream = rng.normal(size=(1, 2))
        _, gw_shift = parameter_shift_backward(
            circuit, observables, None, weights, upstream
        )
        _, gw_fd = finite_difference_backward(
            circuit, observables, None, weights, upstream
        )
        _, gw_adj = adjoint_backward(circuit, observables, None, weights, upstream)
        assert np.allclose(gw_shift, gw_fd, atol=1e-6)
        assert np.allclose(gw_adj, gw_fd, atol=1e-6)

    def test_shared_weight_product_rule(self, rng):
        """One weight driving several gates must accumulate all terms."""
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("cnot", (0, 1))
        circuit.add("ry", (1,), ParameterRef.weight(0, scale=2.0))
        circuit.add("rz", (0,), ParameterRef.weight(0))
        observables = all_z_observables(2)
        weights = np.array([0.7])
        upstream = np.ones((1, 2))
        _, gw_adj = adjoint_backward(circuit, observables, None, weights, upstream)
        _, gw_fd = finite_difference_backward(
            circuit, observables, None, weights, upstream
        )
        assert gw_adj.shape == (1,)
        assert np.allclose(gw_adj, gw_fd, atol=1e-6)

    def test_scaled_input_chain_rule(self, rng):
        circuit = QuantumCircuit(1)
        circuit.add("rx", (0,), ParameterRef.input(0, scale=np.pi))
        observables = [PauliString.z(0)]
        inputs = np.array([[0.3]])
        upstream = np.ones((1, 1))
        gi, _ = adjoint_backward(circuit, observables, inputs, None, upstream)
        # d<Z>/dx = -pi * sin(pi x)
        assert np.allclose(gi[0, 0], -np.pi * np.sin(np.pi * 0.3), atol=1e-10)

    def test_hamiltonian_observable_gradients(self, rng):
        vqc, inputs, weights, _ = _random_problem(rng, batch=2)
        ham = Hamiltonian([0.5, -1.5, 2.0], vqc.observables[:3])
        upstream = rng.normal(size=(2, 1))
        gi_a, gw_a = adjoint_backward(vqc.circuit, [ham], inputs, weights, upstream)
        gi_f, gw_f = finite_difference_backward(
            vqc.circuit, [ham], inputs, weights, upstream
        )
        assert np.allclose(gw_a, gw_f, atol=1e-6)
        assert np.allclose(gi_a, gi_f, atol=1e-6)

    def test_upstream_1d_promoted(self, rng):
        vqc, inputs, weights, _ = _random_problem(rng, batch=1)
        upstream = np.ones(vqc.n_outputs)
        gi, gw = adjoint_backward(
            vqc.circuit, vqc.observables, inputs[:1], weights, upstream
        )
        assert gi.shape == (1, vqc.n_features)
        assert gw.shape == (vqc.n_weights,)


def _summed_per_group(method, circuit, observables, inputs, weights, upstream,
                      rows):
    """The per-row oracle: per-sample weights ``weights[rows]``, summed."""
    _, per_row = method(circuit, observables, inputs, weights[rows], upstream)
    summed = np.zeros_like(weights)
    np.add.at(summed, rows, per_row)
    return summed


def _grouped_problem(rng, n_groups, batch, observables=None):
    vqc = build_vqc(3, 6, 14, seed=4)
    observables = vqc.observables if observables is None else observables
    inputs = rng.uniform(0.0, 1.0, size=(batch, 6))
    weights = np.stack([vqc.initial_weights(rng) for _ in range(n_groups)])
    upstream = rng.normal(size=(batch, len(observables)))
    rows = rng.integers(0, n_groups, size=batch)
    return vqc.circuit, observables, inputs, weights, upstream, rows


def _mixed_observables():
    return [
        Hamiltonian([0.5, -1.5], [PauliString.z(0), PauliString({1: "X"})]),
        PauliString({0: "Y", 2: "Z"}),
    ]


@pytest.mark.usefixtures("array_backend")
class TestGroupedAdjoint:
    """``backward(..., rows=)``: the operator-space adjoint over G weight
    rows, against the per-row adjoint summed per group (the oracle) and
    against the parameter-shift rule."""

    @pytest.mark.parametrize("program", [True, False])
    @pytest.mark.parametrize("n_groups", [1, 4])
    @pytest.mark.parametrize("batch", [3, 200])  # B < dim = 8 and B >> dim
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_per_row_oracle(self, rng, program, n_groups, batch,
                                    mixed):
        observables = _mixed_observables() if mixed else None
        circuit, observables, inputs, weights, upstream, rows = (
            _grouped_problem(rng, n_groups, batch, observables)
        )
        with using_program(program):
            gi, gw = backward(
                circuit, observables, inputs, weights, upstream, rows=rows
            )
            oracle = _summed_per_group(
                adjoint_backward, circuit, observables, inputs, weights,
                upstream, rows,
            )
        assert gi is None
        assert gw.shape == weights.shape
        assert np.max(np.abs(gw - oracle)) <= 1e-12

    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_parameter_shift(self, rng, mixed):
        observables = _mixed_observables() if mixed else None
        circuit, observables, inputs, weights, upstream, rows = (
            _grouped_problem(rng, 4, 12, observables)
        )
        _, gw = backward(
            circuit, observables, inputs, weights, upstream, rows=rows
        )
        shift = _summed_per_group(
            parameter_shift_backward, circuit, observables, inputs, weights,
            upstream, rows,
        )
        assert np.max(np.abs(gw - shift)) <= 1e-8

    def test_group_without_rows_gets_zero_gradient(self, rng):
        circuit, observables, inputs, weights, upstream, _ = (
            _grouped_problem(rng, 3, 10)
        )
        rows = np.array([0, 2] * 5)
        _, gw = backward(
            circuit, observables, inputs, weights, upstream, rows=rows
        )
        oracle = _summed_per_group(
            adjoint_backward, circuit, observables, inputs, weights,
            upstream, rows,
        )
        assert np.array_equal(gw[1], np.zeros(weights.shape[1]))
        assert np.max(np.abs(gw - oracle)) <= 1e-12

    def test_weights_in_the_input_prefix_fall_back_to_per_row(self, rng):
        """A weight before the last input gate cannot go through the
        prefix states; the per-row sweep answers instead."""
        circuit = QuantumCircuit(2)
        circuit.add("ry", (0,), ParameterRef.weight(0))
        circuit.add("rx", (0,), ParameterRef.input(0))
        circuit.add("cnot", (0, 1))
        circuit.add("rx", (1,), ParameterRef.input(1))
        circuit.add("ry", (1,), ParameterRef.weight(1))
        observables = all_z_observables(2)
        inputs = rng.uniform(size=(5, 2))
        weights = rng.uniform(size=(2, 2))
        upstream = rng.normal(size=(5, 2))
        rows = np.array([0, 1, 1, 0, 1])
        _, gw = backward(
            circuit, observables, inputs, weights, upstream, rows=rows
        )
        shift = _summed_per_group(
            parameter_shift_backward, circuit, observables, inputs, weights,
            upstream, rows,
        )
        assert np.max(np.abs(gw - shift)) <= 1e-8

    def test_rejects_bad_arguments(self, rng):
        circuit, observables, inputs, weights, upstream, rows = (
            _grouped_problem(rng, 2, 4)
        )
        with pytest.raises(ValueError, match=r"\(G, n_weights\)"):
            backward(circuit, observables, inputs, weights[0], upstream,
                     rows=rows)
        with pytest.raises(ValueError, match="rows must have shape"):
            backward(circuit, observables, inputs, weights, upstream,
                     rows=rows[:3])
        with pytest.raises(ValueError, match="index 2 weight rows"):
            backward(circuit, observables, inputs, weights, upstream,
                     rows=np.array([0, 1, 2, 0]))
        with pytest.raises(ValueError, match="needs method='adjoint'"):
            backward(circuit, observables, inputs, weights, upstream,
                     method="parameter_shift", rows=rows)


class TestNoisyGradients:
    def test_parameter_shift_on_noisy_backend(self, rng):
        """The shift rule stays exact under Kraus noise; check against FD."""
        vqc, inputs, weights, upstream = _random_problem(
            rng, n_qubits=2, n_features=2, n_weights=6, batch=2
        )
        backend = DensityMatrixBackend(NoiseModel(0.02))
        gi_p, gw_p = parameter_shift_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream, backend
        )
        gi_f, gw_f = finite_difference_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream, backend
        )
        assert np.allclose(gw_p, gw_f, atol=1e-5)
        assert np.allclose(gi_p, gi_f, atol=1e-5)

    def test_noise_shrinks_gradients(self, rng):
        vqc, inputs, weights, upstream = _random_problem(
            rng, n_qubits=2, n_features=2, n_weights=8, batch=2
        )
        _, gw_clean = parameter_shift_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        _, gw_noisy = parameter_shift_backward(
            vqc.circuit,
            vqc.observables,
            inputs,
            weights,
            upstream,
            DensityMatrixBackend(NoiseModel(0.1)),
        )
        assert np.linalg.norm(gw_noisy) < np.linalg.norm(gw_clean)


class TestDispatch:
    def test_unknown_method(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        with pytest.raises(ValueError, match="unknown gradient method"):
            backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method="autograd",
            )

    def test_adjoint_rejects_density_backend(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        with pytest.raises(ValueError, match="adjoint"):
            backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method="adjoint", backend=DensityMatrixBackend(),
            )

    def test_adjoint_rejects_shots(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        with pytest.raises(ValueError, match="exact"):
            backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method="adjoint", backend=StatevectorBackend(shots=10),
            )

    def test_dispatch_equivalence(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        direct = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        dispatched = backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream,
            method="adjoint",
        )
        assert np.allclose(direct[1], dispatched[1])


class TestJacobians:
    def test_shapes(self, rng):
        vqc, inputs, weights, _ = _random_problem(rng, batch=3)
        d_inputs, d_weights = jacobians(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert d_inputs.shape == (3, vqc.n_outputs, vqc.n_features)
        assert d_weights.shape == (3, vqc.n_outputs, vqc.n_weights)

    def test_jacobian_consistent_with_vjp(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng, batch=2)
        d_inputs, d_weights = jacobians(
            vqc.circuit, vqc.observables, inputs, weights
        )
        gi, gw = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        # VJP = upstream^T @ Jacobian, summed over observables (and batch
        # for weights).
        gi_ref = np.einsum("bj,bji->bi", upstream, d_inputs)
        gw_ref = np.einsum("bj,bjk->k", upstream, d_weights)
        assert np.allclose(gi, gi_ref, atol=1e-10)
        assert np.allclose(gw, gw_ref, atol=1e-10)

    def test_jacobian_methods_agree(self, rng):
        vqc, inputs, weights, _ = _random_problem(
            rng, n_qubits=2, n_features=2, n_weights=5, batch=1
        )
        d_in_a, d_w_a = jacobians(
            vqc.circuit, vqc.observables, inputs, weights, method="adjoint"
        )
        d_in_p, d_w_p = jacobians(
            vqc.circuit, vqc.observables, inputs, weights,
            method="parameter_shift",
        )
        assert np.allclose(d_w_a, d_w_p, atol=1e-10)
        assert np.allclose(d_in_a, d_in_p, atol=1e-10)
