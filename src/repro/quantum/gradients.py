"""Differentiation of variational quantum circuits.

Three interchangeable methods, all computing the same mathematical object —
the gradient of measured expectation values with respect to the circuit's
trainable weights *and* its encoded input features (the latter lets the
quantum layer participate in end-to-end classical backpropagation):

- **Adjoint differentiation** (`method="adjoint"`): a single forward pass
  plus one reverse sweep, exact, statevector only.  This is the default
  training path, equivalent to what PennyLane/torchquantum use on
  simulators.  Per-sample upstream gradients are folded into a batched
  *effective observable* so one reverse sweep serves the whole batch and
  every observable simultaneously.
- **Parameter-shift rule** (`method="parameter_shift"`): evaluates the
  circuit at shifted angles; hardware-compatible and valid on noisy /
  shot-based backends.  Pauli rotations use the two-term rule; controlled
  rotations use the four-term rule.
- **Finite differences** (`method="finite_diff"`): central differences,
  used as an independent cross-check in the test suite.

All methods return ``(input_grads, weight_grads)`` with shapes
``(B, n_inputs)`` and ``(n_weights,)`` given an upstream gradient of shape
``(B, n_observables)`` — i.e. they implement the vector-Jacobian product of
the map ``(inputs, weights) -> expectations``.  With *per-sample* weights
``(B, n_weights)`` (ensemble evaluation: each batch row runs its own weight
vector through the shared circuit structure) the weight gradient is returned
per-sample as ``(B, n_weights)`` instead of summed over the batch.

The adjoint also has a grouped form, ``backward(..., rows=rows)``
(:func:`grouped_adjoint_backward`): ``(G, n_weights)`` weights, row ``b``
running ``weights[rows[b]]``, and per-group weight gradients.  Its reverse
sweep runs in operator space on a fixed ``G * n_paulis * 2**n`` rows, so
its cost does not grow with the batch; the stacked actor and critic updates
use it, with the per-row sweep as its test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.quantum import backend as _backend
from repro.quantum import compile as _compile
from repro.quantum import program as _program
from repro.quantum import statevector as _sv
from repro.quantum.backends import StatevectorBackend, _normalise_run_args
from repro.quantum.observables import Hamiltonian, PauliString

__all__ = [
    "adjoint_backward",
    "grouped_adjoint_backward",
    "parameter_shift_backward",
    "finite_difference_backward",
    "backward",
    "jacobians",
    "GRADIENT_METHODS",
]

# Four-term shift-rule coefficients for controlled rotations
# (generator eigenvalues {0, +-1}; see Anselmetti et al. 2021 / PennyLane).
_SQRT2 = np.sqrt(2.0)
_FOUR_TERM_C1 = (_SQRT2 + 1.0) / (4.0 * _SQRT2)
_FOUR_TERM_C2 = (_SQRT2 - 1.0) / (4.0 * _SQRT2)


def _flatten_observables(observables, upstream):
    """Expand Hamiltonian observables into per-Pauli effective coefficients.

    Returns ``(paulis, coefficients)`` where coefficients has shape
    ``(B, n_paulis)`` and already includes the upstream gradient.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    batch = upstream.shape[0]
    paulis = []
    columns = []
    for j, obs in enumerate(observables):
        u_j = upstream[:, j]
        if isinstance(obs, PauliString):
            paulis.append(obs)
            columns.append(u_j)
        elif isinstance(obs, Hamiltonian):
            for c, pauli in zip(np.atleast_1d(obs.coefficients.T), obs.paulis):
                paulis.append(pauli)
                columns.append(u_j * c)
        else:
            raise TypeError(f"unsupported observable type {type(obs).__name__}")
    coefficients = np.stack(columns, axis=1).reshape(batch, len(paulis))
    return paulis, coefficients


def _accumulate(op, grad_per_sample, input_grads, weight_grads):
    """Route one gate's per-sample angle gradient to its parameter source.

    ``weight_grads`` is ``(n_weights,)`` for batch-shared weights (the
    per-sample gradients sum over the batch) or ``(B, n_weights)`` for
    per-sample weights (each sample keeps its own row — used when a batch
    row belongs to a different ensemble member, e.g. one stacked update
    pass over every agent's actor).
    """
    ref = op.param
    scaled = grad_per_sample * ref.scale
    if ref.kind == "weight":
        if weight_grads.ndim == 2:
            weight_grads[:, ref.index] += scaled
        else:
            weight_grads[ref.index] += scaled.sum()
    elif ref.kind == "input":
        input_grads[:, ref.index] += scaled


def _weight_grad_buffer(circuit, weights, batch, xp=np):
    """Zeroed weight-gradient buffer, per-sample when ``weights`` is 2-D."""
    if not circuit.n_weights:
        return None
    if weights is not None and np.asarray(weights).ndim == 2:
        return xp.zeros((batch, circuit.n_weights))
    return xp.zeros(circuit.n_weights)


def _inverse_matrix(op, theta):
    """Matrix of the inverse of one operation."""
    spec = op.spec
    if spec.n_params == 1:
        return spec.matrix_fn(-np.asarray(theta))
    if spec.self_inverse:
        return spec.fixed_matrix
    return spec.fixed_matrix.conj().T


def adjoint_backward(circuit, observables, inputs, weights, upstream, array_backend=None):
    """Vector-Jacobian product via adjoint differentiation (exact, pure state).

    Args:
        circuit: The symbolic circuit.
        observables: List of PauliString / Hamiltonian observables.
        inputs: ``(B, n_inputs)`` features or ``None``.
        weights: ``(n_weights,)`` trainable angles shared across the batch,
            ``(B, n_weights)`` per-sample weights (ensemble evaluation — the
            returned weight gradient is then per-sample ``(B, n_weights)``),
            or ``None``.
        upstream: ``(B, n_observables)`` upstream gradient
            ``dL/d<O_j>`` per sample.
        array_backend: Array backend for the program-compiled sweep (name,
            instance, or ``None`` for the process default).  The whole
            reverse sweep — gradient accumulators included — stays on the
            device; results come back as host arrays at the end.

    Returns:
        ``(input_grads, weight_grads)``; ``input_grads`` is ``None`` when the
        circuit encodes no inputs.
    """
    backend = StatevectorBackend(array_backend=array_backend)
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    batch = upstream.shape[0]
    n = circuit.n_qubits

    # Forward pass to the final state.
    psi = backend.evolve(circuit, inputs, weights, batch_size=batch)
    if psi.shape[0] != batch:
        raise ValueError(
            f"upstream batch {batch} != evolved batch {psi.shape[0]}"
        )

    # Effective observable with per-sample coefficients: one reverse sweep
    # then serves every observable and every sample at once.
    paulis, coefficients = _flatten_observables(observables, upstream)
    effective = Hamiltonian(coefficients, paulis)
    bra = effective.apply(psi, n)
    ket = psi

    # Resolve all angles once (cheap) so the reverse sweep can invert gates.
    angles = [
        circuit.resolve_angle(op, inputs, weights) for op in circuit.operations
    ]

    if _program.program_enabled():
        # Program-compiled sweep: each gate's pre-planned inverse kernel is
        # applied to the stacked (2B, dim) bra/ket block in ONE call, and
        # generators run as compiled diagonal/gather kernels (Pauli
        # generators are never dense).  Same math, fewer passes.  Gradient
        # accumulators live on the program's array backend so the whole
        # sweep is device-resident; the final buffers cross to the host
        # exactly once.
        prog = _program.compile_program(circuit, backend._array_backend())
        xp = prog.array_backend
        input_grads = (
            xp.zeros((batch, circuit.n_inputs)) if circuit.n_inputs else None
        )
        weight_grads = _weight_grad_buffer(circuit, weights, batch, xp)
        stacked = xp.concatenate([bra, ket], axis=0)
        for i in range(len(circuit.operations) - 1, -1, -1):
            op = circuit.operations[i]
            theta = angles[i]
            if op.is_trainable or op.is_input:
                # d<H>/dtheta = Im(<bra| G |ket>), ket = psi_i (pre-inverse).
                g_ket = prog.apply_generator(i, stacked[batch:])
                grad = xp.imag(_sv.inner_products(stacked[:batch], g_ket))
                _accumulate(op, grad, input_grads, weight_grads)
            if theta is not None and np.ndim(theta) == 1:
                theta = np.concatenate([theta, theta])
            stacked = prog.apply_inverse(i, stacked, theta)
        if input_grads is not None:
            input_grads = xp.to_host(input_grads)
        if weight_grads is not None:
            weight_grads = xp.to_host(weight_grads)
        return input_grads, weight_grads

    input_grads = (
        np.zeros((batch, circuit.n_inputs)) if circuit.n_inputs else None
    )
    weight_grads = _weight_grad_buffer(circuit, weights, batch)

    for op, theta in zip(reversed(circuit.operations), reversed(angles)):
        needs_grad = op.is_trainable or op.is_input
        if needs_grad:
            # d<H>/dtheta = Im(<bra| G |ket>) with ket = psi_k (pre-inverse).
            g_ket = _sv.apply_matrix(ket, op.spec.generator, op.wires, n)
            grad = np.imag(_sv.inner_products(bra, g_ket))
            _accumulate(op, grad, input_grads, weight_grads)
        inverse = _inverse_matrix(op, theta)
        ket = _sv.apply_matrix(ket, inverse, op.wires, n)
        bra = _sv.apply_matrix(bra, inverse, op.wires, n)

    return input_grads, weight_grads


def grouped_adjoint_backward(
    circuit, observables, inputs, weights, upstream, rows, array_backend=None
):
    """Per-group weight gradient through the operator-space adjoint.

    Row ``b`` runs with weight row ``weights[rows[b]]`` (the contract of
    :meth:`~repro.quantum.compile.CompiledCircuit.run_rows`) and the weight
    gradient is summed per weight row.  Inputs are not differentiated.

    Inputs enter only the prefix before
    :func:`~repro.quantum.compile.split_index`.  When that prefix holds no
    weight, the loss is ``sum_{g,k} Tr(P_k U_g rho_{g,k} U_g^dag)``, with
    ``U_g`` the suffix unitary of group ``g`` and
    ``rho_{g,k} = sum_{b in g} c_bk |psi_b><psi_b|`` over the prefix states
    and the upstream-weighted Pauli coefficients.  The reverse sweep over the
    suffix then runs on the bra rows ``P_k U_g e_j`` and the ket rows
    ``U_g rho_{g,k} e_j``: ``G * n_paulis * 2**n`` rows whatever the batch.
    A prefix holding weights falls back to the per-row sweep, summed per
    group.

    Args:
        weights: ``(G, n_weights)`` weight rows.
        rows: ``(B,)`` weight row of each batch row.
        Other arguments as in :func:`adjoint_backward`.

    Returns:
        ``(None, weight_grads)`` with ``weight_grads`` of shape
        ``(G, n_weights)``; groups without rows get zeros.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(
            f"grouped adjoint needs (G, n_weights) weights, got shape "
            f"{weights.shape}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    rows = np.asarray(rows, dtype=np.intp)
    if rows.shape != (upstream.shape[0],):
        raise ValueError(
            f"rows must have shape ({upstream.shape[0]},), got {rows.shape}"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= weights.shape[0]):
        raise ValueError(f"rows must index {weights.shape[0]} weight rows")
    weight_grads = np.zeros_like(weights)
    compiled = _compile.compiled_circuit(circuit, array_backend)
    ops = circuit.operations
    if any(op.is_trainable for op in ops[: compiled.split]):
        _, per_row = adjoint_backward(
            circuit, observables, inputs, weights[rows], upstream,
            array_backend=array_backend,
        )
        np.add.at(weight_grads, rows, per_row)
        return None, weight_grads

    inputs, batch = _normalise_run_args(circuit, inputs, rows.shape[0])
    if batch != rows.shape[0]:
        raise ValueError(f"{batch} input rows for {rows.shape[0]} rows")
    # Group-contiguous row order: each group's states are one slice.
    order = np.argsort(rows, kind="stable")
    groups, starts = np.unique(rows[order], return_index=True)
    bounds = np.append(starts, batch)
    paulis, coefficients = _flatten_observables(observables, upstream)
    psi = compiled.evolve_prefix(
        batch, None if inputs is None else inputs[order]
    )
    xp = _backend.array_namespace(psi)
    coefficients = xp.asarray(coefficients[order])
    n = circuit.n_qubits
    # basis[g, j] = U_g e_j: the suffix evolution of basis state j.
    basis = xp.swapaxes(compiled.suffix_unitary(weights), 1, 2)
    bras, kets = [], []
    dim = psi.shape[1]
    for g, start, stop in zip(groups, bounds[:-1], bounds[1:]):
        x = psi[start:stop]
        weighted = coefficients[start:stop, :, None] * xp.conj(x)[:, None, :]
        # rho_conj[k] = conj(rho_{g,k}), and row j of conj(rho_{g,k}) @
        # basis[g] is U_g rho_{g,k} e_j (rho is Hermitian).  The products
        # stay (dim x dim) per Pauli: OpenBLAS threads larger shapes, and a
        # threaded call can stall for a scheduler tick on a 2-CPU host.
        rho_conj = xp.matmul(xp.transpose(weighted, (1, 2, 0)), x)
        kets.append(xp.matmul(rho_conj, basis[g]).reshape(-1, dim))
        bras.extend(pauli.apply(basis[g], n) for pauli in paulis)
    n_groups = len(groups)
    per_group = len(paulis) * dim
    n_rows = n_groups * per_group
    stacked = xp.concatenate(bras + kets, axis=0)

    if _program.program_enabled():
        prog = _program.compile_program(circuit, xp)
        inverse, generator = prog.apply_inverse, prog.apply_generator
    else:
        def generator(i, psi):
            return _sv.apply_matrix(psi, ops[i].spec.generator, ops[i].wires, n)

        def inverse(i, psi, theta):
            matrix = _inverse_matrix(ops[i], theta)
            return _sv.apply_matrix(psi, matrix, ops[i].wires, n)

    active = weights[groups]
    grads = xp.zeros((n_groups, circuit.n_weights))
    for i in range(len(ops) - 1, compiled.split - 1, -1):
        op = ops[i]
        if op.is_trainable:
            # Tr(M G sigma) summed over the group's bra/ket row pairs.
            g_ket = generator(i, stacked[n_rows:])
            overlap = xp.sum(
                (xp.conj(stacked[:n_rows]) * g_ket).reshape(n_groups, -1),
                axis=1,
            )
            grads[:, op.param.index] += xp.imag(overlap) * op.param.scale
        theta = circuit.resolve_angle(op, None, active)
        if theta is not None and np.ndim(theta) == 1:
            theta = (
                float(theta[0]) if n_groups == 1
                else np.tile(np.repeat(theta, per_group), 2)
            )
        stacked = inverse(i, stacked, theta)
    weight_grads[groups] = xp.to_host(grads)
    return None, weight_grads


class _ShiftExecutor:
    """Minimal state-stepping adapter over the two backends.

    Parameter-shift and finite differences only need "init, apply op,
    measure" primitives; this adapter provides them uniformly for pure and
    mixed states (including per-gate noise on the density backend).
    """

    def __init__(self, backend):
        self.backend = backend
        self._is_density = getattr(backend, "name", "") == "density_matrix"

    def initial_state(self, n_qubits, batch):
        if self._is_density:
            from repro.quantum import density as _dm

            return _dm.zero_density(n_qubits, batch)
        return _sv.zero_state(n_qubits, batch)

    def apply_operation(self, state, op, theta, n_qubits):
        if self._is_density:
            from repro.quantum import density as _dm

            state = _dm.apply_gate(state, op.gate, op.wires, n_qubits, theta)
            for channel, wire in self.backend.noise_model.channels_after(op):
                state = _dm.apply_channel(state, channel, (wire,), n_qubits)
            return state
        return _sv.apply_gate(state, op.gate, op.wires, n_qubits, theta)

    def measure_state(self, state, observables, n_qubits):
        return self.backend.measure(state, observables, n_qubits)


def _shifted_expectations(executor, circuit, observables, inputs, weights, op_index, delta):
    from repro.quantum.backends import _normalise_run_args

    inputs_arr, batch = _normalise_run_args(circuit, inputs, None)
    n = circuit.n_qubits
    state = executor.initial_state(n, batch)
    for i, op in enumerate(circuit.operations):
        theta = circuit.resolve_angle(op, inputs_arr, weights)
        if i == op_index:
            theta = np.asarray(theta) + delta
        state = executor.apply_operation(state, op, theta, n)
    return executor.measure_state(state, observables, n)


def _per_gate_angle_grad(executor, circuit, observables, inputs, weights, op_index, rule):
    """d<O_j>/d(theta of one gate occurrence), shape (B, n_obs)."""
    expectation = lambda delta: _shifted_expectations(  # noqa: E731
        executor, circuit, observables, inputs, weights, op_index, delta
    )
    if rule == "two_term":
        return 0.5 * (expectation(np.pi / 2) - expectation(-np.pi / 2))
    if rule == "four_term":
        near = expectation(np.pi / 2) - expectation(-np.pi / 2)
        far = expectation(3 * np.pi / 2) - expectation(-3 * np.pi / 2)
        return _FOUR_TERM_C1 * near - _FOUR_TERM_C2 * far
    raise ValueError(f"gate has no shift rule: {rule!r}")


def parameter_shift_backward(
    circuit, observables, inputs, weights, upstream, backend=None
):
    """Vector-Jacobian product via the parameter-shift rule.

    Works on any backend, including noisy density-matrix execution (the
    shift rule holds channel-wise) and shot-based estimation.
    """
    if backend is None:
        backend = StatevectorBackend()
    executor = _ShiftExecutor(backend)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    batch = upstream.shape[0]

    input_grads = (
        np.zeros((batch, circuit.n_inputs)) if circuit.n_inputs else None
    )
    weight_grads = _weight_grad_buffer(circuit, weights, batch)

    for i, op in enumerate(circuit.operations):
        if not (op.is_trainable or op.is_input):
            continue
        rule = op.spec.shift_rule
        grad_obs = _per_gate_angle_grad(
            executor, circuit, observables, inputs, weights, i, rule
        )
        grad = np.sum(grad_obs * upstream, axis=1)
        _accumulate(op, grad, input_grads, weight_grads)

    return input_grads, weight_grads


def finite_difference_backward(
    circuit, observables, inputs, weights, upstream, backend=None, epsilon=1e-6
):
    """Vector-Jacobian product via central finite differences (testing aid)."""
    if backend is None:
        backend = StatevectorBackend()
    executor = _ShiftExecutor(backend)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    batch = upstream.shape[0]

    input_grads = (
        np.zeros((batch, circuit.n_inputs)) if circuit.n_inputs else None
    )
    weight_grads = _weight_grad_buffer(circuit, weights, batch)

    for i, op in enumerate(circuit.operations):
        if not (op.is_trainable or op.is_input):
            continue
        plus = _shifted_expectations(
            executor, circuit, observables, inputs, weights, i, epsilon
        )
        minus = _shifted_expectations(
            executor, circuit, observables, inputs, weights, i, -epsilon
        )
        grad_obs = (plus - minus) / (2.0 * epsilon)
        grad = np.sum(grad_obs * upstream, axis=1)
        _accumulate(op, grad, input_grads, weight_grads)

    return input_grads, weight_grads


GRADIENT_METHODS = ("adjoint", "parameter_shift", "finite_diff")


def backward(
    circuit,
    observables,
    inputs,
    weights,
    upstream,
    method="adjoint",
    backend=None,
    rows=None,
):
    """Dispatch to one of the gradient methods by name.

    With ``rows`` (adjoint only) ``weights`` is a ``(G, n_weights)`` matrix,
    row ``b`` uses ``weights[rows[b]]`` and the call returns
    ``(None, (G, n_weights))`` per-group weight gradients — see
    :func:`grouped_adjoint_backward`.
    """
    if rows is not None and method != "adjoint":
        raise ValueError(f"rows= needs method='adjoint', got {method!r}")
    if method == "adjoint":
        if backend is not None and not getattr(backend, "supports_adjoint", False):
            raise ValueError(
                f"backend {backend!r} does not support adjoint differentiation; "
                "use method='parameter_shift'"
            )
        if backend is not None and backend.shots is not None:
            raise ValueError("adjoint differentiation requires exact expectations")
        if rows is not None:
            return grouped_adjoint_backward(
                circuit,
                observables,
                inputs,
                weights,
                upstream,
                rows,
                array_backend=getattr(backend, "array_backend", None),
            )
        return adjoint_backward(
            circuit,
            observables,
            inputs,
            weights,
            upstream,
            array_backend=getattr(backend, "array_backend", None),
        )
    if method == "parameter_shift":
        return parameter_shift_backward(
            circuit, observables, inputs, weights, upstream, backend
        )
    if method == "finite_diff":
        return finite_difference_backward(
            circuit, observables, inputs, weights, upstream, backend
        )
    raise ValueError(
        f"unknown gradient method {method!r}; choose from {GRADIENT_METHODS}"
    )


def jacobians(circuit, observables, inputs, weights, method="adjoint", backend=None):
    """Full Jacobians for testing: ``(d_inputs, d_weights)``.

    Shapes: ``d_inputs[b, j, i] = d<O_j>_b / d inputs[b, i]`` and
    ``d_weights[b, j, k] = d<O_j>_b / d weights[k]`` (per-sample weight
    Jacobian; the VJP sums over the batch).
    """
    n_obs = len(observables)
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        batch = inputs.shape[0]
    else:
        batch = 1

    d_inputs = (
        np.zeros((batch, n_obs, circuit.n_inputs)) if circuit.n_inputs else None
    )
    d_weights = np.zeros((batch, n_obs, circuit.n_weights))

    for b in range(batch):
        row = None if inputs is None else inputs[b : b + 1]
        for j in range(n_obs):
            upstream = np.zeros((1, n_obs))
            upstream[0, j] = 1.0
            gi, gw = backward(
                circuit, observables, row, weights, upstream, method, backend
            )
            if d_inputs is not None and gi is not None:
                d_inputs[b, j] = gi[0]
            if gw is not None:
                d_weights[b, j] = gw
    return d_inputs, d_weights
