"""Circuit compilation: cache the variational block as one unitary.

During decentralised execution (and between gradient updates during
training) a VQC's *variational* gates are frozen — only the data-encoding
gates change per input.  Rollouts therefore re-simulate 50 identical gates
for every observation.  This module splits a circuit at the last
input-dependent operation, compiles everything after it into a single
``2**n x 2**n`` unitary (by evolving the identity basis batch once), and
caches that unitary keyed on the weight values.  Executing the circuit then
costs one encoding pass plus one small matmul.

The compiled path is numerically identical to gate-by-gate simulation (it
is the same linear map, just associatively regrouped) and is validated
against the uncompiled backend in the test suite.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.quantum import backend as _backend
from repro.quantum import program as _program
from repro.quantum import statevector as _sv
from repro.quantum.backends import StatevectorBackend, _normalise_run_args
from repro.quantum.program import weights_key as _weights_key

__all__ = ["split_index", "CompiledCircuit", "compiled_circuit"]


def split_index(circuit):
    """Index of the first operation after the last input-dependent one.

    Everything from this index on depends only on weights and constants and
    can be compiled into a fixed unitary for given weight values.
    """
    last_input = -1
    for i, op in enumerate(circuit.operations):
        if op.is_input:
            last_input = i
    return last_input + 1


class CompiledCircuit:
    """A circuit with its weight-only suffix compiled and cached.

    Args:
        circuit: The symbolic circuit (validated on construction).
        observables: Default measurement set for :meth:`run`.

    The suffix unitary is recomputed automatically whenever the weight
    *values* change (detected by content hash), so the object can be held
    across training updates.  Supports per-sample weight matrices
    ``(N, n_weights)`` for ensemble evaluation — the cache then holds ``N``
    stacked unitaries.
    """

    def __init__(self, circuit, observables=None, array_backend=None):
        circuit.validate()
        self.circuit = circuit
        self.observables = list(observables) if observables is not None else None
        self.split = split_index(circuit)
        self._prefix = circuit.operations[: self.split]
        self._suffix = circuit.operations[self.split :]
        self._cache_key = None
        self._cached_unitary = None
        self.array_backend = array_backend
        self._backend = StatevectorBackend(array_backend=array_backend)
        # Program-compiled kernel plans for the two circuit halves, built
        # lazily so the interpreted tier pays no compile cost; keyed per
        # array backend so the cached unitary stays device-resident.
        self._prefix_programs = {}
        self._suffix_programs = {}

    def _array_backend(self):
        return _backend.get_array_backend(self.array_backend)

    def _half_program(self, programs, operations):
        xp = self._array_backend()
        prog = programs.get(id(xp))
        if prog is None:
            prog = programs[id(xp)] = _program.CircuitProgram(
                self.circuit.n_qubits, operations, xp
            )
        return prog

    @property
    def n_compiled_operations(self):
        """Gate count folded into the cached unitary."""
        return len(self._suffix)

    def suffix_unitary(self, weights):
        """The unitary of the weight-only block (cached by weight content).

        Returns ``(dim, dim)`` for a weight vector, or ``(N, dim, dim)`` for
        an ``(N, n_weights)`` weight matrix.
        """
        key = (
            id(self._array_backend()),
            _program.program_enabled(),
            _weights_key(weights),
        )
        if key == self._cache_key:
            if obs.enabled():
                obs.counter("program.suffix_hit").inc()
            return self._cached_unitary
        if obs.enabled():
            obs.counter("program.suffix_build").inc()
        n = self.circuit.n_qubits
        dim = 2**n
        weights_arr = None if weights is None else np.asarray(weights)

        if weights_arr is not None and weights_arr.ndim == 2:
            n_sets = weights_arr.shape[0]
            basis = np.tile(np.eye(dim, dtype=np.complex128), (n_sets, 1))
            expanded = np.repeat(weights_arr, dim, axis=0)
            psi = self._evolve_suffix(basis, expanded)
            # Row b of each block is U|b>, so each block is U^T.
            xp = _backend.array_namespace(psi)
            unitary = xp.transpose(psi.reshape(n_sets, dim, dim), (0, 2, 1))
        else:
            basis = np.eye(dim, dtype=np.complex128)
            psi = self._evolve_suffix(basis, weights_arr)
            unitary = _backend.array_namespace(psi).transpose(psi, (1, 0))

        self._cache_key = key
        self._cached_unitary = unitary
        return unitary

    def _evolve_suffix(self, psi, weights):
        n = self.circuit.n_qubits
        if _program.program_enabled():
            prog = self._half_program(self._suffix_programs, self._suffix)
            # The identity-basis batch is built on the host; one explicit
            # upload per (rare) unitary rebuild.
            return prog.apply(prog.array_backend.asarray(psi), None, weights)
        for op in self._suffix:
            theta = self.circuit.resolve_angle(op, None, weights)
            psi = _sv.apply_gate(psi, op.gate, op.wires, n, theta)
        return psi

    def evolve_prefix(self, batch, inputs, weights=None):
        """States after the input prefix, ``(batch, dim)``, before the suffix."""
        n = self.circuit.n_qubits
        if _program.program_enabled():
            prog = self._half_program(self._prefix_programs, self._prefix)
            return prog.apply(prog.zero_state(batch), inputs, weights)
        psi = _sv.zero_state(n, batch)
        for op in self._prefix:
            theta = self.circuit.resolve_angle(op, inputs, weights)
            psi = _sv.apply_gate(psi, op.gate, op.wires, n, theta)
        return psi

    def evolve(self, inputs=None, weights=None, batch_size=None):
        """Final states: encoding pass + one cached-unitary matmul.

        With 2-D weights ``(G, n_weights)``, the input batch must have
        ``k * G`` rows for integer ``k >= 1``; row ``b`` uses weight row
        ``b % G`` (group-major tiling).  ``k = 1`` is the plain ensemble
        evaluation used for team rollouts; ``k > 1`` is the vectorized
        rollout over ``k`` lockstep env copies.  Only the ``G`` distinct
        suffix unitaries are ever compiled and cached — the cache key does
        not depend on ``k``, so alternating batch sizes (collection vs.
        serial evaluation) never recompiles.
        """
        inputs_arr, batch = _normalise_run_args(self.circuit, inputs, batch_size)
        n = self.circuit.n_qubits
        weights_arr = None if weights is None else np.asarray(weights)
        prefix_weights = weights_arr
        if weights_arr is not None and weights_arr.ndim == 2:
            n_sets = weights_arr.shape[0]
            if batch != n_sets:
                if batch % n_sets:
                    raise ValueError(
                        f"{n_sets} weight rows for batch {batch}"
                    )
                prefix_weights = np.tile(weights_arr, (batch // n_sets, 1))
        psi = self.evolve_prefix(batch, inputs_arr, prefix_weights)

        unitary = self.suffix_unitary(weights_arr)
        xp = _backend.array_namespace(psi)
        if unitary.ndim == 3:
            n_sets, dim = unitary.shape[0], unitary.shape[1]
            if batch != n_sets:
                psi = psi.reshape(batch // n_sets, n_sets, dim)
                psi = xp.einsum("gij,kgj->kgi", unitary, psi)
                return psi.reshape(batch, dim)
            return xp.einsum("bij,bj->bi", unitary, psi)
        return xp.matmul(psi, xp.transpose(unitary, (1, 0)))

    def run(self, inputs=None, weights=None, observables=None, batch_size=None):
        """Expectation values ``(B, n_observables)`` via the compiled path."""
        observables = observables if observables is not None else self.observables
        if observables is None:
            raise ValueError("no observables given and no default set")
        psi = self.evolve(inputs, weights, batch_size)
        return self._backend.measure(psi, observables, self.circuit.n_qubits)

    def evolve_rows(self, inputs, weights, rows):
        """Final states where row ``b`` uses weight row ``rows[b]``.

        The ragged-gather counterpart of :meth:`evolve`'s group-major
        tiling: ``weights`` is the full ``(G, n_weights)`` matrix and
        ``rows`` picks an arbitrary weight row per input — a micro-batch
        mixing agents in any order and multiplicity.  Only the ``G``
        distinct suffix unitaries are compiled, in the *same* cache entry
        the tiled path uses, so alternating between the two never
        recompiles.
        """
        inputs_arr, batch = _normalise_run_args(self.circuit, inputs, None)
        weights_arr = np.asarray(weights)
        if weights_arr.ndim != 2:
            raise ValueError(
                f"evolve_rows needs a (G, n_weights) matrix, got "
                f"shape {weights_arr.shape}"
            )
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape != (batch,):
            raise ValueError(
                f"rows must have shape ({batch},), got {rows.shape}"
            )
        psi = self.evolve_prefix(batch, inputs_arr, weights_arr[rows])
        unitary = self.suffix_unitary(weights_arr)
        xp = _backend.array_namespace(psi)
        return xp.einsum("bij,bj->bi", unitary[xp.asarray(rows)], psi)

    def run_rows(self, inputs, weights, rows, observables=None):
        """Expectation values ``(B, n_observables)`` for gathered weight rows."""
        observables = observables if observables is not None else self.observables
        if observables is None:
            raise ValueError("no observables given and no default set")
        psi = self.evolve_rows(inputs, weights, rows)
        return self._backend.measure(psi, observables, self.circuit.n_qubits)

    def invalidate(self):
        """Drop the cached unitary (normally unnecessary — keys are content hashes)."""
        self._cache_key = None
        self._cached_unitary = None

    def __repr__(self):
        return (
            f"CompiledCircuit(n_qubits={self.circuit.n_qubits}, "
            f"prefix={self.split} ops, compiled={self.n_compiled_operations} ops)"
        )


_COMPILED_CACHE = {}


def compiled_circuit(circuit, array_backend=None):
    """The shared :class:`CompiledCircuit` of ``circuit`` on one array backend.

    Rollouts, the stacked update forwards and the grouped adjoint all look a
    circuit up here, so the suffix unitaries one of them builds for a set of
    weights are a cache hit for the others.  Cached per (circuit identity,
    array backend) like :func:`repro.quantum.program.compile_program`; the
    shared instance has no default observables.  It sees the circuit through
    a weak proxy, so the cache never keeps a circuit (or its programs and
    unitaries) alive: the entry goes when the circuit does.
    """
    xp = _backend.get_array_backend(array_backend)
    return _program.cached_for_circuit(
        _COMPILED_CACHE, circuit, xp,
        lambda: CompiledCircuit(weakref.proxy(circuit), array_backend=xp),
        "compiled",
    )
