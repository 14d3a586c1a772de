"""Compiled circuit programs: fused, pre-planned gate kernels.

The interpreted simulator (:func:`repro.quantum.statevector.apply_gate`)
re-derives everything on every call: wire validation, gate-matrix
construction, a generic ``moveaxis``/``reshape``/``einsum`` application.
:func:`compile_program` resolves all of that **once** per circuit into a
:class:`CircuitProgram` — a flat list of pre-planned kernel applications
specialised by gate class:

- **diagonal** gates (``z``/``s``/``t``/``cz`` and parameterised
  ``rz``/``crz``) become a phase-vector elementwise multiply over the full
  state — no axis movement at all;
- **permutation / monomial** gates (``x``/``y``/``cnot``/``swap``/
  ``toffoli``) become a cached full-state index gather (plus a phase
  multiply when the single nonzero per row is not 1);
- **dense** 1–2 qubit gates keep the einsum contraction, but through a
  pre-planned reshape (no ``moveaxis`` copies) with the subscripts and view
  shapes resolved at compile time.

On top of the per-op plans the forward execution path *fuses*:

- runs of adjacent input-independent gates whose combined wire set stays
  within two qubits are pre-merged into single small unitaries (constant
  ones folded at compile time, weight-dependent ones cached by weight
  content — the in-circuit analogue of
  :class:`~repro.quantum.compile.CompiledCircuit`'s suffix folding);
- consecutive constant diagonal/monomial kernels are composed into one
  full-state gather (a CNOT ring collapses to a single index take).

Fusion never crosses an input-dependent operation, so per-sample encoding
angles always see exactly the gates the symbolic circuit specifies.

The per-op (unfused) plans double as the adjoint-differentiation kernels:
each op exposes a compiled **inverse** plan (for the reverse sweep, applied
to the stacked bra/ket array in one call) and a compiled **generator** plan
(Pauli generators are diagonal or monomial, so ``G |ket>`` is a multiply or
a gather instead of an einsum).

Everything here is numerically the same linear map as the interpreted
path — identical gate matrices, associatively regrouped — and is pinned
against it by the equivalence suite in ``tests/test_program.py``.

The kernels dispatch through the array-backend seam
(:mod:`repro.quantum.backend`): each program is compiled **against one**
:class:`~repro.quantum.backend.ArrayBackend` (numpy by default, cupy/torch
when requested, the transfer-counting mock in CI) and its constant data —
phase vectors, index tables, generator diagonals, fused unitaries — is
materialised on that backend's device once at compile time.  Per-call host
data (encoding angles, cos/sin vectors) is uploaded one-way; states never
leave the device inside a program.  On the numpy backend every seam op is
the numpy function itself and the materialisation is the identity, so the
default path runs the exact pre-seam calls bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.quantum import backend as _backend
from repro.quantum import statevector as _sv

__all__ = [
    "CircuitProgram",
    "cached_for_circuit",
    "compile_program",
    "program_enabled",
    "set_program_enabled",
    "using_program",
    "weights_key",
]

# ---------------------------------------------------------------------------
# Global tier switch
# ---------------------------------------------------------------------------

_ENABLED = os.environ.get("REPRO_QUANTUM_PROGRAM", "1").lower() not in (
    "0",
    "false",
    "no",
    "off",
)


def program_enabled():
    """Whether the program-compiled execution tier is globally enabled."""
    return _ENABLED


def set_program_enabled(enabled):
    """Toggle the program tier globally; returns the previous setting.

    The interpreted path is kept as the semantic reference — equivalence
    tests and the kernel benchmarks flip this switch to compare tiers.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def using_program(enabled):
    """Context manager scoping :func:`set_program_enabled`."""
    previous = set_program_enabled(enabled)
    try:
        yield
    finally:
        set_program_enabled(previous)


# ---------------------------------------------------------------------------
# Weight content keys (shared with CompiledCircuit's unitary cache)
# ---------------------------------------------------------------------------


def weights_key(weights):
    """Content key of a weight array (weights mutate in place under Adam).

    Includes the shape: a ``(1, n)`` per-sample weight matrix and an
    ``(n,)`` vector share bytes but compile to different kernels.
    """
    if weights is None:
        return "none"
    array = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    digest = hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()
    return (array.shape, digest)


# ---------------------------------------------------------------------------
# Index algebra: embedding gate-space structure into the full register
# ---------------------------------------------------------------------------


def _sub_indices(indices, wires, n_qubits):
    """Gate-space sub-index of every full basis index (``wires[0]`` MSB)."""
    k = len(wires)
    sub = np.zeros_like(indices)
    for j, w in enumerate(wires):
        sub |= ((indices >> (n_qubits - 1 - w)) & 1) << (k - 1 - j)
    return sub


def _full_diagonal(diag, wires, n_qubits):
    """Spread a gate-space diagonal (length ``2**k``) over the full state."""
    indices = np.arange(2**n_qubits)
    return diag[_sub_indices(indices, wires, n_qubits)]


def _full_gather(source_sub, phase_sub, wires, n_qubits):
    """Lift a gate-space gather (per-row source + phase) to the full state."""
    indices = np.arange(2**n_qubits)
    k = len(wires)
    sub = _sub_indices(indices, wires, n_qubits)
    target = source_sub[sub]
    cleared = indices.copy()
    for w in wires:
        cleared &= ~(1 << (n_qubits - 1 - w))
    source = cleared
    for j, w in enumerate(wires):
        source = source | (((target >> (k - 1 - j)) & 1) << (n_qubits - 1 - w))
    phase = None if phase_sub is None else phase_sub[sub]
    return source, phase


def _kron(a, b):
    """Kronecker product supporting batched (``(B, d, d)``) factors."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    da, db = a.shape[-1], b.shape[-1]
    return out.reshape(out.shape[:-4] + (da * db, da * db))


_BIT_SWAP_2Q = np.array([0, 2, 1, 3])


def _embed_matrix(matrix, op_wires, union):
    """Embed a 1–2 qubit gate matrix into the (sorted) fused wire space."""
    op_wires = tuple(op_wires)
    union = tuple(union)
    if op_wires == union:
        return matrix
    if len(op_wires) == 1:
        identity = np.eye(2, dtype=np.complex128)
        if op_wires[0] == union[0]:
            return _kron(matrix, identity)
        return _kron(identity, matrix)
    # Two-qubit gate listed in the opposite wire order: swap its index bits.
    return matrix[..., _BIT_SWAP_2Q, :][..., :, _BIT_SWAP_2Q]


# ---------------------------------------------------------------------------
# Dense kernel: pre-planned reshape/einsum (no moveaxis copies)
# ---------------------------------------------------------------------------


class _DensePlan:
    """Apply a dense 1–2 qubit matrix through a compile-time matmul plan.

    Two strategies, chosen once per (wires, n_qubits) by memory layout:

    - ``bmm`` — when the gate axes are contiguous in the state tensor and
      followed by a reasonably wide trailing block, ``matmul`` broadcasts
      the gate matrix straight onto the ``(..., d_gate, trailing)`` view:
      zero copies, BLAS-backed.
    - ``tmm`` — otherwise the gate axes are transposed to the end once,
      flattened, and contracted as ``t @ m.T``; the two transposes replace
      the interpreted path's ``moveaxis`` copies with a single
      cache-friendly one each way.
    """

    __slots__ = ("_bit_perm", "_strategy", "_view_shape", "_gate_dim",
                 "_fwd_axes", "_back_axes", "dim", "_xp")

    _BMM_MIN_TRAILING = 8

    def bind(self, xp):
        """Attach the array backend; uploads the bit-permutation table."""
        self._xp = xp
        if self._bit_perm is not None:
            self._bit_perm = xp.device_constant(_BIT_SWAP_2Q)

    def __init__(self, wires, n_qubits):
        self._xp = _backend.get_array_backend("numpy")
        wires = tuple(int(w) for w in wires)
        k = len(wires)
        if k not in (1, 2):
            raise ValueError(f"dense plans cover 1-2 wires, got {wires}")
        self.dim = 2**n_qubits
        ordered = tuple(sorted(wires))
        self._bit_perm = None if wires == ordered else _BIT_SWAP_2Q
        self._gate_dim = 2**k
        adjacent = k == 1 or ordered[1] == ordered[0] + 1
        if adjacent:
            left = 2 ** ordered[0]
            trailing = self.dim // (left * self._gate_dim)
            self._view_shape = (left, self._gate_dim, trailing)
            if trailing >= self._BMM_MIN_TRAILING:
                self._strategy = "bmm"
            else:
                self._strategy = "tmm"
                self._fwd_axes = (0, 1, 3, 2)
                self._back_axes = (0, 1, 3, 2)
        else:
            u, v = ordered
            self._strategy = "tmm"
            self._view_shape = (
                2**u, 2, 2 ** (v - u - 1), 2, 2 ** (n_qubits - 1 - v)
            )
            # (B, d1, j, d2, l, d3) -> (B, d1, d2, d3, j, l) and back.
            self._fwd_axes = (0, 1, 3, 5, 2, 4)
            self._back_axes = (0, 1, 4, 2, 5, 3)

    def apply(self, psi, matrix):
        xp = self._xp
        batch = psi.shape[0]
        if matrix.ndim == 3 and matrix.shape[0] != batch:
            raise ValueError(
                f"batched matrix has batch {matrix.shape[0]}, "
                f"state has {batch}"
            )
        if self._bit_perm is not None:
            matrix = matrix[..., self._bit_perm, :][..., :, self._bit_perm]
        view = psi.reshape((batch,) + self._view_shape)
        d = self._gate_dim
        if self._strategy == "bmm":
            operand = matrix if matrix.ndim == 2 else matrix[:, None]
            return xp.matmul(operand, view).reshape(batch, self.dim)
        moved = xp.transpose(view, self._fwd_axes)
        rest_shape = moved.shape
        flat = moved.reshape(batch, self.dim // d, d)
        out = xp.matmul(flat, xp.swapaxes(matrix, -1, -2))
        out = xp.transpose(out.reshape(rest_shape), self._back_axes)
        return out.reshape(batch, self.dim)


# ---------------------------------------------------------------------------
# Matrix classification
# ---------------------------------------------------------------------------


def _monomial_parts(matrix):
    """``(source, phase)`` when each row has at most one nonzero, else None.

    Rows that are entirely zero (Hermitian generators of controlled
    rotations have them) gather from column 0 with phase 0.
    """
    nonzero = matrix != 0
    per_row = nonzero.sum(axis=1)
    if np.any(per_row > 1):
        return None
    rows = np.arange(matrix.shape[0])
    source = np.where(per_row == 1, nonzero.argmax(axis=1), 0)
    phase = matrix[rows, source] * (per_row == 1)
    return source, phase


def _is_diagonal(matrix):
    return np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0


# Full-state exponent coefficients of the diagonal rotations:
# U = diag(exp(1j * theta * c_i)).
_PARAM_DIAG_COEFFS = {
    "rz": np.array([-0.5, 0.5]),
    "crz": np.array([0.0, 0.0, -0.5, 0.5]),
}


def _diag_phases(theta, unique_coeff, index_map, xp):
    """``exp(1j * theta * coeff)`` for scalar or per-sample ``theta``.

    The exponential runs over the few *unique* coefficients (2–3 for
    ``rz``/``crz``) and is spread over the full state by a precompiled
    index map — same per-element values, a fraction of the transcendental
    work.  The transcendentals run on the host (over 2–3 values per sample);
    only the tiny unique-phase table is uploaded, and the spread to the full
    state is a device-side gather over the materialised index map.
    """
    if np.ndim(theta) == 1:
        phases = np.exp(1j * np.asarray(theta)[:, None] * unique_coeff)
        return xp.take(xp.asarray(phases), index_map, axis=1)
    return xp.take(xp.asarray(np.exp(1j * theta * unique_coeff)), index_map, axis=0)


# ---------------------------------------------------------------------------
# Per-operation plans
# ---------------------------------------------------------------------------


def _resolve(resolver, inputs, weights):
    """Concrete angle(s) for one op — mirrors ``QuantumCircuit.resolve_angle``."""
    kind, index, scale = resolver
    if kind == "weight":
        if weights is None:
            raise ValueError("circuit references weights but none were given")
        if weights.ndim == 2:
            return weights[:, index] * scale
        return float(weights[index]) * scale
    if inputs is None:
        raise ValueError("circuit references inputs but none were given")
    return inputs[:, index] * scale


class _OpPlan:
    """One pre-planned gate application (forward, inverse and generator).

    ``kind`` is one of ``"diag"``/``"gather"``/``"dense"`` (constant
    matrices, fully resolved at compile time) or ``"pdiag"``/``"prot"``/
    ``"pdense"`` (parameterised by an input feature or trainable weight,
    resolved per call through ``resolver``).  ``"prot"`` covers rotations
    whose generator squares to the identity or to a diagonal projector
    (every registry rotation): ``exp(-i*theta/2*G)`` is then applied as
    broadcast arithmetic over the compiled generator kernel —
    ``cos(theta/2) psi - i sin(theta/2) G psi`` — with no per-sample gate
    matrices at all, which is what makes batched-angle application and the
    stacked adjoint sweep cheap.
    """

    __slots__ = (
        "ops", "wires", "kind", "resolver", "phase", "inv_phase", "source",
        "inv_source", "coeff", "matrix", "inv_matrix", "matrix_fn", "dense",
        "gen_kind", "gen_data", "proj", "n_qubits", "xp",
    )

    def __init__(self, ops, wires, kind, n_qubits):
        self.ops = tuple(ops)
        self.wires = tuple(wires)
        self.kind = kind
        self.n_qubits = n_qubits
        self.xp = _backend.get_array_backend("numpy")
        self.resolver = None
        self.phase = self.inv_phase = None
        self.source = self.inv_source = None
        self.coeff = None
        self.matrix = self.inv_matrix = None
        self.matrix_fn = None
        self.dense = None
        self.gen_kind = self.gen_data = None
        self.proj = None

    @property
    def is_identity(self):
        """True for a no-op plan (identity gates, cancelled fusions)."""
        return self.kind == "diag" and self.phase is None

    # -- forward --------------------------------------------------------------

    def apply_forward(self, psi, theta=None, out=None):
        """Forward kernel; ``out`` is an optional scratch target for the
        diag/gather/pdiag kinds (never aliased with ``psi`` by the caller).
        Gather-with-phase multiplies in place on the freshly gathered rows,
        so even without scratch it allocates once instead of twice.
        """
        kind = self.kind
        xp = self.xp
        if kind == "diag":
            if self.phase is None:
                return psi
            if out is not None:
                return xp.multiply(psi, self.phase, out=out)
            return psi * self.phase
        if kind == "gather":
            if out is not None:
                # mode="clip" never clips (source is a compile-time
                # permutation) but skips the bounds-checked buffered path
                # numpy falls into when ``out`` is combined with "raise".
                taken = xp.take(psi, self.source, axis=1, out=out, mode="clip")
            else:
                taken = psi[:, self.source]
            if self.phase is None:
                return taken
            return xp.multiply(taken, self.phase, out=taken)
        if kind == "pdiag":
            unique_coeff, index_map = self.coeff
            phases = _diag_phases(theta, unique_coeff, index_map, xp)
            if phases.ndim == 2:
                # The per-sample phase table is freshly built this call —
                # multiplying into it saves the product allocation.
                return xp.multiply(psi, phases, out=phases)
            if out is not None:
                return xp.multiply(psi, phases, out=out)
            return psi * phases
        if kind == "prot":
            return self._apply_rotation(psi, theta, 1.0)
        if kind == "pdense":
            return self._apply_dense(psi, self.matrix_fn(theta))
        return self._apply_dense(psi, self.matrix)

    # -- adjoint kernels ------------------------------------------------------

    def apply_inverse(self, psi, theta=None):
        kind = self.kind
        xp = self.xp
        if kind == "diag":
            return psi if self.inv_phase is None else psi * self.inv_phase
        if kind == "gather":
            taken = psi[:, self.inv_source]
            if self.inv_phase is None:
                return taken
            return xp.multiply(taken, self.inv_phase, out=taken)
        if kind == "pdiag":
            unique_coeff, index_map = self.coeff
            phases = _diag_phases(-np.asarray(theta), unique_coeff, index_map, xp)
            if phases.ndim == 2:
                return xp.multiply(psi, phases, out=phases)
            return psi * phases
        if kind == "prot":
            return self._apply_rotation(psi, theta, -1.0)
        if kind == "pdense":
            return self._apply_dense(psi, self.matrix_fn(-np.asarray(theta)))
        return self._apply_dense(psi, self.inv_matrix)

    def apply_generator(self, psi):
        if self.gen_kind == "diag":
            return psi * self.gen_data
        if self.gen_kind == "gather":
            source, phase = self.gen_data
            taken = psi[:, source]
            if phase is None:
                return taken
            return self.xp.multiply(taken, phase, out=taken)
        return _sv.apply_matrix(psi, self.gen_data, self.wires, self.n_qubits)

    def _apply_rotation(self, psi, theta, sign):
        """``exp(-i*sign*theta/2*G) |psi>`` through the generator kernel."""
        half = 0.5 * np.asarray(theta)
        cos = np.cos(half)
        sin = np.sin(half) if sign > 0 else -np.sin(half)
        if cos.ndim == 1:
            # Per-sample angles: the cos/sin vectors are per-call host data —
            # upload them one-way (identity on numpy).
            cos = self.xp.asarray(cos[:, None])
            sin = self.xp.asarray(sin[:, None])
        g_psi = self.apply_generator(psi)
        if self.proj is None:
            return cos * psi + (-1j * sin) * g_psi
        # G^2 = P (diagonal projector): rotate only the projected subspace.
        return psi * (1.0 + (cos - 1.0) * self.proj) + (-1j * sin) * g_psi

    def _apply_dense(self, psi, matrix):
        if self.dense is not None:
            return self.dense.apply(psi, self.xp.asarray(matrix))
        return _sv.apply_matrix(psi, matrix, self.wires, self.n_qubits)


def _materialize_plan(plan, xp):
    """Move one plan's compile-time constants onto the backend's device.

    Runs once per (program, backend) right after compilation.  On the numpy
    backend ``device_constant`` is the identity, so this is free and the
    plan keeps the exact arrays the compiler built.  The unique-coefficient
    half of a ``pdiag`` plan stays on the host — the per-call transcendental
    runs there (see :func:`_diag_phases`); only its index map is resident.
    """
    plan.xp = xp
    constant = xp.device_constant
    if plan.phase is not None:
        plan.phase = constant(plan.phase)
    if plan.inv_phase is not None:
        plan.inv_phase = constant(plan.inv_phase)
    if plan.source is not None:
        plan.source = constant(plan.source)
    if plan.inv_source is not None:
        plan.inv_source = constant(plan.inv_source)
    if plan.proj is not None:
        plan.proj = constant(plan.proj)
    if plan.coeff is not None:
        unique_coeff, index_map = plan.coeff
        plan.coeff = (unique_coeff, constant(index_map))
    if plan.matrix is not None:
        plan.matrix = constant(plan.matrix)
    if plan.inv_matrix is not None:
        plan.inv_matrix = constant(plan.inv_matrix)
    if plan.gen_kind == "diag":
        plan.gen_data = constant(plan.gen_data)
    elif plan.gen_kind == "gather":
        source, phase = plan.gen_data
        plan.gen_data = (
            constant(source), None if phase is None else constant(phase)
        )
    # Dense generators stay host-side: they run through the apply_matrix
    # reference fallback, which follows the state's namespace.
    if plan.dense is not None:
        plan.dense.bind(xp)


def _fixed_plan(ops, matrix, wires, n_qubits):
    """Classify a constant matrix into a diag / gather / dense plan."""
    if _is_diagonal(matrix):
        plan = _OpPlan(ops, wires, "diag", n_qubits)
        phase = _full_diagonal(np.diag(matrix).copy(), wires, n_qubits)
        if np.all(phase == 1.0):
            return plan  # identity: phase stays None
        plan.phase = phase
        plan.inv_phase = phase.conj()
        return plan
    parts = _monomial_parts(matrix)
    if parts is not None and np.all((matrix != 0).sum(axis=0) == 1):
        source_sub, phase_sub = parts
        if np.all(phase_sub == 1.0):
            phase_sub = None
        plan = _OpPlan(ops, wires, "gather", n_qubits)
        plan.source, plan.phase = _full_gather(
            source_sub, phase_sub, wires, n_qubits
        )
        plan.inv_source = np.empty_like(plan.source)
        plan.inv_source[plan.source] = np.arange(plan.source.shape[0])
        if plan.phase is None:
            plan.inv_phase = None
        else:
            plan.inv_phase = np.empty_like(plan.phase)
            plan.inv_phase[plan.source] = plan.phase.conj()
        return plan
    plan = _OpPlan(ops, wires, "dense", n_qubits)
    plan.matrix = matrix
    plan.inv_matrix = matrix.conj().T
    if len(wires) <= 2:
        plan.dense = _DensePlan(wires, n_qubits)
    return plan


def _generator_plan(plan, generator, wires, n_qubits):
    """Attach the compiled ``G |psi>`` kernel for adjoint gradients."""
    if _is_diagonal(generator):
        plan.gen_kind = "diag"
        plan.gen_data = _full_diagonal(np.diag(generator).copy(), wires, n_qubits)
        return
    parts = _monomial_parts(generator)
    if parts is not None:
        source_sub, phase_sub = parts
        if np.all(phase_sub == 1.0):
            phase_sub = None
        plan.gen_kind = "gather"
        plan.gen_data = _full_gather(source_sub, phase_sub, wires, n_qubits)
        return
    plan.gen_kind = "dense"
    plan.gen_data = generator


def _rotation_projector(spec, wires, n_qubits):
    """Full-state ``G^2`` diagonal when the generator-rotation form applies.

    Returns ``(ok, proj)``: ``proj`` is ``None`` for involutory generators
    (``G^2 = I``), a full-state 0/1 diagonal for projector generators
    (controlled rotations), and ``ok`` is False when the gate is not of the
    form ``exp(-i*theta/2*G)`` over that structure (verified numerically at
    compile time against ``matrix_fn``).
    """
    generator = spec.generator
    g_squared = generator @ generator
    dim = generator.shape[0]
    eye = np.eye(dim)
    if np.allclose(g_squared, eye, atol=1e-12):
        projector = eye
        proj = None
    elif _is_diagonal(g_squared) and np.all(
        np.isin(np.round(np.diag(g_squared).real, 12), (0.0, 1.0))
    ):
        projector = np.diag(np.diag(g_squared))
        proj = _full_diagonal(np.diag(g_squared).real.copy(), wires, n_qubits)
    else:
        return False, None
    check = 0.737
    reconstructed = (
        eye
        - projector
        + np.cos(check / 2) * projector
        - 1j * np.sin(check / 2) * generator
    )
    if not np.allclose(spec.matrix_fn(check), reconstructed, atol=1e-12):
        return False, None
    return True, proj


def _compile_op(op, n_qubits):
    """Compile one circuit operation into its kernel plan."""
    spec = op.spec
    ref = op.param
    if spec.n_params == 0:
        return _fixed_plan((op,), spec.fixed_matrix, op.wires, n_qubits)
    if ref.kind == "fixed":
        matrix = spec.matrix_fn(ref.value * ref.scale)
        return _fixed_plan((op,), matrix, op.wires, n_qubits)
    resolver = (ref.kind, ref.index, ref.scale)
    coeff = _PARAM_DIAG_COEFFS.get(spec.name)
    if coeff is not None:
        plan = _OpPlan((op,), op.wires, "pdiag", n_qubits)
        full = _full_diagonal(coeff, op.wires, n_qubits)
        unique_coeff, index_map = np.unique(full, return_inverse=True)
        plan.coeff = (unique_coeff, index_map)
        plan.resolver = resolver
        _generator_plan(plan, spec.generator, op.wires, n_qubits)
        return plan
    is_rotation, proj = (
        _rotation_projector(spec, op.wires, n_qubits)
        if spec.generator is not None
        else (False, None)
    )
    if is_rotation:
        plan = _OpPlan((op,), op.wires, "prot", n_qubits)
        plan.proj = proj
    else:
        plan = _OpPlan((op,), op.wires, "pdense", n_qubits)
        if len(op.wires) <= 2:
            plan.dense = _DensePlan(op.wires, n_qubits)
    plan.matrix_fn = spec.matrix_fn
    plan.resolver = resolver
    _generator_plan(plan, spec.generator, op.wires, n_qubits)
    return plan


# ---------------------------------------------------------------------------
# Forward execution steps (fused)
# ---------------------------------------------------------------------------


class _PlanStep:
    """Forward step executing one (possibly fused-constant) op plan."""

    __slots__ = ("plan",)

    def __init__(self, plan):
        self.plan = plan

    @property
    def ops(self):
        return self.plan.ops

    @property
    def kind(self):
        return self.plan.kind

    def apply(self, psi, inputs, weights, key, out=None):
        plan = self.plan
        if plan.resolver is None:
            return plan.apply_forward(psi, out=out)
        return plan.apply_forward(
            psi, _resolve(plan.resolver, inputs, weights), out
        )


class _FusedWeightStep:
    """A run of adjacent weight/constant gates merged into one small unitary.

    The fused matrix is rebuilt only when the weight *content* changes
    (detected through the program-level weights key), so it stays cached
    across every rollout step between optimiser updates — the in-circuit
    counterpart of :class:`~repro.quantum.compile.CompiledCircuit`'s suffix
    unitary cache.  With 2-D per-sample weights, fusing would build a
    batched ``(B, d, d)`` matrix stack per weight change; the constituent
    per-op rotation kernels are cheaper there, so the step falls back to
    applying its ops individually.
    """

    __slots__ = ("ops", "wires", "kind", "_plan", "_parts", "_op_plans",
                 "_key", "_matrix", "_matrix_dev", "xp")

    def bind(self, xp):
        """Attach the array backend (constituent plans bind separately)."""
        self.xp = xp
        self._plan.bind(xp)

    def __init__(self, ops, wires, n_qubits, op_plans):
        self.ops = tuple(ops)
        self.wires = tuple(wires)
        self.kind = "fused"
        self._plan = _DensePlan(self.wires, n_qubits)
        self._op_plans = list(op_plans)
        self._parts = []
        for op in self.ops:
            spec = op.spec
            ref = op.param
            if spec.n_params == 0:
                matrix = _embed_matrix(spec.fixed_matrix, op.wires, self.wires)
                self._parts.append(("const", matrix))
            elif ref.kind == "fixed":
                matrix = _embed_matrix(
                    spec.matrix_fn(ref.value * ref.scale), op.wires, self.wires
                )
                self._parts.append(("const", matrix))
            else:
                self._parts.append(
                    ("weight", spec.matrix_fn, ref.index, ref.scale, op.wires)
                )
        self._key = object()  # sentinel: never equal to a content key
        self._matrix = None
        self._matrix_dev = None
        self.xp = _backend.get_array_backend("numpy")

    def matrix(self, weights, key):
        """Fused unitary for a 1-D weight vector (2-D goes through apply).

        Built on the host per weight-content change and uploaded once per
        build — on the numpy backend the "device" copy *is* the host matrix.
        """
        if key == self._key:
            if obs.enabled():
                obs.counter("program.fused_hit").inc()
            return self._matrix_dev
        if obs.enabled():
            obs.counter("program.fused_build").inc()
        total = None
        for part in self._parts:
            if part[0] == "const":
                matrix = part[1]
            else:
                _, matrix_fn, index, scale, op_wires = part
                theta = float(weights[index]) * scale
                matrix = _embed_matrix(matrix_fn(theta), op_wires, self.wires)
            total = matrix if total is None else matrix @ total
        self._key = key
        self._matrix = total
        self._matrix_dev = self.xp.asarray(total)
        return self._matrix_dev

    def apply(self, psi, inputs, weights, key, out=None):
        if weights is None:
            raise ValueError("circuit references weights but none were given")
        if weights.ndim == 2:
            # Per-sample weights: batched fused matrices cost more than the
            # constituent rotation kernels — run the ops individually.
            for plan in self._op_plans:
                if plan.resolver is None:
                    psi = plan.apply_forward(psi)
                else:
                    psi = plan.apply_forward(
                        psi, _resolve(plan.resolver, inputs, weights)
                    )
            return psi
        return self._plan.apply(psi, self.matrix(weights, key))


def _compose_monomial(first, second, n_qubits):
    """Merge two constant diag/gather plans (``first`` applied first)."""
    sa, pa = first.source, first.phase
    sb, pb = second.source, second.phase
    if sa is None and sb is None:
        source = None
    elif sb is None:
        source = sa
    elif sa is None:
        source = sb
    else:
        source = sa[sb]
    pa_moved = pa if (pa is None or sb is None) else pa[sb]
    if pa_moved is None:
        phase = pb
    elif pb is None:
        phase = pa_moved
    else:
        phase = pa_moved * pb
    if source is not None and np.array_equal(source, np.arange(source.shape[0])):
        source = None
    ops = first.ops + second.ops
    wires = tuple(sorted(set(first.wires) | set(second.wires)))
    if source is None:
        plan = _OpPlan(ops, wires, "diag", n_qubits)
        if phase is not None and not np.all(phase == 1.0):
            plan.phase = phase
            plan.inv_phase = phase.conj()
        return plan
    plan = _OpPlan(ops, wires, "gather", n_qubits)
    plan.source, plan.phase = source, phase
    plan.inv_source = np.empty_like(source)
    plan.inv_source[source] = np.arange(source.shape[0])
    if phase is None:
        plan.inv_phase = None
    else:
        plan.inv_phase = np.empty_like(phase)
        plan.inv_phase[source] = phase.conj()
    return plan


# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------


class CircuitProgram:
    """A circuit lowered to pre-planned, fused gate kernels.

    Args:
        n_qubits: Register width.
        operations: Ordered :class:`~repro.quantum.circuit.Operation` list
            (a whole circuit, or a slice of one — e.g.
            :class:`~repro.quantum.compile.CompiledCircuit`'s prefix).
        array_backend: Array backend (name, instance or ``None`` for the
            current default) the program's kernels run on.  Compile-time
            constants are materialised on it once, here.

    Two views of the same circuit are compiled:

    - :attr:`steps` — the fused forward plan used by :meth:`apply` /
      :meth:`evolve`;
    - :attr:`op_plans` — one un-fused plan per operation, exposing
      :meth:`apply_inverse` and :meth:`apply_generator` for the adjoint
      reverse sweep (which needs per-gate granularity).
    """

    # Scratch buffers are kept for at most this many distinct batch shapes.
    _SCRATCH_SHAPE_LIMIT = 8

    def __init__(self, n_qubits, operations, array_backend=None):
        self.n_qubits = int(n_qubits)
        self.dim = 2**self.n_qubits
        self.operations = tuple(operations)
        self.array_backend = _backend.get_array_backend(array_backend)
        self.op_plans = [_compile_op(op, self.n_qubits) for op in self.operations]
        self.steps = self._build_steps()
        self._materialize(self.array_backend)
        # Frozen at compile time so the telemetry publish in apply() is a
        # tuple walk, not a per-call histogram rebuild.
        self._kind_counts = tuple(sorted(self.kernel_counts().items()))
        self._fused_weights = any(
            isinstance(step, _FusedWeightStep) for step in self.steps
        )
        self._has_weight_ops = any(op.is_trainable for op in self.operations)
        # Per-program ping-pong scratch (numpy path): forward diag/gather/
        # pdiag steps write into preallocated buffers instead of allocating a
        # fresh state per step.  The final step always allocates, so returned
        # states never alias program-owned scratch.
        self._scratch = {}
        self._use_scratch = (
            self.array_backend.supports_scratch and len(self.steps) > 1
        )

    def _materialize(self, xp):
        """Upload every plan's constants to ``xp``'s device (once)."""
        seen = set()

        def visit(plan):
            if id(plan) in seen:
                return
            seen.add(id(plan))
            _materialize_plan(plan, xp)

        for plan in self.op_plans:
            visit(plan)
        for step in self.steps:
            if isinstance(step, _FusedWeightStep):
                step.bind(xp)
            else:
                visit(step.plan)

    # -- compilation ----------------------------------------------------------

    def _build_steps(self):
        steps = []
        group = []  # (op, plan) pairs of the pending fusion run
        group_wires = set()

        def flush():
            if not group:
                return
            if len(group) == 1:
                steps.append(_PlanStep(group[0][1]))
            else:
                ops = [op for op, _ in group]
                union = tuple(sorted(group_wires))
                if any(op.is_trainable for op in ops):
                    steps.append(
                        _FusedWeightStep(
                            ops, union, self.n_qubits,
                            [plan for _, plan in group],
                        )
                    )
                else:
                    total = None
                    for op in ops:
                        spec = op.spec
                        if spec.n_params == 0:
                            matrix = spec.fixed_matrix
                        else:
                            ref = op.param
                            matrix = spec.matrix_fn(ref.value * ref.scale)
                        matrix = _embed_matrix(matrix, op.wires, union)
                        total = matrix if total is None else matrix @ total
                    steps.append(
                        _PlanStep(_fixed_plan(ops, total, union, self.n_qubits))
                    )
            group.clear()
            group_wires.clear()

        for op, plan in zip(self.operations, self.op_plans):
            fusable = not op.is_input and len(op.wires) <= 2
            if fusable and len(group_wires | set(op.wires)) <= 2:
                group.append((op, plan))
                group_wires.update(op.wires)
                continue
            flush()
            if fusable:
                group.append((op, plan))
                group_wires.update(op.wires)
            else:
                steps.append(_PlanStep(plan))
        flush()

        # Compose consecutive constant diagonal/monomial kernels into one
        # full-state gather — wire overlap is irrelevant at this level.
        merged = []
        for step in steps:
            if (
                merged
                and isinstance(step, _PlanStep)
                and isinstance(merged[-1], _PlanStep)
                and step.plan.resolver is None
                and merged[-1].plan.resolver is None
                and step.plan.kind in ("diag", "gather")
                and merged[-1].plan.kind in ("diag", "gather")
            ):
                merged[-1] = _PlanStep(
                    _compose_monomial(merged[-1].plan, step.plan, self.n_qubits)
                )
                continue
            merged.append(step)
        return [
            step
            for step in merged
            if not (isinstance(step, _PlanStep) and step.plan.is_identity)
        ]

    # -- execution ------------------------------------------------------------

    def zero_state(self, batch_size=1):
        """``|0...0>`` on this program's device, shape ``(B, 2**n)``."""
        psi = self.array_backend.zeros(
            (batch_size, self.dim), np.complex128
        )
        psi[:, 0] = 1.0
        return psi

    def _scratch_pair(self, shape):
        pair = self._scratch.get(shape)
        if pair is None:
            if len(self._scratch) >= self._SCRATCH_SHAPE_LIMIT:
                self._scratch.clear()
            xp = self.array_backend
            pair = (
                xp.empty(shape, np.complex128),
                xp.empty(shape, np.complex128),
            )
            self._scratch[shape] = pair
        return pair

    def apply(self, psi, inputs=None, weights=None):
        """Run the program on an existing state batch ``(B, 2**n)``."""
        if inputs is not None:
            inputs = np.asarray(inputs, dtype=np.float64)
        weights_arr = None if weights is None else np.asarray(weights)
        if (
            self._has_weight_ops
            and weights_arr is not None
            and weights_arr.ndim == 2
            and weights_arr.shape[0] != psi.shape[0]
        ):
            # Same contract (and message) as the interpreted tier, which
            # rejects the mismatch inside apply_matrix — broadcasting a
            # short per-sample weight matrix would silently diverge.
            raise ValueError(
                f"batched matrix has batch {weights_arr.shape[0]}, "
                f"state has {psi.shape[0]}"
            )
        key = None
        if self._fused_weights and weights_arr is not None:
            key = weights_key(weights_arr)
        if obs.enabled():
            obs.counter("program.evals").inc()
            obs.counter("program.rows").inc(psi.shape[0])
            obs.counter("program.kernel_dispatches").inc(len(self.steps))
            for kind, count in self._kind_counts:
                obs.counter(f"program.kernels.{kind}").inc(count)
        steps = self.steps
        if self._use_scratch and psi.dtype == np.complex128:
            # Strict A/B alternation guarantees a step never writes the
            # buffer its input state may alias; the last step gets no
            # scratch so the returned state is always freshly owned.
            scratch = self._scratch_pair(psi.shape)
            last = len(steps) - 1
            for i, step in enumerate(steps):
                out = scratch[i & 1] if i != last else None
                psi = step.apply(psi, inputs, weights_arr, key, out)
            return psi
        for step in steps:
            psi = step.apply(psi, inputs, weights_arr, key)
        return psi

    def evolve(self, inputs=None, weights=None, batch_size=1):
        """Run the program from ``|0...0>``, returning ``(B, 2**n)``."""
        return self.apply(self.zero_state(batch_size), inputs, weights)

    # -- adjoint kernels ------------------------------------------------------

    def apply_inverse(self, index, psi, theta=None):
        """Apply the compiled inverse of operation ``index`` to ``psi``.

        ``psi`` may be any row-stacked state array — the adjoint sweep
        passes the concatenated ``(2B, dim)`` bra/ket block so each gate
        inversion is one kernel call (``theta`` must then be stacked to
        match when it is per-sample).
        """
        return self.op_plans[index].apply_inverse(psi, theta)

    def apply_generator(self, index, psi):
        """Apply operation ``index``'s generator to ``psi`` (``G |psi>``)."""
        return self.op_plans[index].apply_generator(psi)

    # -- introspection --------------------------------------------------------

    @property
    def n_steps(self):
        """Fused forward step count (``<= len(operations)``)."""
        return len(self.steps)

    def kernel_counts(self):
        """Histogram of forward kernel kinds, e.g. ``{"diag": 3, ...}``."""
        counts = {}
        for step in self.steps:
            counts[step.kind] = counts.get(step.kind, 0) + 1
        return counts

    def __repr__(self):
        return (
            f"CircuitProgram(n_qubits={self.n_qubits}, "
            f"ops={len(self.operations)}, steps={self.n_steps}, "
            f"kernels={self.kernel_counts()})"
        )


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------

_PROGRAM_CACHE = {}
_CACHE_FALLBACK_LIMIT = 512


def cached_for_circuit(cache, circuit, xp, build, counter):
    """``build()`` once per (circuit identity, array backend), kept in ``cache``.

    Entries are validated against the circuit's operation list, so appending
    to a circuit after running it triggers a clean rebuild instead of stale
    kernels, and are evicted when the circuit is garbage collected.
    ``counter`` prefixes the ``.cache_hit`` / ``.compile`` telemetry.
    """
    key = (id(circuit), id(xp))
    entry = cache.get(key)
    if entry is not None:
        snapshot, value, _ref = entry
        ops = circuit.operations
        if len(snapshot) == len(ops) and all(
            a is b for a, b in zip(snapshot, ops)
        ):
            if obs.enabled():
                obs.counter(f"{counter}.cache_hit").inc()
            return value
    if obs.enabled():
        obs.counter(f"{counter}.compile").inc()
    value = build()
    try:
        ref = weakref.ref(circuit, lambda _r, _k=key: cache.pop(_k, None))
    except TypeError:
        ref = None
        if len(cache) >= _CACHE_FALLBACK_LIMIT:
            cache.clear()
    cache[key] = (tuple(circuit.operations), value, ref)
    return value


def compile_program(circuit, array_backend=None):
    """Compile (and cache) the program for a symbolic circuit.

    Cached per (circuit identity, array backend) by
    :func:`cached_for_circuit`, so each backend gets its own
    device-materialised program.
    """
    xp = _backend.get_array_backend(array_backend)
    return cached_for_circuit(
        _PROGRAM_CACHE, circuit, xp,
        lambda: CircuitProgram(circuit.n_qubits, circuit.operations, xp),
        "program",
    )
