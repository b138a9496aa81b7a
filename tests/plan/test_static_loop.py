"""The shared static op loop is bitwise identical to chaining ``op.apply``.

``BaseBackend.execute_plan`` runs statevector, noiseless trajectory and
ptm plans through two preallocated buffers in a tracked axis layout
instead of one ``tensordot`` + ``moveaxis`` per op.  That changes where
the numbers live, never the arithmetic: each op is the same GEMM on the
same operands, so ``np.array_equal`` — not ``allclose`` — is the bar.
"""

import numpy as np
import pytest

from repro import Circuit, NoiseModel, RunOptions
from repro.noise import amplitude_damping, depolarizing
from repro.plan import compile_plan
from repro.plan.plan import _contract
from repro.sim import PTMBackend, StatevectorBackend, get_backend


def _chained(plan, backend, initial_state=None):
    """The per-op reference: one ``_contract`` (tensordot + moveaxis) per op."""
    tensor = backend._initial_tensor(plan.num_qubits, initial_state).astype(plan.dtype)
    for op in plan.ops:
        tensor = _contract(tensor, op.tensor, op.targets, op.in_axes, op.out_axes)
    return tensor


def _circuit(last_qubit):
    """Descending and crossing targets; the last gate fixes the final layout."""
    return (
        Circuit(4)
        .h(0)
        .cx(3, 1)
        .ry(0.3, 2)
        .cx(0, 2)
        .rz(0.7, 3)
        .cx(2, 1)
        .u3(0.1, 0.2, 0.3, 1)
        .h(last_qubit)
    )


def _noise():
    return (
        NoiseModel()
        .add_channel(depolarizing(0.02), gates=["h", "ry", "rz", "u3"])
        .add_channel(depolarizing(0.03, num_qubits=2), gates=["cx"])
    )


@pytest.mark.parametrize("last_qubit", [0, 2])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_statevector_plan_matches_the_per_op_chain(last_qubit, dtype):
    backend = StatevectorBackend(dtype)
    plan = compile_plan(_circuit(last_qubit), backend, use_cache=False)
    assert plan.dtype == np.dtype(dtype)
    state = backend.execute_plan(plan)
    assert state.tensor().dtype == np.dtype(dtype)
    assert np.array_equal(state.tensor(), _chained(plan, backend))


def test_a_plan_ending_in_a_permuted_layout_is_transposed_back():
    # The last op acts on qubit 2, so the buffers end in layout
    # (2, 0, 1, 3) and the loop's final transpose must restore qubit order.
    backend = get_backend("statevector")
    plan = compile_plan(_circuit(2), backend, use_cache=False)
    assert plan.ops[-1].targets == (2,)
    state = backend.execute_plan(plan)
    reference = _chained(plan, backend)
    assert np.array_equal(state.tensor(), reference)
    # The same state up to that last op differs, so a missing transpose shows.
    assert not np.array_equal(np.moveaxis(reference, 2, 0), reference)


def test_noiseless_trajectory_plan_matches_the_per_op_chain():
    backend = get_backend("trajectory")
    plan = compile_plan(_circuit(2), backend, use_cache=False)
    assert not plan.has_dynamic_ops
    assert np.array_equal(backend.execute_plan(plan).tensor(), _chained(plan, backend))


@pytest.mark.parametrize("last_qubit", [0, 2])
def test_ptm_plan_matches_the_per_op_chain(last_qubit):
    backend = PTMBackend()
    circuit = _circuit(last_qubit).channel(amplitude_damping(0.05), (3,))
    plan = compile_plan(
        circuit, backend, RunOptions(noise_model=_noise()), use_cache=False
    )
    assert any(op.targets == (3, 1) or op.targets == (1, 3) for op in plan.ops)
    state = backend.execute_plan(plan)
    assert np.array_equal(state.tensor(), _chained(plan, backend))


def test_initial_state_is_not_modified():
    backend = get_backend("statevector")
    initial = backend.run(Circuit(4).h(0).cx(0, 3))
    before = initial.data
    plan = compile_plan(_circuit(2), backend, use_cache=False)
    state = backend.execute_plan(plan, initial)
    assert np.array_equal(initial.data, before)
    assert np.array_equal(state.tensor(), _chained(plan, backend, initial))


def test_empty_plan_returns_the_initial_state():
    backend = get_backend("ptm")
    plan = compile_plan(Circuit(2), backend, use_cache=False)
    assert plan.ops == ()
    assert np.array_equal(
        backend.execute_plan(plan).tensor(), backend._initial_tensor(2, None)
    )


def test_a_foreign_dtype_op_promotes_the_state_and_the_sanitizer_sees_it():
    from repro.utils import SanitizerError

    backend = StatevectorBackend(np.complex64)
    plan = compile_plan(Circuit(2).h(0).cx(0, 1), backend, use_cache=False)
    plan.ops[0].tensor = plan.ops[0].tensor.astype(np.complex128)
    with pytest.raises(SanitizerError, match="sanitize-dtype-promotion"):
        backend.execute_plan(plan, sanitize="strict")
