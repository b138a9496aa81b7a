"""Standard gate library: matrices, unitarity, registry behaviour, caching."""

import numpy as np
import pytest

from repro.gates import available_gates, gate_arity, get_gate, register_gate, registry
from repro.utils.exceptions import CircuitError

EXPECTED_GATES = {
    "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg",
    "rx", "ry", "rz", "p", "u3", "cx", "cz", "swap",
}


def test_standard_library_registered():
    assert EXPECTED_GATES <= set(available_gates())


@pytest.mark.parametrize("name", sorted(EXPECTED_GATES))
def test_every_gate_is_unitary(name):
    params = {"rx": (0.3,), "ry": (0.3,), "rz": (0.3,), "p": (0.3,), "u3": (0.1, 0.2, 0.3)}
    gate = get_gate(name, *params.get(name, ()))
    assert gate.is_unitary()
    assert gate.num_qubits == gate_arity(name)


def test_known_matrices():
    sqrt2 = np.sqrt(2.0)
    assert np.allclose(get_gate("h").matrix, np.array([[1, 1], [1, -1]]) / sqrt2)
    assert np.allclose(get_gate("x").matrix, [[0, 1], [1, 0]])
    assert np.allclose(get_gate("z").matrix, np.diag([1, -1]))
    assert np.allclose(get_gate("cz").matrix, np.diag([1, 1, 1, -1]))


def test_cx_control_is_most_significant_bit():
    cx = get_gate("cx").matrix
    # |10> (control set, target clear) -> |11>
    assert cx[3, 2] == 1 and cx[2, 3] == 1
    # control-clear block is identity
    assert cx[0, 0] == 1 and cx[1, 1] == 1


def test_sdg_tdg_are_adjoints():
    assert np.allclose(get_gate("sdg").matrix, get_gate("s").matrix.conj().T)
    assert np.allclose(get_gate("tdg").matrix, get_gate("t").matrix.conj().T)


def test_rotations_match_exponential_form():
    theta = 0.7
    x = get_gate("x").matrix
    expected = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * x
    assert np.allclose(get_gate("rx", theta).matrix, expected)


def test_u3_specialises_to_known_gates():
    # u3(pi, 0, pi) == X up to the standard convention (exactly X here).
    assert np.allclose(get_gate("u3", np.pi, 0.0, np.pi).matrix, get_gate("x").matrix, atol=1e-12)
    # u3(0, 0, lam) == phase gate
    assert np.allclose(get_gate("u3", 0.0, 0.0, 0.4).matrix, get_gate("p", 0.4).matrix)


def test_gate_names_case_insensitive():
    assert get_gate("H") is get_gate("h")


def test_same_params_hit_cache_different_params_do_not():
    assert get_gate("rz", 0.5) is get_gate("rz", 0.5)
    assert get_gate("rz", 0.5) is not get_gate("rz", 0.6)


def test_gate_cache_is_bounded():
    from repro.gates import registry

    for i in range(registry._GATE_CACHE.maxsize + 50):
        get_gate("rz", 1e-9 * i)
    assert len(registry._GATE_CACHE) <= registry._GATE_CACHE.maxsize


def test_unknown_gate_raises_circuit_error():
    with pytest.raises(CircuitError):
        get_gate("nope")


def test_wrong_param_count_raises():
    with pytest.raises(CircuitError):
        get_gate("rz")
    with pytest.raises(CircuitError):
        get_gate("h", 0.1)


def test_register_gate_rejects_duplicates_and_accepts_new():
    with pytest.raises(CircuitError):
        register_gate("x", 1, 0, lambda: np.eye(2))

    register_gate("test_only_sx", 1, 0, lambda: np.array(
        [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2)
    try:
        gate = get_gate("test_only_sx")
        assert gate.is_unitary()
        assert np.allclose(gate.matrix @ gate.matrix, get_gate("x").matrix)
    finally:
        # The registry is process-wide: a leaked gate would change what
        # available_gates() offers to every later test in the session.
        del registry._REGISTRY["test_only_sx"]
        with registry._GATE_CACHE._lock:
            registry._GATE_CACHE._data.pop(("test_only_sx", ()), None)
    assert "test_only_sx" not in available_gates()
