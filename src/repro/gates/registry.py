"""Gate registry: name -> (arity, parameter count, matrix builder).

The registry decouples gate *identity* (a name plus bound parameters) from
gate *representation* (the unitary matrix).  Builders are plain functions
``(*params) -> ndarray``; constructed :class:`Gate` objects are cached per
``(name, params)`` so hot loops building many circuits share matrices.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.parameter import Parameter
from repro.utils.exceptions import CircuitError
from repro.utils.lru import LRUCache

MatrixBuilder = Callable[..., np.ndarray]
# Maps a gate's bound params to the (name, params) of its registered adjoint.
InverseRule = Callable[..., Tuple[str, Tuple[float, ...]]]

_REGISTRY: Dict[str, Tuple[int, int, MatrixBuilder, "InverseRule | None"]] = {}
# LRU-bounded: variational workloads construct gates with ever-fresh angles,
# so an uncapped cache would grow for the life of the process.  Dispatcher
# threads and plan binding build gates concurrently; gates are built
# outside the cache lock, and racing threads share the first one stored.
_GATE_CACHE: "LRUCache[Gate]" = LRUCache(4096)


def register_gate(
    name: str,
    num_qubits: int,
    num_params: int,
    builder: MatrixBuilder,
    inverse: "InverseRule | None" = None,
) -> None:
    """Register ``builder`` as the matrix constructor for gate ``name``.

    ``inverse``, when given, maps this gate's bound params to the
    ``(name, params)`` of its registered adjoint (e.g. ``rx`` -> ``rx`` with
    a negated angle), keeping ``Circuit.inverse()`` output resolvable through
    the registry.  Re-registering an existing name raises
    :class:`CircuitError`; the registry is a process-wide namespace and silent
    replacement would invalidate cached gates already embedded in circuits.
    """
    key = name.lower()
    if key in _REGISTRY:
        raise CircuitError(f"gate {name!r} is already registered")
    if num_qubits < 1:
        raise CircuitError(f"gate arity must be >= 1, got {num_qubits}")
    if num_params < 0:
        raise CircuitError(f"parameter count must be >= 0, got {num_params}")
    _REGISTRY[key] = (num_qubits, num_params, builder, inverse)


def available_gates() -> Tuple[str, ...]:
    """Registered gate names, sorted."""
    return tuple(sorted(_REGISTRY))


def gate_arity(name: str) -> int:
    """Number of qubits gate ``name`` acts on."""
    try:
        return _REGISTRY[name.lower()][0]
    except KeyError:
        raise CircuitError(f"unknown gate {name!r}") from None


def resolve_inverse(name: str, params: Tuple[float, ...]) -> "Gate | None":
    """The registered adjoint of ``(name, params)``, or ``None`` if no rule.

    Used by :meth:`Gate.inverse` so inverted circuits stay expressed in
    registry-resolvable ``(name, params)`` pairs.
    """
    entry = _REGISTRY.get(name.lower())
    if (
        entry is None
        or entry[3] is None
        or len(params) != entry[1]
        # Unbound parameters have no adjoint rule to evaluate.
        or any(isinstance(p, Parameter) for p in params)
    ):
        return None
    inverse_name, inverse_params = entry[3](*params)
    return get_gate(inverse_name, *inverse_params)


def get_gate(name: str, *params: "float | Parameter") -> Gate:
    """Construct (or fetch from cache) the gate ``name`` with ``params``.

    Any parameter may be a symbolic :class:`~repro.circuit.Parameter`; the
    resulting gate is then *parametric* — it carries no matrix until
    :meth:`Circuit.bind` substitutes values and re-resolves it here.
    """
    key = name.lower()
    try:
        num_qubits, num_params, builder, _inverse = _REGISTRY[key]
    except KeyError:
        raise CircuitError(
            f"unknown gate {name!r}; available: {', '.join(available_gates())}"
        ) from None
    if len(params) != num_params:
        raise CircuitError(
            f"gate {name!r} takes {num_params} parameter(s), got {len(params)}"
        )
    bound = tuple(
        p if isinstance(p, Parameter) else float(p) for p in params
    )
    cache_key = (key, bound)
    gate = _GATE_CACHE.get(cache_key)
    if gate is not None:
        return gate
    if any(isinstance(p, Parameter) for p in bound):
        # Deferred gate: identity is (name, params) as usual, the
        # matrix build waits for Circuit.bind to re-resolve here.
        built = Gate(key, num_qubits, None, bound)
    else:
        built = Gate(key, num_qubits, builder(*bound), bound)
    return _GATE_CACHE.put(cache_key, built)
