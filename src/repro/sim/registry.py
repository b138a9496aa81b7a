"""The backend base class and the name -> backend registry.

Every simulator is a :class:`BaseBackend` subclass exposing the same
``run(circuit, initial_state=None, options=None)`` surface, taking a
single :class:`~repro.execution.RunOptions` object and returning a state
with ``num_qubits`` and ``probabilities()``.  The execution layer,
sampler and bench harness therefore dispatch by *name* through
:func:`get_backend` instead of hard-coding a backend class.  Backends
register themselves at import time (``repro.sim`` imports the four
shipped backends), and user backends join via :func:`register_backend`.

:class:`BaseBackend` implements that ``run()`` once — unbound-parameter
rejection, compilation to an :class:`~repro.plan.ExecutionPlan`, and the
shared plan-execution loop (:meth:`BaseBackend.execute_plan`) — so
concrete backends only provide their state-representation hooks:
:attr:`~BaseBackend.plan_mode`, ``_initial_tensor``, ``_finalize`` (and
optionally a noise validation hook).  The shipped backends share the
*identical* ``run`` and ``execute_plan`` method objects; each contract
is stated exactly once.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.circuit import Circuit
from repro.execution.options import RunOptions, resolve_sanitize_mode
from repro.utils.exceptions import SimulationError

if TYPE_CHECKING:
    from repro.analysis.sanitize import Sanitizer
    from repro.noise import NoiseModel
    from repro.plan.plan import ExecutionPlan

DEFAULT_BACKEND = "statevector"


class BaseBackend:
    """Shared ``run()`` / ``execute_plan()`` driver for concrete backends.

    There is exactly one evolution code path: ``run()`` compiles the
    circuit into an :class:`~repro.plan.ExecutionPlan` (through the
    process-wide plan cache) and hands it to :meth:`execute_plan`, whose
    op loop is shared by every backend.  Subclasses set :attr:`name` and
    :attr:`plan_mode` (and :attr:`dtype` when it is not ``complex128``)
    and implement only the state-representation hooks:
    ``_initial_tensor(num_qubits, initial_state)`` (allocate/convert the
    starting tensor — a fresh array, since the loop evolves it in place)
    and ``_finalize(tensor, num_qubits)`` (wrap the evolved tensor in the
    backend's state type).  The ``_validate_noise``
    hook lets a backend reject noise it cannot represent before any state
    is allocated.
    """

    name = "base"
    # "statevector", "density", "trajectory" or "ptm": selects the
    # repro.plan lowering mode.  Concrete subclasses MUST declare it
    # (compile_plan rejects backends without one, loudly, instead of
    # guessing a state representation).
    plan_mode: Optional[str] = None

    @property
    def dtype(self) -> np.dtype:
        """The op-tensor precision :func:`~repro.plan.compile_plan` lowers to."""
        return np.dtype(np.complex128)

    def run(
        self,
        circuit: Circuit,
        initial_state: Any = None,
        options: Optional[RunOptions] = None,
    ) -> Any:
        """Simulate ``circuit`` from ``initial_state`` under ``options``.

        ``options`` is a :class:`~repro.execution.RunOptions` (``None``
        for the defaults).
        """
        # Imported lazily: the plan layer consumes the same circuit IR
        # this backend executes, and a module-level import either way
        # would create a cycle (compile_plan resolves backends by name).
        from repro.plan import compile_plan

        if options is None:
            options = RunOptions()
        # compile_plan type-checks the circuit and the options and
        # validates the noise; a parametric circuit compiles to a plan
        # with open slots, which run() cannot execute.
        plan = compile_plan(circuit, self, options)
        if plan.parameters:
            raise SimulationError(
                f"circuit has unbound parameter(s) "
                f"{[p.name for p in plan.parameters]}; bind them "
                "(Circuit.bind) or run a parameter sweep through repro.execute"
            )
        rng = None
        if plan.has_dynamic_ops and plan.mode != "density":
            # A direct run() of a dynamic circuit on a pure-state backend
            # is a single stochastic trajectory; options.seed makes it
            # reproducible.  Shot-resolved sampling lives in execute().
            rng = np.random.default_rng(options.seed)
        return self.execute_plan(
            plan, initial_state, rng=rng, sanitize=options.sanitize
        )

    def execute_plan(
        self,
        plan: "ExecutionPlan",
        initial_state: Any = None,
        *,
        rng: Optional[np.random.Generator] = None,
        classical: Optional[Dict[str, Any]] = None,
        sanitize: Optional[str] = None,
    ) -> Any:
        """Run a compiled, fully bound plan — the one evolution loop.

        ``plan`` must have been compiled for this backend's
        :attr:`plan_mode`.  Dtype mismatches are tolerated and the
        *plan's* dtype wins: op tensors were cast at compile time, and
        the initial tensor is cast to match below, so executing a
        ``complex64`` plan on a ``complex128``-configured backend (or
        vice versa) stays in the plan's precision end to end.

        Static statevector, trajectory and ptm plans — every op a single
        contraction — run through one allocation-free loop: two
        state-sized buffers (the initial tensor and one spare) in a
        tracked axis layout, each op at most one transposed copy plus one
        ``np.dot`` with ``out=``, and one transpose at the end.  The
        results are bitwise identical to chaining ``op.apply``.  Static
        density plans apply op after op.

        Plans with dynamic ops leave the static loop:

        * pure modes thread ``rng`` (fresh unseeded generator when
          ``None``) and a classical-bit register through
          :func:`~repro.plan.execute_dynamic_pure` — one stochastic
          trajectory; the final clbit string lands in
          ``classical["bits"]`` when a dict is passed.
        * density mode runs the deterministic branch bookkeeping of
          :func:`~repro.plan.execute_dynamic_density`; the exact clbit
          distribution lands in ``classical["distribution"]``.

        ``sanitize`` enables the runtime numerical watchdog
        (:class:`repro.analysis.sanitize.Sanitizer`): ``None`` defers to
        the ``REPRO_SANITIZE`` environment variable, ``"off"`` (the
        resolved default) adds zero cost — the analysis layer is only
        imported once a non-off mode is requested.  Static plans are
        checked after every op; dynamic plans (whose intermediate states
        live inside the branch/trajectory bookkeeping) get final-state
        checks.  Findings land in ``classical["sanitizer"]`` when a
        dict is passed.
        """
        from repro.plan import (
            ExecutionPlan,
            execute_dynamic_density,
            execute_dynamic_pure,
        )

        if not isinstance(plan, ExecutionPlan):
            raise SimulationError(
                f"expected an ExecutionPlan, got {type(plan).__name__}"
            )
        if plan.mode != self.plan_mode:
            raise SimulationError(
                f"plan was lowered for mode {plan.mode!r}, but backend "
                f"{self.name!r} executes {self.plan_mode!r} plans"
            )
        if plan.parameters:
            raise SimulationError(
                f"plan has unbound parameter(s) "
                f"{[p.name for p in plan.parameters]}; bind the plan "
                "(ExecutionPlan.bind) before executing it"
            )
        sanitize_mode = resolve_sanitize_mode(sanitize)
        sanitizer = None
        if sanitize_mode != "off":
            # Lazy by design: the resolved "off" default never imports
            # the analysis layer (the validate="off" pattern).
            from repro.analysis.sanitize import Sanitizer

            sanitizer = Sanitizer(plan, sanitize_mode)
        tensor = self._initial_tensor(plan.num_qubits, initial_state)
        if tensor.dtype != plan.dtype:
            tensor = tensor.astype(plan.dtype)
        if not plan.has_dynamic_ops:
            if plan.mode == "density":
                for site, op in enumerate(plan.ops):
                    tensor = op.apply(tensor)
                    if sanitizer is not None:
                        sanitizer.after_op(tensor, site, op)
            else:
                tensor = _contract_ops(plan.ops, tensor, sanitizer)
            if sanitizer is not None:
                findings = sanitizer.finish(tensor)
                if classical is not None:
                    classical["sanitizer"] = findings
            return self._finalize(tensor, plan.num_qubits)
        if plan.mode == "density":
            tensor, distribution = execute_dynamic_density(plan, tensor)
            if classical is not None:
                classical["distribution"] = distribution
        else:
            if rng is None:
                rng = np.random.default_rng()
            tensor, bits = execute_dynamic_pure(plan, tensor, rng)
            if classical is not None:
                classical["bits"] = "".join(map(str, bits))
        if sanitizer is not None:
            findings = sanitizer.finish(tensor)
            if classical is not None:
                classical["sanitizer"] = findings
        return self._finalize(tensor, plan.num_qubits)

    def _validate_noise(self, noise_model: Optional["NoiseModel"]) -> None:
        """Reject noise this backend cannot represent (default: accept)."""


    def _initial_tensor(self, num_qubits: int, initial_state: Any) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _finalize(self, tensor: np.ndarray, num_qubits: int) -> Any:
        raise NotImplementedError  # pragma: no cover - abstract hook


def _contract_ops(
    ops: Sequence[Any], tensor: np.ndarray, sanitizer: Optional["Sanitizer"]
) -> np.ndarray:
    """Apply single-contraction ops (``UnitaryOp``, ``PTMOp``) to ``tensor``.

    No array is allocated per op.  The state lives in one of two
    state-sized buffers — ``tensor`` itself and one spare — in a
    *physical* axis layout: the last op's targets, then every other qubit
    in logical order, which is the layout :func:`numpy.tensordot` builds
    before ``moveaxis``.  An op is at most one copy of a transposed view
    into the spare buffer (only when its targets differ from the layout's
    leading axes), then one ``np.dot(matrix, a.reshape(d**k, -1),
    out=b.reshape(d**k, -1))``.  That GEMM gets the very operands
    ``tensordot`` would build, so the result is bitwise identical to
    chaining ``op.apply``.  The sanitizer observes a logical-order view
    after each op; one transpose into the spare buffer ends the loop.
    """
    if not ops:
        return tensor
    if not (tensor.flags.c_contiguous and tensor.flags.writeable):
        tensor = np.array(tensor, order="C")
    n = tensor.ndim
    side = tensor.shape[0]
    logical = tuple(range(n))
    layout = logical  # physical axis i holds logical qubit layout[i]
    a, b = tensor, np.empty_like(tensor)
    for site, op in enumerate(ops):
        targets = tuple(op.targets)
        wanted = targets + tuple(q for q in logical if q not in targets)
        if wanted != layout:
            np.copyto(b, a.transpose([layout.index(q) for q in wanted]))
            a, b, layout = b, a, wanted
        dim = side ** len(targets)
        matrix = op.tensor.reshape(dim, dim)
        if matrix.dtype != a.dtype:
            # Lowering casts every op tensor to the plan dtype; a foreign
            # one promotes the state as tensordot would, and the
            # sanitizer reports the drift.
            dtype = np.result_type(matrix, a)
            a, b = a.astype(dtype), np.empty(a.shape, dtype)
        np.dot(matrix, a.reshape(dim, -1), out=b.reshape(dim, -1))
        a, b = b, a
        if sanitizer is not None:
            sanitizer.after_op(a.transpose([layout.index(q) for q in logical]), site, op)
    if layout != logical:
        np.copyto(b, a.transpose([layout.index(q) for q in logical]))
        a = b
    return a


BackendLike = Union[None, str, BaseBackend]

_FACTORIES: Dict[str, Callable[[], BaseBackend]] = {}
_INSTANCES: Dict[str, BaseBackend] = {}


def register_backend(name: str, factory: Callable[[], BaseBackend]) -> None:
    """Register ``factory`` as the constructor for backend ``name``.

    The factory is called lazily, once, on the first :func:`get_backend`
    lookup; the instance is then shared (backends are stateless between
    runs).  Re-registering an existing name raises — the registry is a
    process-wide namespace, as for gates.
    """
    key = str(name).lower()
    if key in _FACTORIES:
        raise SimulationError(f"backend {name!r} is already registered")
    if not callable(factory):
        raise SimulationError(
            f"backend factory for {name!r} must be callable, got {factory!r}"
        )
    _FACTORIES[key] = factory


def available_backends() -> "tuple[str, ...]":
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_backend(backend: BackendLike = None) -> BaseBackend:
    """Resolve ``backend`` to a live backend instance.

    ``None`` means the default (``"statevector"``); a string is looked up
    in the registry (case-insensitively); a :class:`BaseBackend` instance
    is passed through so callers can hand in a specially configured one
    (e.g. a ``complex64`` backend).
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        key = backend.lower()
        if key not in _FACTORIES:
            raise SimulationError(
                f"unknown backend {backend!r}; available: "
                f"{', '.join(available_backends())}"
            )
        if key not in _INSTANCES:
            _INSTANCES[key] = _FACTORIES[key]()
        return _INSTANCES[key]
    if isinstance(backend, BaseBackend):
        return backend
    raise SimulationError(
        f"cannot resolve a backend from {type(backend).__name__}; "
        "pass a name, a BaseBackend instance, or None"
    )


def run(
    circuit: Circuit,
    initial_state: Any = None,
    backend: BackendLike = None,
    options: Optional[RunOptions] = None,
) -> Any:
    """Simulate ``circuit`` on ``backend`` (default ``"statevector"``).

    ``options`` is a :class:`~repro.execution.RunOptions`; the backend
    comes from ``backend=`` or ``options.backend``, never both.  Returns
    whatever state type the backend produces (for example a
    :class:`~repro.sim.Statevector` or :class:`~repro.sim.DensityMatrix`).
    New code wanting counts or expectation values should prefer
    :func:`repro.execute`.
    """
    if options is None:
        options = RunOptions()
    elif backend is not None and options.backend is not None:
        # Never silently pick one of two backends.
        raise SimulationError(
            "backend is specified both as a keyword and in options; "
            "pass it in one place only"
        )
    resolved = get_backend(backend if backend is not None else options.backend)
    return resolved.run(circuit, initial_state, options)
