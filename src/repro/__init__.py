"""repro — layered quantum-circuit simulation stack for conf_sc_PatelST22.

Layering (each layer depends only on the ones above it)::

    repro.utils        exceptions, RNG plumbing, bitstring conventions
    repro.circuit      operation-instruction IR (Gate, Channel, Parameter,
                       Instruction, Circuit, Circuit.bind/stats) + dynamic
                       ops: Measure, Reset, Conditional (if_bit), clbits
    repro.gates        registry-backed standard gate library + unitary gates
    repro.noise        Kraus channel library, readout error, NoiseModel
    repro.transpile    pass-manager optimisation (fusion, cancellation)
    repro.plan         compiled ExecutionPlans: compile once, bind/run many,
                       batched sweeps, process-wide plan cache; dynamic ops
                       lower to MeasureOp/ResetOp/ConditionalOp
    repro.analysis     static analysis: circuit lint rules (analyze),
                       compiled-plan verification (verify_plan), transpile
                       certification (certify_rewrite -> Certificate), and
                       the runtime numerical sanitizer — wired into
                       execute() via RunOptions(validate=/certify=/sanitize=)
    repro.sim          backend registry: statevector + density-matrix +
                       Monte-Carlo trajectory + Pauli-transfer-matrix
                       engines executing plans through one shared
                       (sanitizer-instrumentable) loop
    repro.sampling     shot sampling -> Counts (any backend, readout noise)
    repro.observables  Pauli / PauliSum observables, (batched) expectations
    repro.execution    execute() front door: RunOptions, Job, Result/BatchResult
    repro.service      parallel worker pool (process sharding of shots,
                       sweeps, batches) + execute_async() bounded job queue
    repro.bench        canonical benchmark workload circuits

The public API re-exported here is the supported surface; module internals
may move between PRs.
"""

from repro.analysis import (
    AnalysisContext,
    AnalysisReport,
    Diagnostic,
    analyze,
    verify_plan,
)
from repro.circuit import (
    Channel,
    Circuit,
    CircuitStats,
    Conditional,
    Gate,
    Instruction,
    Measure,
    Parameter,
    Reset,
)
from repro.execution import BatchResult, Job, Result, RunOptions, execute, submit
from repro.gates import (
    available_gates,
    gate_arity,
    get_gate,
    register_gate,
    unitary_gate,
)
from repro.noise import (
    NoiseModel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    phase_flip,
)
from repro.observables import Pauli, PauliSum, expectation, expectation_batched
from repro.plan import (
    ExecutionPlan,
    clear_plan_cache,
    compile_plan,
    plan_cache_info,
    run_batched_sweep,
)
from repro.sampling import Counts, sample_counts, sample_memory
from repro.service import (
    ExecutionService,
    configure_default_service,
    execute_async,
)
from repro.sim import (
    BaseBackend,
    DensityMatrix,
    DensityMatrixBackend,
    PauliVector,
    PTMBackend,
    Statevector,
    StatevectorBackend,
    TrajectoryBackend,
    available_backends,
    get_backend,
    register_backend,
    run,
)

# NB: re-exporting the ``transpile`` *function* shadows the ``repro.transpile``
# submodule attribute on this package (``repro.transpile(circuit)`` works;
# ``import repro.transpile`` still works too, but attribute access on the
# package resolves to the function).  This mirrors qiskit's ``transpile``
# ergonomics and is deliberate — reach submodule internals via
# ``from repro.transpile import ...``.
from repro.transpile import (
    CancelInversePairs,
    DropIdentities,
    FuseAdjacentGates,
    Pass,
    PassManager,
    transpile,
)
from repro.utils import (
    AnalysisError,
    CertificationError,
    CircuitError,
    ExecutionError,
    ExecutionQueueFullError,
    ExecutionTimeoutError,
    NoiseModelError,
    ParallelExecutionError,
    ReproError,
    SanitizerError,
    SimulationError,
    TranspilerError,
    all_bitstrings,
    bitstring_to_index,
    derive_seed,
    ensure_rng,
    flip_bit,
    hamming_weight,
    index_to_bitstring,
    iter_bitstrings,
    spawn_rngs,
    spawn_seeds,
)

__version__ = "0.11.0"

__all__ = [
    "__version__",
    # circuit IR
    "Channel",
    "Circuit",
    "CircuitStats",
    "Conditional",
    "Gate",
    "Instruction",
    "Measure",
    "Parameter",
    "Reset",
    # gate library
    "available_gates",
    "gate_arity",
    "get_gate",
    "register_gate",
    "unitary_gate",
    # noise
    "NoiseModel",
    "ReadoutError",
    "amplitude_damping",
    "bit_flip",
    "bit_phase_flip",
    "depolarizing",
    "phase_damping",
    "phase_flip",
    # transpilation
    "CancelInversePairs",
    "DropIdentities",
    "FuseAdjacentGates",
    "Pass",
    "PassManager",
    "transpile",
    # simulation
    "BaseBackend",
    "DensityMatrix",
    "DensityMatrixBackend",
    "PTMBackend",
    "PauliVector",
    "Statevector",
    "StatevectorBackend",
    "TrajectoryBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "run",
    # sampling
    "Counts",
    "sample_counts",
    "sample_memory",
    # observables
    "Pauli",
    "PauliSum",
    "expectation",
    "expectation_batched",
    # compiled plans
    "ExecutionPlan",
    "clear_plan_cache",
    "compile_plan",
    "plan_cache_info",
    "run_batched_sweep",
    # static analysis
    "AnalysisContext",
    "AnalysisReport",
    "Diagnostic",
    "analyze",
    "verify_plan",
    # execution
    "BatchResult",
    "Job",
    "Result",
    "RunOptions",
    "execute",
    "submit",
    # parallel / async service
    "ExecutionService",
    "configure_default_service",
    "execute_async",
    # utils: exceptions
    "ReproError",
    "AnalysisError",
    "CertificationError",
    "SanitizerError",
    "CircuitError",
    "TranspilerError",
    "SimulationError",
    "NoiseModelError",
    "ExecutionError",
    "ExecutionQueueFullError",
    "ExecutionTimeoutError",
    "ParallelExecutionError",
    # utils: bitstrings
    "all_bitstrings",
    "bitstring_to_index",
    "flip_bit",
    "hamming_weight",
    "index_to_bitstring",
    "iter_bitstrings",
    # utils: rng
    "derive_seed",
    "ensure_rng",
    "spawn_rngs",
    "spawn_seeds",
]
