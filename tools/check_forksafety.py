#!/usr/bin/env python
"""Fork-safety lint for the process-parallel layers.

:mod:`repro.service` ships work to a ``ProcessPoolExecutor``; on POSIX
the default start method is ``fork``, which silently clones parent
state into every worker.  Three bug classes survive review easily and
are miserable to debug after the fact, so this tool blocks them with an
AST walk (no imports are executed), mirroring ``check_layers.py``:

``fork-module-rng``
    A module-level RNG instance (``np.random.default_rng(...)``,
    ``random.Random(...)``, ``np.random.RandomState(...)``) is cloned
    into each forked worker, so all workers draw the *same* stream —
    statistics silently correlate.  RNGs must be created per task from
    spawned seeds (:func:`repro.utils.spawn_seeds`).

``fork-closure-task``
    A lambda or nested function submitted to ``pool.submit`` /
    ``run_tasks`` cannot be pickled; it fails at runtime with a
    transport error that points at pickle, not at the author.  Task
    functions must be module-level.

``fork-module-cache``
    A module-level ``OrderedDict(...)`` is a hand-rolled cache: shared
    by every thread, mutated without a lock (or with one that a fork
    clones held), and unbounded unless each call site evicts by hand.
    Process-wide caches are :class:`repro.utils.lru.LRUCache` instances,
    which lock every access and renew their locks in forked children.

``fork-lock-held``
    Submitting work (``.submit(...)`` / ``run_tasks(...)``) while a
    lock is held: if the pool ever forks at that moment, the child
    inherits the locked lock with no owner thread to release it —
    a deadlock that only reproduces under load.  Creating or resizing
    the executor under a lock is fine (and ``service.pool.get_pool``
    deliberately does); *submission* under a lock is the hazard.

Exit status is non-zero when any violation is found; CI runs this as a
blocking step over ``src/repro/service``, ``src/repro/plan`` and
``src/repro/gates``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Directories scanned by default: the layers whose code runs on both
#: sides of a fork boundary (pool workers build gates in ``plan.bind``).
DEFAULT_SCAN = ("src/repro/service", "src/repro/plan", "src/repro/gates")

#: Callable names that construct stateful RNGs when called.
_RNG_CONSTRUCTORS = {"default_rng", "RandomState", "Random"}

#: Attribute names that submit work to an executor.
_SUBMIT_ATTRS = {"submit"}

#: Bare function names that submit work to the shared pool.
_SUBMIT_NAMES = {"run_tasks"}


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_rng_constructor_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _terminal_name(node.func) in _RNG_CONSTRUCTORS
    )


def _looks_like_lock(node: ast.AST) -> bool:
    """Whether a ``with`` context expression is plausibly a lock."""
    name = _terminal_name(node)
    if name is None and isinstance(node, ast.Call):
        name = _terminal_name(node.func)
    return name is not None and "lock" in name.lower()


def _is_submit_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in _SUBMIT_ATTRS
    if isinstance(node.func, ast.Name):
        return node.func.id in _SUBMIT_NAMES
    return False


def _submitted_callable(node: ast.Call) -> Optional[ast.AST]:
    """The task-function argument of a submit-style call, if present."""
    return node.args[0] if node.args else None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path) -> None:
        self.path = path
        self.violations: List[str] = []
        self._function_stack: List[ast.AST] = []
        self._local_defs: List[set] = []
        self._lock_depth = 0

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            f"{self.path}:{node.lineno}: [{code}] {message}"
        )

    # -- fork-module-rng -------------------------------------------------
    def _check_module_rng(self, value: Optional[ast.AST]) -> None:
        if value is None or self._function_stack:
            return
        for node in ast.walk(value):
            if _is_rng_constructor_call(node):
                self._flag(
                    node,
                    "fork-module-rng",
                    "module-level RNG instance is cloned into every "
                    "forked worker (all workers draw the same stream); "
                    "create RNGs per task from spawned seeds",
                )

    # -- fork-module-cache -----------------------------------------------
    def _check_module_cache(self, value: Optional[ast.AST]) -> None:
        if (
            value is not None
            and not self._function_stack
            and isinstance(value, ast.Call)
            and _terminal_name(value.func) == "OrderedDict"
        ):
            self._flag(
                value,
                "fork-module-cache",
                "module-level OrderedDict is a hand-rolled cache; use "
                "repro.utils.lru.LRUCache, which locks every access and "
                "renews its lock in forked children",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_module_rng(node.value)
        self._check_module_cache(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_module_rng(node.value)
        self._check_module_cache(node.value)
        self.generic_visit(node)

    # -- scope tracking --------------------------------------------------
    def _visit_function(self, node: ast.AST, body: Sequence[ast.stmt]) -> None:
        if self._function_stack:
            # A def nested inside a function: its name is fork-unsafe as
            # a task payload within the enclosing scope.
            self._local_defs[-1].add(node.name)  # type: ignore[attr-defined]
        self._function_stack.append(node)
        self._local_defs.append(set())
        for child in body:
            self.visit(child)
        self._local_defs.pop()
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.body)

    # -- fork-lock-held + fork-closure-task ------------------------------
    def _visit_with(self, node) -> None:
        locky = any(
            _looks_like_lock(item.context_expr) for item in node.items
        )
        if locky:
            self._lock_depth += 1
        self.generic_visit(node)
        if locky:
            self._lock_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_submit_call(node):
            if self._lock_depth:
                self._flag(
                    node,
                    "fork-lock-held",
                    "work submitted to the pool while a lock is held; "
                    "a fork at this moment clones a locked lock with "
                    "no owner into the child (deadlock)",
                )
            task = _submitted_callable(node)
            if isinstance(task, ast.Lambda):
                self._flag(
                    node,
                    "fork-closure-task",
                    "lambda submitted as a worker task cannot be "
                    "pickled; use a module-level function",
                )
            elif (
                isinstance(task, ast.Name)
                and self._local_defs
                and any(task.id in defs for defs in self._local_defs)
            ):
                self._flag(
                    node,
                    "fork-closure-task",
                    f"nested function {task.id!r} submitted as a worker "
                    f"task cannot be pickled; move it to module level",
                )
        self.generic_visit(node)


def iter_modules(paths: Sequence[Path]) -> Iterator[Path]:
    for base in paths:
        if base.is_file():
            yield base
        else:
            yield from sorted(base.rglob("*.py"))


def check(paths: Sequence[Path]) -> List[str]:
    violations: List[str] = []
    for path in iter_modules(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        linter = _Linter(path)
        linter.visit(tree)
        violations.extend(linter.violations)
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(a) for a in args] if args else [
        ROOT / rel for rel in DEFAULT_SCAN
    ]
    for path in paths:
        if not path.exists():
            print(f"fork-safety lint: no such path {path}", file=sys.stderr)
            return 2
    violations = check(paths)
    if violations:
        print(
            f"fork-safety lint: {len(violations)} violation(s)",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    count = sum(1 for _ in iter_modules(paths))
    print(f"fork-safety lint: {count} modules clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
