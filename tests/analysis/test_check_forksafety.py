"""The AST fork-safety lint in tools/check_forksafety.py."""

import importlib.util
import pathlib
import sys

import pytest

_TOOL = (
    pathlib.Path(__file__).resolve().parents[2]
    / "tools"
    / "check_forksafety.py"
)


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_forksafety", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_forksafety"] = module
    spec.loader.exec_module(module)
    try:
        yield module
    finally:
        sys.modules.pop("check_forksafety", None)


def _check_source(lint, tmp_path, source):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return lint.check([target])


class TestRepositoryIsClean:
    def test_default_scan_has_no_violations(self, lint):
        paths = [lint.ROOT / rel for rel in lint.DEFAULT_SCAN]
        assert lint.check(paths) == []

    def test_main_returns_zero(self, lint, capsys):
        assert lint.main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, lint, capsys):
        assert lint.main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err


class TestModuleRng:
    def test_module_level_default_rng_is_flagged(self, lint, tmp_path):
        violations = _check_source(
            lint,
            tmp_path,
            "import numpy as np\n_RNG = np.random.default_rng(7)\n",
        )
        assert len(violations) == 1
        assert "fork-module-rng" in violations[0]

    def test_module_level_random_instance_is_flagged(self, lint, tmp_path):
        violations = _check_source(
            lint, tmp_path, "import random\nshuffler = random.Random(3)\n"
        )
        assert [v for v in violations if "fork-module-rng" in v]

    def test_function_local_rng_is_fine(self, lint, tmp_path):
        source = (
            "import numpy as np\n"
            "def sample(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random()\n"
        )
        assert _check_source(lint, tmp_path, source) == []


class TestModuleCache:
    def test_module_level_ordered_dict_is_flagged(self, lint, tmp_path):
        source = (
            "from collections import OrderedDict\n"
            "_CACHE = OrderedDict()\n"
            "_TYPED: 'OrderedDict[str, int]' = OrderedDict()\n"
        )
        violations = _check_source(lint, tmp_path, source)
        assert len(violations) == 2
        assert all("fork-module-cache" in v for v in violations)
        assert "LRUCache" in violations[0]

    def test_lru_cache_and_local_ordered_dict_are_fine(self, lint, tmp_path):
        source = (
            "from collections import OrderedDict\n"
            "from repro.utils.lru import LRUCache\n"
            "_CACHE = LRUCache(16)\n"
            "def order(items):\n"
            "    seen = OrderedDict()\n"
            "    return seen\n"
        )
        assert _check_source(lint, tmp_path, source) == []


class TestClosureTasks:
    def test_lambda_submit_is_flagged(self, lint, tmp_path):
        source = (
            "def go(pool):\n"
            "    return pool.submit(lambda: 1)\n"
        )
        violations = _check_source(lint, tmp_path, source)
        assert len(violations) == 1
        assert "fork-closure-task" in violations[0]

    def test_nested_function_submit_is_flagged(self, lint, tmp_path):
        source = (
            "def go(pool):\n"
            "    def task():\n"
            "        return 1\n"
            "    return pool.submit(task)\n"
        )
        violations = _check_source(lint, tmp_path, source)
        assert len(violations) == 1
        assert "fork-closure-task" in violations[0]
        assert "'task'" in violations[0]

    def test_nested_function_passed_to_run_tasks_is_flagged(
        self, lint, tmp_path
    ):
        source = (
            "def go():\n"
            "    def shim(x):\n"
            "        return x\n"
            "    return run_tasks(shim, [(1,)], 2)\n"
        )
        violations = _check_source(lint, tmp_path, source)
        assert [v for v in violations if "fork-closure-task" in v]

    def test_module_level_task_function_is_fine(self, lint, tmp_path):
        source = (
            "def task(x):\n"
            "    return x\n"
            "def go(pool):\n"
            "    return pool.submit(task, 1)\n"
        )
        assert _check_source(lint, tmp_path, source) == []


class TestLockHeldSubmission:
    def test_submit_under_lock_is_flagged(self, lint, tmp_path):
        source = (
            "def go(pool, fn):\n"
            "    with _POOL_LOCK:\n"
            "        return pool.submit(fn, 1)\n"
        )
        violations = _check_source(lint, tmp_path, source)
        assert len(violations) == 1
        assert "fork-lock-held" in violations[0]

    def test_run_tasks_under_self_lock_is_flagged(self, lint, tmp_path):
        source = (
            "def go(self, fn):\n"
            "    with self._lock:\n"
            "        return run_tasks(fn, [(1,)], 2)\n"
        )
        violations = _check_source(lint, tmp_path, source)
        assert [v for v in violations if "fork-lock-held" in v]

    def test_pool_creation_under_lock_is_fine(self, lint, tmp_path):
        # service.pool.get_pool deliberately creates/resizes the executor
        # under _POOL_LOCK; only *submission* under a lock is the hazard.
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def get(workers):\n"
            "    with _POOL_LOCK:\n"
            "        return ProcessPoolExecutor(max_workers=workers)\n"
        )
        assert _check_source(lint, tmp_path, source) == []

    def test_submit_outside_the_lock_is_fine(self, lint, tmp_path):
        source = (
            "def go(pool, fn):\n"
            "    with _POOL_LOCK:\n"
            "        ready = True\n"
            "    return pool.submit(fn, ready)\n"
        )
        assert _check_source(lint, tmp_path, source) == []

    def test_non_lock_context_manager_is_fine(self, lint, tmp_path):
        source = (
            "def go(pool, fn, path):\n"
            "    with open(path) as handle:\n"
            "        return pool.submit(fn, handle.name)\n"
        )
        assert _check_source(lint, tmp_path, source) == []


class TestMainReporting:
    def test_violations_exit_nonzero_with_codes(
        self, lint, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n_RNG = np.random.default_rng()\n"
        )
        assert lint.main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "fork-module-rng" in err
        assert "violation" in err
