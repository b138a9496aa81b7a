"""The speed-floor script in tools/check_speed_floors.py: verdicts and timing.

Its exit code, its printed lines and one live run of each leg are
checked in ``tests/bench/test_harness.py``.
"""

import importlib.util
import pathlib
import sys

import pytest

_TOOL = (
    pathlib.Path(__file__).resolve().parents[2]
    / "tools"
    / "check_speed_floors.py"
)


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_speed_floors", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_speed_floors"] = module
    spec.loader.exec_module(module)
    try:
        yield module
    finally:
        sys.modules.pop("check_speed_floors", None)


def _passing(tool):
    return {name: floor for name, floor, _, _ in tool.FLOORS}


class TestFloors:
    def test_floors_keep_their_thresholds(self, tool):
        assert [(name, floor, cpus) for name, floor, cpus, _ in tool.FLOORS] == [
            ("ptm vs density", 1.0, False),
            ("batched vs per-element sweep", 1.0, False),
            ("parallel vs serial sweep", 0.9, True),
            ("parallel vs serial sharded shots", 0.9, True),
        ]

    def test_ratios_at_their_floors_pass(self, tool):
        lines, failed = tool.check(_passing(tool), cpu_count=2)
        assert not failed
        assert len(lines) == len(tool.FLOORS)
        assert all(line.endswith(" ok") for line in lines)

    @pytest.mark.parametrize("index", range(4))
    def test_each_floor_fails_below_its_threshold(self, tool, index):
        name, floor, _, _ = tool.FLOORS[index]
        ratios = _passing(tool)
        ratios[name] = floor - 0.01
        lines, failed = tool.check(ratios, cpu_count=2)
        assert failed
        assert [line for line in lines if line.endswith("FAIL")] == [
            f"{name}: {floor - 0.01:.2f}x (floor {floor:.1f}x) FAIL"
        ]

    @pytest.mark.parametrize("cpu_count", [1, None])
    def test_parallel_floors_are_skipped_without_two_cpus(self, tool, cpu_count):
        ratios = {name: 0.5 for name, _, _, _ in tool.FLOORS}
        lines, failed = tool.check(ratios, cpu_count=cpu_count)
        verdicts = {
            name: line for (name, _, _, _), line in zip(tool.FLOORS, lines)
        }
        assert verdicts["parallel vs serial sweep"].endswith(
            f"skipped on {cpu_count} CPUs"
        )
        assert verdicts["parallel vs serial sharded shots"].endswith(
            f"skipped on {cpu_count} CPUs"
        )
        # The serial floors still apply on one CPU.
        assert failed
        assert verdicts["ptm vs density"].endswith("FAIL")

    def test_unmeasured_ratio_passes(self, tool):
        ratios = {name: None for name, _, _, _ in tool.FLOORS}
        lines, failed = tool.check(ratios, cpu_count=2)
        assert not failed
        assert all("n/a" in line and line.endswith(" ok") for line in lines)


class TestRace:
    def test_warms_each_side_then_alternates_best_of_five(self, tool, monkeypatch):
        calls = []
        times = iter([5.0, 2.0, 4.0, 1.0, 3.0, 3.0, 6.0, 2.0, 4.0, 1.5])

        def timed(fn):
            fn()
            return next(times)

        monkeypatch.setattr(tool, "_timed", timed)
        ratio = tool.race(
            lambda: calls.append("slow"), lambda: calls.append("fast")
        )
        assert tool.REPEATS == 5
        assert calls == ["slow", "fast"] * 6
        assert ratio == 3.0  # best slow 3.0 over best fast 1.0
