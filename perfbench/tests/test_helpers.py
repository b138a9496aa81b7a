"""Tests of the benchmark's own helpers: inputs, statistics, host speed, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

from repro import Circuit, RunOptions, execute, get_gate

from perfbench import inputs
from perfbench.speed import REFERENCE_PROBE_S, HostSpeed, interpreter_factor, probe_seconds
from perfbench.stats import quartile_spread, rank_sites, tail, top_overlap, tvd
from perfbench.trace import Span, Tracer, covered, self_time_by_name, self_times


def _probabilities(circuit):
    return execute(circuit, RunOptions(backend="statevector", max_workers=1)).state.probabilities()


class TestVariants:
    def circuit(self):
        return Circuit(2).h(0).cx(0, 1).append(get_gate("rz", 0.3), (1,)).t(0)

    def test_pairs_follow_the_site(self):
        circuit = self.circuit()
        variant = inputs.amplify(circuit, 2, reps=3)
        names = [ins.operation.name for ins in variant]
        assert len(variant) == len(circuit) + 6
        assert names[:3] == ["h", "cx", "rz"]
        assert names[3:9] == ["rz"] * 6
        assert [ins.operation.params for ins in variant][3:9] == [(-0.3,), (0.3,)] * 3
        assert names[9:] == ["t"]
        assert all(ins.qubits == (1,) for ins in list(variant)[2:9])

    def test_adjoint_names_are_registry_names(self):
        names = [ins.operation.name for ins in inputs.amplify(self.circuit(), 3, reps=1)]
        assert names[4:6] == ["tdg", "t"]
        assert set(names) <= set(inputs.ONE_QUBIT_NOISY + ("cx",))

    def test_every_variant_is_noiselessly_the_baseline(self):
        circuit = inputs.random_circuit(np.random.default_rng(0), 4, 12, 4)
        variants = inputs.charter_variants(circuit, reps=2)
        assert len(variants) == len(circuit) + 1
        assert variants[0] is circuit
        base = _probabilities(circuit)
        for variant in variants[1:]:
            np.testing.assert_allclose(_probabilities(variant), base, atol=1e-12)

    def test_site_out_of_range(self):
        with pytest.raises(IndexError):
            inputs.amplify(self.circuit(), 4, reps=1)


class TestInputs:
    def test_random_circuit_has_exact_cx_count(self):
        circuit = inputs.random_circuit(np.random.default_rng(3), 5, 60, 18)
        assert len(circuit) == 60
        assert circuit.count_ops().get("cx") == 18

    def test_streams_are_reproducible_and_distinct(self):
        def build(label, index):
            return inputs.random_circuit(inputs.stream(7, label, index), 5, 20, 5)

        assert build("cold_small", 3) == build("cold_small", 3)
        assert build("cold_small", 3) != build("cold_small", 4)
        assert build("cold_small", 3) != build("charter", 3)


class TestStats:
    def test_tail_keeps_ten_samples_beyond(self):
        values = list(range(100, 0, -1))
        assert tail(values) == (90.0, 90.0, 10)
        value, percentile, beyond = tail(list(range(1, 1001)))
        assert (value, percentile, beyond) == (990.0, 99.0, 10)
        assert sum(v > value for v in range(1, 1001)) == 10

    def test_tail_with_too_few_samples_reports_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
        assert tail(list(range(10))) == (9.0, 100.0, 0)

    def test_tail_at_eleven_samples(self):
        value, percentile, beyond = tail(list(range(11)))
        assert value == 0.0 and beyond == 10
        assert percentile == pytest.approx(100 / 11)

    def test_quartile_spread(self):
        assert quartile_spread([1.0] * 5) == 0.0
        assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)

    def test_ranking_and_overlap(self):
        assert rank_sites([0.1, 0.3, 0.3, 0.2]) == (1, 2, 3, 0)
        exact = [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        assert top_overlap((0, 1, 2, 3, 4, 5), exact) == 1.0
        assert top_overlap((5, 4, 3, 2, 1, 0), exact) == 0.8
        assert top_overlap((0, 1), [0.5, 0.6], k=1) == 0.0

    def test_overlap_counts_ties_with_the_kth_best(self):
        # Sites 4 and 5 tie for fifth place: either completes the top five.
        exact = [0.9, 0.8, 0.7, 0.6, 0.5, 0.5 + 1e-15, 0.1]
        assert top_overlap((0, 1, 2, 3, 4), exact) == 1.0
        assert top_overlap((0, 1, 2, 3, 5), exact) == 1.0
        assert top_overlap((0, 1, 2, 3, 6), exact) == 0.8

    def test_tvd(self):
        assert tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert tvd(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


class TestHostSpeed:
    def test_scales_by_the_mean_of_the_readings_around_each_call(self):
        readings = iter([2.0, 6.0, 2.0])
        speed = HostSpeed(lambda: next(readings), reference=1.0)
        assert speed.time(lambda x: x + 1, 1)[::2] == (2, 0.25)  # readings 2 and 6
        # The reading after the first call is the reading before the second.
        assert speed.time(lambda: None)[2] == 0.25  # readings 6 and 2

    def test_interpreter_factor(self):
        assert interpreter_factor(REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S) == 0.5
        assert probe_seconds() > 0.0


def span(sid, start, end, parent=None, name="sim.x"):
    return Span(sid, name, start, end, parent, 0)


class TestSpans:
    def test_covered_merges_overlaps_and_clips(self):
        parent = span(0, 0.0, 10.0)
        children = [span(1, 1, 3, 0), span(2, 2, 5, 0), span(3, 7, 12, 0), span(4, -2, 0.5, 0)]
        assert covered(parent, children) == pytest.approx(4 + 3 + 0.5)

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(0, 0, 10, name="bench.call"),
            span(1, 1, 6, 0, "plan.compile_plan"),
            span(2, 2, 5, 1, "transpile.transpile"),
            span(3, 3, 4, 2, "plan.lower"),
            span(4, 6, 9, 0, "sim.execute_plan"),
        ]
        own = self_times(spans)
        assert own == pytest.approx({0: 2, 1: 2, 2: 2, 3: 1, 4: 3})
        assert sum(own.values()) == pytest.approx(10)
        by_name = self_time_by_name(spans)
        assert by_name["plan.compile_plan"] + by_name["plan.lower"] == pytest.approx(3)

    def test_parallel_children_are_not_double_counted(self):
        spans = [span(0, 0, 10), span(1, 1, 8, 0), span(2, 2, 9, 0)]
        assert self_times(spans)[0] == pytest.approx(2)

    def test_tracer_nests_and_adopts(self):
        tracer = Tracer()
        tracer.job = 4
        tracer.call("bench.call", lambda: tracer.call("sim.step", lambda: 1))
        worker = [span(0, 0, 1, None, "plan.bind"), span(1, 0.2, 0.5, 0, "sim.step")]
        tracer.adopt(worker, parent=0)
        spans = tracer.finished()
        assert [(s.id, s.name, s.parent, s.job) for s in spans] == [
            (0, "bench.call", None, 4),
            (1, "sim.step", 0, 4),
            (2, "plan.bind", 0, 4),
            (3, "sim.step", 2, 4),
        ]
        assert spans[0].layer == "bench" and spans[2].layer == "plan"
