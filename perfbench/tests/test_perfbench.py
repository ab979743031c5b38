"""Tests of the benchmark's own arithmetic, tracing and output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import gc
import math

import numpy as np
import pytest

from bench_harness import END_TO_END_UNITS, host_probe, measure
from bench_layers import SELF_TIME_METRICS, traced_trial
from bench_stats import (
    median,
    percentile,
    quartile_spread,
    summarize,
    tail_percentile,
    throughput,
)
from bench_trace import Instrumentation, MissingBoundary, SpanTracer, TracedGenerator
from bench_workloads import (
    WORKLOADS,
    fingerprint_mismatches,
    output_checks,
    run_trial,
    setup_trial,
)
from repro.experiments import MFScale, W2VScale
from repro.simnet.kernel import Simulator

TINY_MF = MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4)
TINY_W2V = W2VScale(vocabulary_size=50, num_sentences=8)


# ------------------------------------------------------------------ statistics
def test_median_and_nearest_rank_percentile():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    summary = summarize([float(v) for v in range(1, 101)])
    assert summary == {"median": 50.5, "tail_p": 90.0, "tail": 90.0, "n": 100}
    assert summarize([1.0, 2.0, 3.0])["tail"] is None


def test_throughput_counts_every_epoch():
    assert throughput(1000, 2, 0.5) == 4000.0
    with pytest.raises(ValueError):
        throughput(1000, 2, 0.0)
    with pytest.raises(ValueError):
        throughput(0, 2, 1.0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 10)]
    q1, q2, q3 = 2.5, 5.0, 7.5
    assert quartile_spread(values) == (q3 - q1) / q2


def test_host_probe_runs_without_the_cyclic_collector_and_restores_it():
    assert gc.isenabled()
    assert host_probe(steps=50) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        host_probe(steps=50)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_samples_per_epoch_is_the_generated_input_size():
    mf = setup_trial(WORKLOADS["mf-lapse"], seed=3, scale=TINY_MF)
    assert mf.samples_per_epoch == mf.trainer.matrix.num_entries
    durable = setup_trial(WORKLOADS["mf-lapse-durable"], seed=3, scale=TINY_MF)
    assert durable.samples_per_epoch == durable.trainer.matrix.num_entries
    w2v = setup_trial(WORKLOADS["w2v-lapse"], seed=3, scale=TINY_W2V)
    assert w2v.samples_per_epoch == w2v.trainer.corpus.num_tokens


# --------------------------------------------------------------------- tracing
class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # a[0, 10] { b[1, 4] { c[2, 3] }, b[5, 6], d[7, 9] }
    tracer = SpanTracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.self_time) == {"a": 4.0, "b": 3.0, "c": 1.0, "d": 2.0}
    assert sum(tracer.self_time.values()) == 10.0
    assert tracer.stack == []


def test_generator_proxy_preserves_send_throw_and_return():
    def worker():
        received = yield "first"
        try:
            yield received * 2
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        return "done"

    tracer = SpanTracer()
    proxy = TracedGenerator(worker(), tracer)
    assert proxy.send(None) == "first"
    assert proxy.send(21) == 42
    assert proxy.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "done"
    assert tracer.counts["ml.worker_resumes"] == 4
    assert tracer.self_time["ml"] > 0
    assert tracer.stack == []


def test_generator_proxy_propagates_uncaught_exceptions():
    def worker():
        yield 1

    proxy = TracedGenerator(worker(), SpanTracer())
    proxy.send(None)
    with pytest.raises(ValueError):
        proxy.throw(ValueError("boom"))


def test_a_missing_boundary_fails_loudly_with_its_name():
    class Layer:
        def present(self):
            return 1

    with Instrumentation() as inst:
        with pytest.raises(MissingBoundary, match="Layer.absent"):
            inst.patch_method(Layer, "absent", lambda fn: fn)
        with pytest.raises(MissingBoundary, match="repro.data.no_such_generator"):
            inst.patch_function("repro.data", "no_such_generator", lambda fn: fn)


def test_instrumentation_restores_the_originals():
    original_run = Simulator.__dict__["run"]
    trial, wall, tracer = traced_trial(WORKLOADS["mf-lapse"], seed=1, scale=TINY_MF)
    assert Simulator.__dict__["run"] is original_run
    assert wall > 0 and tracer.counts["ps.client.ops"] > 0


@pytest.mark.parametrize("name", ["mf-lapse", "mf-classic", "mf-lapse-durable"])
def test_traced_run_is_pure_observation_and_accounts_for_its_wall(name):
    workload = WORKLOADS[name]
    plain = run_trial(workload, seed=2, scale=TINY_MF)
    trial, wall, tracer = traced_trial(workload, seed=2, scale=TINY_MF)
    assert fingerprint_mismatches(plain.fingerprint(), trial.fingerprint()) == []
    covered = sum(tracer.self_time.values())
    assert set(tracer.self_time) <= set(SELF_TIME_METRICS)
    assert 0 < covered <= wall
    assert tracer.self_time["simnet.kernel"] > 0 and tracer.self_time["ml"] > 0


# --------------------------------------------------------------- output checks
@pytest.mark.parametrize("name", ["mf-lapse", "mf-lapse-durable"])
def test_perturbing_one_parameter_fails_the_output_check(name):
    workload = WORKLOADS[name]
    baseline = run_trial(workload, seed=4, scale=TINY_MF)
    assert all(check.ok for check in output_checks(workload, 4, TINY_MF, baseline))
    ps = baseline.ps
    key = 3
    owner = ps.current_owner(key)
    value = ps.states[owner].storage.get(key)
    value[0] = math.nextafter(value[0], math.inf)
    ps.states[owner].storage.set(key, value)
    failed = [c for c in output_checks(workload, 4, TINY_MF, baseline) if not c.ok]
    assert failed and "params" in failed[0].detail


def test_fingerprint_names_each_differing_field():
    a = run_trial(WORKLOADS["mf-lapse"], seed=5, scale=TINY_MF).fingerprint()
    b = run_trial(WORKLOADS["mf-lapse"], seed=5, scale=TINY_MF).fingerprint()
    assert fingerprint_mismatches(a, b) == []
    b.row_factors = b.row_factors.copy()
    b.row_factors[0, 0] += 1.0
    b.remote_messages += 1
    assert fingerprint_mismatches(a, b) == ["remote_messages", "row_factors"]
    assert not np.array_equal(a.row_factors, b.row_factors)


def test_measure_reports_every_end_to_end_metric_and_the_manifest():
    result = measure("mf-lapse", seed=6, seconds=0.0, trace=False, scale=TINY_MF)
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert list(result.end_to_end) == list(END_TO_END_UNITS)
    assert all(value > 0 for value in result.end_to_end.values())
    manifest = result.manifest
    assert manifest["effective_jobs"] == 1 and manifest["requested_jobs"] == 1
    assert manifest["seed"] == 6 and manifest["scale"]["num_cols"] == TINY_MF.num_cols
    for key in ("nproc", "python", "numpy", "git_rev", "fallback_reason"):
        assert key in manifest
