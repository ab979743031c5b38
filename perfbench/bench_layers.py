"""Per-layer split of one traced trial: which public functions bound which layer.

Layers are the program's modules.  Each boundary is a public function; the
traced run wraps it on every class that defines it (or in every module that
binds it), before the parameter server is built, and unwraps it afterwards.
A layer's self time is the time spent in its spans minus the spans nested in
them; ``other.self_s`` is the traced wall time no layer span covers
(construction outside the wrapped constructors, the benchmark's own code).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

from repro.cluster import ElasticCluster, Rebalancer
from repro.durability import DeltaWAL, DurabilityManager, LoggedStorage
from repro.ml import MatrixFactorizationTrainer, Word2VecTrainer
from repro.ps.base import FusedLocalSteps, NodeState, ParameterServer, WorkerClient
from repro.ps.lapse import LapsePS
from repro.ps.storage import ParameterStorage
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network

from bench_trace import Instrumentation, SpanTracer, TracedGenerator, count_wrapper, span_wrapper
from bench_workloads import Trial, Workload, run_trial

#: Self-time metric of each layer (span name -> metric name).
SELF_TIME_METRICS = {
    "data": "data.self_s",
    "ml": "ml.self_s",
    "ps.client": "ps.client.self_s",
    "ps.server": "ps.server.self_s",
    "ps.storage": "ps.storage.self_s",
    "ps.lapse": "ps.lapse.localize_self_s",
    "simnet.network": "simnet.network.self_s",
    "simnet.kernel": "simnet.kernel.self_s",
    "durability.wal": "durability.wal_self_s",
    "durability.checkpoint": "durability.checkpoint_self_s",
    "durability.replay": "durability.replay_self_s",
    "cluster": "cluster.self_s",
}

STORAGE_ROW_OPS = ("row_copy", "row_add")
STORAGE_BATCH_OPS = ("get_many", "add_many", "set_many", "insert_many", "remove_many")


def _nkeys(args: tuple, kwargs: dict) -> int:
    """Key count of a ``method(self, keys, ...)`` call."""
    return len(args[1])


def _client_op(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("ps.client.ops")
    tracer.count("ps.client.keys", _nkeys(args, kwargs))


def _fused_pull(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("ps.client.ops")
    tracer.count("ps.client.keys")
    tracer.count("ps.client.fused_attempts")
    if result is not None:
        tracer.count("ps.client.fused_hits")


def _server_call(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("ps.server.calls")
    tracer.count("ps.server.keys", _nkeys(args, kwargs))


def _storage_counter(name: str):
    """Count a storage op once per outermost storage call (stores may nest)."""

    def on_call(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
        if tracer.inside("ps.storage"):
            return
        if name in STORAGE_ROW_OPS:
            tracer.count("ps.storage.row_ops")
        else:
            tracer.count("ps.storage.batch_ops")
            if name == "remove_many":
                tracer.count("ps.storage.moved_keys", _nkeys(args, kwargs))

    return on_call


def _calls(name: str):
    def on_call(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(name)

    return on_call


def install(tracer: SpanTracer, inst: Instrumentation) -> None:
    """Wrap every layer boundary; raises ``MissingBoundary`` naming any that is gone."""

    def span(layer, on_call=None):
        return lambda fn: span_wrapper(tracer, layer, fn, on_call)

    # data
    for name in ("generate_matrix", "generate_corpus"):
        inst.patch_function("repro.data", name, span("data"))
    # ml: trainer epochs, and every resume of a worker generator
    for trainer in (MatrixFactorizationTrainer, Word2VecTrainer):
        inst.patch_method(trainer, "run_epoch", span("ml"))

    def proxy_run_workers(run_workers):
        def wrapper(self, worker_fn, *args, **kwargs):
            def traced_fn(client, worker_id):
                return TracedGenerator(worker_fn(client, worker_id), tracer, "ml")

            return run_workers(self, traced_fn, *args, **kwargs)

        wrapper.__wrapped__ = run_workers
        return wrapper

    inst.patch_method(ParameterServer, "run_workers", proxy_run_workers)
    # ps.client
    for name in ("pull_async", "push_async", "localize_async"):
        inst.patch_method(WorkerClient, name, span("ps.client", _client_op))
    inst.patch_method(FusedLocalSteps, "try_pull", span("ps.client", _fused_pull))
    # ps.server
    for name in ("read_local_many", "write_local_many"):
        inst.patch_method(NodeState, name, span("ps.server", _server_call))
    # ps.storage: every storage class.  The WAL-logging proxy around them is
    # durability code, so its own time is the durability.wal layer's.
    for name in STORAGE_ROW_OPS + STORAGE_BATCH_OPS:
        inst.patch_method(ParameterStorage, name, span("ps.storage", _storage_counter(name)))
        inst.patch_method(LoggedStorage, name, span("durability.wal"))
    # ps.lapse
    inst.patch_method(LapsePS, "process_localize_at_home", span("ps.lapse"))
    # simnet.network
    inst.patch_method(Network, "send", span("simnet.network", _calls("simnet.network.sends")))
    # simnet.kernel: the event loop, plus scheduling counts.  The elastic
    # driver advances the kernel one ``step`` at a time.
    for name in ("run", "step"):
        inst.patch_method(Simulator, name, span("simnet.kernel"))
    for name in ("call_later", "process", "timeout", "wake_at"):
        inst.patch_method(
            Simulator, name, lambda fn: count_wrapper(tracer, "simnet.kernel.events_scheduled", fn)
        )
    # durability
    inst.patch_method(DeltaWAL, "append", span("durability.wal", _calls("durability.wal_appends")))
    inst.patch_method(DurabilityManager, "checkpoint_node", span("durability.checkpoint"))
    inst.patch_function("repro.durability.recovery", "replay_records", span("durability.replay"))
    # cluster: epochs under membership, the driver loop, and rebalancing
    for name in ("run_epoch", "drive"):
        inst.patch_method(ElasticCluster, name, span("cluster"))
    for name in ("recover_after_failure", "rebalance_for_join", "rebalance_for_drain"):
        inst.patch_method(Rebalancer, name, span("cluster"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_trial(workload: Workload, seed: int, scale: Any = None) -> Tuple[Trial, float, SpanTracer]:
    """Run one trial with every boundary wrapped; returns ``(trial, wall_s, tracer)``.

    The wall time covers the same interval as an untraced trial's
    ``setup_s + train_wall_s``.
    """
    tracer = SpanTracer()
    with Instrumentation() as inst:
        install(tracer, inst)
        start = time.perf_counter()
        trial = run_trial(workload, seed, scale)
        wall = time.perf_counter() - start
    return trial, wall, tracer


def layer_metrics(trial: Trial, wall_s: float, tracer: SpanTracer, untraced_s: float) -> Dict[str, float]:
    """Every per-layer metric of a traced trial.

    ``untraced_s`` is the untraced median of ``setup_s + train_wall_s``, for
    ``trace.overhead_s``.
    """
    counts = tracer.counts
    out: Dict[str, float] = {}
    for layer, metric in SELF_TIME_METRICS.items():
        out[metric] = tracer.self_time.get(layer, 0.0)
    out["other.self_s"] = wall_s - sum(out[m] for m in SELF_TIME_METRICS.values())
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = wall_s - untraced_s

    metrics = trial.ps.metrics()
    stats = trial.ps.network.stats
    out["ml.worker_resumes"] = counts["ml.worker_resumes"]
    out["ps.client.ops"] = counts["ps.client.ops"]
    out["ps.client.keys"] = counts["ps.client.keys"]
    out["ps.client.fused_hit_ratio"] = _ratio(
        counts["ps.client.fused_hits"], counts["ps.client.fused_attempts"]
    )
    out["ps.server.calls"] = counts["ps.server.calls"]
    out["ps.server.keys"] = counts["ps.server.keys"]
    out["ps.storage.row_ops"] = counts["ps.storage.row_ops"]
    out["ps.storage.batch_ops"] = counts["ps.storage.batch_ops"]
    out["ps.storage.moved_keys"] = counts["ps.storage.moved_keys"]
    out["ps.lapse.relocations"] = metrics.relocations
    out["ps.lapse.relocations_per_localize"] = _ratio(metrics.relocations, metrics.localize_calls)
    out["ps.lapse.forwarded_ops"] = metrics.forwarded_ops
    out["ps.lapse.local_read_fraction"] = metrics.local_read_fraction
    out["simnet.network.sends"] = counts["simnet.network.sends"]
    out["simnet.network.bytes"] = stats.bytes_sent
    out["simnet.network.coalesced_ratio"] = _ratio(stats.coalesced_messages, stats.messages_sent)
    out["simnet.kernel.events_scheduled"] = counts["simnet.kernel.events_scheduled"]
    out["simnet.kernel.delivery_events"] = stats.delivery_events
    out["durability.wal_appends"] = counts["durability.wal_appends"]
    out["durability.wal_bytes"] = metrics.wal_bytes
    out["durability.replayed_deltas"] = metrics.replayed_deltas
    out["cluster.recovered_keys"] = trial.elastic.recovered_keys if trial.elastic else 0
    out["cluster.lost_keys"] = trial.lost_keys()
    return out
