"""Metric names and units, and how passes become metrics.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics of
``BENCHMARK.json`` (a test holds them together).  Every run prints every
metric of its list: a layer a workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .layertrace import LayerTracer
from .stats import median, percentile
from .workloads import PassResult

#: name -> unit; printed by every ``--trace 0`` run
END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "questions": "count",
    "peak_rss_mb": "MB",
}

#: name -> unit; printed by every ``--trace 1`` run
PER_LAYER = {
    # workload figures from the traced run's untraced pass
    "sweep_s": "s",
    "answer_p50_ms": "ms",
    "answer_p99_ms": "ms",
    "next_p50_ms": "ms",
    "next_p99_ms": "ms",
    "loadgen.busy_share": "ratio",
    # layers, from the traced pass
    "oassisql.parse_s": "s",
    "sparql.solutions_s": "s",
    "sparql.solutions": "count",
    "assignments.successors_s": "s",
    "assignments.successors_calls": "count",
    "lattice.successors.generated": "count",
    "assignments.in_expansion_s": "s",
    "lattice.expansion.checks": "count",
    "assignments.leq_calls": "count",
    "mining.status_s": "s",
    "mining.status_calls": "count",
    "mining.refresh_s": "s",
    "mining.refresh_calls": "count",
    "mining.inferred_share": "ratio",
    "mining.replay_s": "s",
    "replay.cache_misses": "count",
    "crowd.support_s": "s",
    "crowd.support_calls": "count",
    "engine.next_batch_s": "s",
    "engine.submit_s": "s",
    "service.next_batch_s": "s",
    "service.submit_s": "s",
    "service.requeues": "count",
    "service.timeouts": "count",
    "gateway.app.next_s": "s",
    "gateway.app.answer_s": "s",
    "gateway.server.answer_p50_ms": "ms",
    "gateway.transport_share": "ratio",
    "gateway.journal.append_s": "s",
    "gateway.journal.appends": "count",
    "gateway.journal.bytes_per_answer": "bytes",
    "gateway.next.empty_share": "ratio",
    "shard.partition_s": "s",
    "shard.start_s": "s",
    "shard.codec_s": "s",
    "shard.frames_sent": "count",
    "shard.frames_received": "count",
    "shard.bytes_sent": "bytes",
    "shard.bytes_received": "bytes",
    "shard.coordinator.busy_share": "ratio",
    "shard.answers.useful_share": "ratio",
    "shard.deltas.stale": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}


def end_to_end(passes: List[PassResult]) -> Dict[str, float]:
    """Medians over passes, set-ups pooled.

    Memory is the peak reached by the end of the first pass: the high-water
    mark creeps up with every further pass, and the number of passes
    depends on speed, so later passes would make it a function of time.
    """
    return {
        "setup_s": median([s for result in passes for s in result.setups]),
        "campaign_s": median([result.campaign_s for result in passes]),
        "questions": median([result.questions for result in passes]),
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(base: PassResult, traced: PassResult, layers: LayerTracer,
              counters: Any) -> Dict[str, float]:
    """Layer metrics of one traced pass, beside its untraced twin ``base``.

    ``counters`` is the program's own tracer (``repro.observability``),
    active during the traced pass.
    """
    value = counters.value
    own = layers.self_seconds
    calls = layers.calls
    extras = base.extras
    metrics: Dict[str, float] = {
        "sweep_s": extras.get("sweep_s", 0.0),
        "answer_p50_ms": _pct(extras.get("answer_ms"), 50),
        "answer_p99_ms": _pct(extras.get("answer_ms"), 99),
        "next_p50_ms": _pct(extras.get("next_ms"), 50),
        "next_p99_ms": _pct(extras.get("next_ms"), 99),
        "loadgen.busy_share": _share(extras.get("client_busy_s", 0.0),
                                     extras["campaign_wall_s"])
        if "client_busy_s" in extras else 0.0,
        "oassisql.parse_s": own("oassisql.parse"),
        "sparql.solutions_s": own("sparql.solutions"),
        "sparql.solutions": value("sparql.solutions"),
        "assignments.successors_s": own("assignments.successors"),
        "assignments.successors_calls": calls("assignments.successors"),
        "lattice.successors.generated": value("lattice.successors.generated"),
        "assignments.in_expansion_s": own("assignments.in_expansion"),
        "lattice.expansion.checks": value("lattice.expansion.checks"),
        "assignments.leq_calls": calls("assignments.leq"),
        "mining.status_s": own("mining.status"),
        "mining.status_calls": calls("mining.status"),
        "mining.refresh_s": own("mining.refresh"),
        "mining.refresh_calls": calls("mining.refresh"),
        "mining.replay_s": own("mining.replay"),
        "replay.cache_misses": value("replay.cache_misses"),
        "crowd.support_s": own("crowd.support"),
        "crowd.support_calls": calls("crowd.support"),
        "engine.next_batch_s": own("engine.next_batch"),
        "engine.submit_s": own("engine.submit"),
        "service.next_batch_s": own("service.next_batch"),
        "service.submit_s": own("service.submit"),
        "service.requeues": value("service.requeues"),
        "service.timeouts": value("service.timeouts"),
        "gateway.app.next_s": own("gateway.app.next"),
        "gateway.app.answer_s": own("gateway.app.answer"),
        "gateway.journal.append_s": own("gateway.journal.append"),
        "gateway.journal.appends": calls("gateway.journal.append"),
        "gateway.journal.bytes_per_answer": _share(
            traced.extras.get("wal_bytes", 0), traced.extras.get("answers", 0)),
        "gateway.next.empty_share": _share(
            value("gateway.longpoll.empty"), traced.extras.get("next_requests", 0)),
        "shard.partition_s": own("shard.partition"),
        "shard.start_s": own("shard.start"),
        "shard.codec_s": own("shard.codec.send") + own("shard.codec.recv"),
        "shard.frames_sent": calls("shard.codec.send"),
        "shard.frames_received": calls("shard.codec.recv"),
        "shard.bytes_sent": layers.tally("shard.codec.send")[3],
        "shard.bytes_received": layers.tally("shard.codec.recv")[3],
        "shard.deltas.stale": value("shard.deltas.stale"),
        "shard.answers.useful_share": _share(
            value("shard.answers.merged"), value("shard.fleet.answers")),
        "trace.overhead_pct": 100.0 * _share(
            traced.campaign_s - base.campaign_s, base.campaign_s),
        "trace.unattributed_share": 1.0 - _share(
            traced.extras.get("attributed_s", 0.0), traced.extras["campaign_wall_s"]),
    }
    inferred = value("mining.inferred.significant") + value("mining.inferred.insignificant")
    metrics["mining.inferred_share"] = _share(
        inferred, inferred + value("mining.classified.by_crowd"))
    server = counters.histogram("gateway.latency.answer")
    server_p50 = server.quantile(0.5) * 1000.0 if server is not None else 0.0
    client_p50 = _pct(traced.extras.get("answer_ms"), 50)
    metrics["gateway.server.answer_p50_ms"] = server_p50
    metrics["gateway.transport_share"] = (
        _share(client_p50 - server_p50, client_p50) if server is not None else 0.0
    )
    _, serve_self, serve_child, _ = layers.tally("shard.serve")
    metrics["shard.coordinator.busy_share"] = _share(
        serve_child, serve_self + serve_child)
    return metrics


def _pct(samples: Optional[List[float]], pct: float) -> float:
    return percentile(samples, pct) if samples else 0.0
