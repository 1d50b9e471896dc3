"""Demo-scale runs of every workload emit every declared metric.

Each workload runs once untraced and once traced through the same entry
point the benchmark command uses, at ``--scale demo`` (tiny inputs), and
must check its outputs with no failed operation.
"""

import json
from pathlib import Path

import pytest

from perfbench import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def invoke(capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "1", "--seconds", "0.5",
        "--trace", str(trace), "--scale", "demo",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    return meta, json.loads(lines[-1])


def test_declared_metrics_match_the_runner():
    from perfbench.metrics import END_TO_END, PER_LAYER

    assert declared("end_to_end") == END_TO_END
    assert declared("per_layer") == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_demo_run_emits_every_metric(capsys, workload, trace, kind):
    meta, result = invoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: row["unit"] for name, row in metrics.items()} == declared(kind)
    for name, row in metrics.items():
        assert isinstance(row["value"], (int, float)), name
    if trace == 0:
        assert all(row["value"] > 0 for row in metrics.values())
    for key in ("commit", "platform", "python", "nproc", "loadavg_start",
                "loadavg_end", "cpu_probe_s_start", "cpu_probe_s_end",
                "steal_share", "seed", "cpus", "campaign_wall_s_per_pass"):
        assert key in meta


def test_traced_run_attributes_its_layers(capsys):
    _, result = invoke(capsys, "serve-http", 1)
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    for name in ("gateway.app.answer_s", "service.submit_s", "engine.submit_s",
                 "gateway.journal.append_s", "crowd.support_s",
                 "answer_p50_ms", "next_p50_ms"):
        assert metrics[name] > 0, name
    assert metrics["shard.codec_s"] == 0  # serve-http never reaches shards


def test_same_seed_same_questions(capsys):
    first = invoke(capsys, "mine-travel", 0)[1]["metrics"]["questions"]["value"]
    again = invoke(capsys, "mine-travel", 0)[1]["metrics"]["questions"]["value"]
    assert first == again
