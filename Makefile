# Convenience targets for the OASSIS reproduction.

PYTHON ?= python3

.PHONY: install test lint deep-lint doclint typecheck perfbench bench bench-suite serve-bench serve-bench-full bench-faults bench-gateway bench-gateway-full gateway-smoke chaos shard-chaos chaos-all bench-chaos bench-chaos-full examples figures stats clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# project-invariant linter (rule catalogue: docs/ANALYSIS.md); exits
# non-zero on any error-severity finding, so CI can gate on it
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/

# the whole-program pass on top of the per-file linter: call-graph
# effect inference, static lock-order, wire taint — every finding
# carries a witness call chain (docs/ANALYSIS.md).  The cache file is
# hash-keyed over the analyzed tree, so unchanged reruns are instant
deep-lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ --deep --cache .deep-analysis-cache.json

# doc cross-link checker: fails on dangling `docs/*.md` references
# anywhere in the repository's markdown (part of the CI lint job)
doclint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.doclint .

# mypy is configured in pyproject.toml (strict on repro.analysis,
# repro.service, repro.faults, repro.gateway, repro.api and
# repro.observability, lenient elsewhere); requires mypy on PATH
typecheck:
	$(PYTHON) -m mypy src/repro/analysis src/repro/service src/repro/faults src/repro/gateway src/repro/api src/repro/observability

# the repository benchmark (BENCHMARK.json, perfbench/README.md): the
# end-to-end metrics of each workload with tracing off, 20 s per workload
# as the benchmark declares; results are also written to .perfbench_out/
perfbench:
	$(PYTHON) perfbench/run.py --workload mine-travel --seed 0 --seconds 20 --trace 0
	$(PYTHON) perfbench/run.py --workload serve-http --seed 0 --seconds 20 --trace 0
	$(PYTHON) perfbench/run.py --workload serve-shards --seed 0 --seconds 20 --trace 0

# quick perf report: micro-benches + backend A/B equivalence (fails on any
# mining divergence), then schema/threshold validation of the JSON output
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_report.py --quick --output BENCH_quick.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_report.py --validate BENCH_quick.json

bench-suite:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# quick (<60s) serving benchmark: thread mode at 1/4/8 workers, the
# process-shard matrix at 1/2/4 shards, one kill-one-shard chaos run,
# serial MSP-identity everywhere; then schema validation of the output
serve-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --quick --output BENCH_service_quick.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --validate BENCH_service_quick.json

# the full campaign (100k-member crowd in the shard matrix) behind the
# committed BENCH_service.json; the >=2.5x at-4-shards gate is enforced
# when the runner has >= 4 effective cores
serve-bench-full:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --output BENCH_service.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --validate BENCH_service.json

# fault-injection overhead ladder (disabled plan must cost <= 5%) and the
# kill-vs-uninterrupted MSP recovery identity, then schema validation
bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py --output BENCH_faults.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py --validate BENCH_faults.json

# loopback-HTTP gateway load test (docs/GATEWAY.md): simulated-member
# campaigns over real sockets, gated on serial MSP identity plus the
# throughput floor and per-endpoint latency budgets
bench-gateway:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_gateway.py --quick --output BENCH_gateway_quick.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_gateway.py --validate BENCH_gateway_quick.json

# the committed BENCH_gateway.json: demo + travel, three seeds each
bench-gateway-full:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_gateway.py --output BENCH_gateway.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_gateway.py --validate BENCH_gateway.json

# CI smoke: start the gateway, replay a 1-seed campaign through it over
# loopback HTTP, assert MSP identity and a clean shutdown
gateway-smoke:
	PYTHONPATH=src $(PYTHON) -m repro gateway --domain demo --sessions 2 --crowd-size 4 --seed 0

# seeded chaos campaigns (docs/RELIABILITY.md): every durability
# invariant checked across three fixed seeds; a failing seed reproduces
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seeds 0,1,2

# kill-one-shard -> WAL-restore -> identical-MSP campaign against the
# process-sharded fleet (docs/SHARDING.md), three fixed seeds
shard-chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --shards 3 --seeds 0,1,2

# the whole-stack kill-anything campaign (docs/RELIABILITY.md): gateway
# restart from its journal, supervised shard auto-restart, coordinator
# rebuild from shard WALs, client disconnect/duplicate faults — all
# gated on serial MSP identity and exactly-once answers
chaos-all:
	PYTHONPATH=src $(PYTHON) -m repro chaos --total --seeds 0,1,2

# CI-size whole-stack chaos report with per-component MTTR
bench-chaos:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py --quick --output BENCH_chaos_quick.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py --validate BENCH_chaos_quick.json

# the committed BENCH_chaos.json: demo + travel, three seeds each
bench-chaos-full:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py --output BENCH_chaos.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos.py --validate BENCH_chaos.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/culinary_menu.py
	$(PYTHON) examples/self_treatment_survey.py
	$(PYTHON) examples/interactive_demo.py --auto --max-questions 20

figures:
	$(PYTHON) -m repro figures fig5
	$(PYTHON) -m repro figures fig4f
	$(PYTHON) -m repro figures multiplicities

stats:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py --stats --stats-json stats_report.json
	$(PYTHON) -c "import json; r = json.load(open('stats_report.json')); \
	assert r['version'] == 1, r; \
	assert set(r) >= {'counters', 'derived', 'spans'}, sorted(r); \
	print('stats_report.json OK:', r['derived']['total_questions'], 'questions')"

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
