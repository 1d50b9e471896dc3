"""The OASSIS benchmark: three workloads, end-to-end metrics, a traced run.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the one command; ``perfbench/README.md`` explains the
workloads, every metric, and what each layer metric should move.
"""
