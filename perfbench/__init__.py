"""The repository benchmark: host cost of four paper scenarios.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is expected to move.
"""
