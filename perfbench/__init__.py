"""The repository benchmark: four workloads driving ``repro`` end to end.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``README.md`` in this directory
describes the workloads, the metrics and the layer each metric belongs to.
"""
