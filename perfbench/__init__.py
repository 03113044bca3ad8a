"""Training benchmark for smwopt: workloads, output checks and tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
