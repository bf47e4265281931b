"""Host-time benchmark: workloads, tracing harness and metric rollup.

Run it as ``python3 perfbench/run.py --workload oltp --seed 1
--seconds 36 --trace 0``; see ``perfbench/README.md``.
"""
