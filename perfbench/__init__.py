"""The repository benchmark: the real ``optrr`` CLI on four named workloads,
timed from outside, with a separate traced run for per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
