"""The repository benchmark: closed-loop serving workloads with a traced
per-layer breakdown.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
