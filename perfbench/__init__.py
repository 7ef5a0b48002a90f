"""Benchmark of the dtofsim toolkit; run it with ``python3 perfbench/run.py``."""
