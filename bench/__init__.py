"""Benchmark for the statnet command line; run it with ``python3 bench/run.py``."""
