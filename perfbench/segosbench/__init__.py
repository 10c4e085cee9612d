"""The benchmark package behind ``perfbench/run.py``."""
