"""The repository benchmark: see README.md and ``python3 perfbench/run.py --help``."""
