"""The repo's perf ledger: five workloads, end-to-end metrics, a layer waterfall.

Every layer is measured from outside, through public functions and the
reports they already return.  ``run.py`` is the entry point the benchmark
driver uses (one workload per invocation, one JSON line out);
``python -m benchmarks.ledger`` prints the same numbers for a human.  See
README.md in this directory.
"""
