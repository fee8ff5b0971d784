"""The repo's benchmark: five workloads, end-to-end metrics, a per-layer trace.

``BENCHMARK.json`` at the repo root is the contract (names, units, bounds);
``perf/run.py`` runs one workload; ``python -m perf`` runs the set, the A/A
check, a comparison of two saved runs, and the traced waterfall.  Everything
here measures ``repro`` from outside: nothing under ``src/`` imports ``perf``.
"""
