"""Harness for the end-to-end benchmark (see ``benchmarks/e2e/README.md``).

``openloop`` imports nothing from ``repro``, so its tests run against
stub servers; ``probes`` and ``workloads`` drive the program through its
public calls.
"""
