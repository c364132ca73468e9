"""Seeded benchmark of the subfieldscan pipeline; run.py is the entry point.

Modules: workloads (seeded inputs and their truth), intpoly (the
benchmark's own integer arithmetic), checks (independent verification of
every answer), speed (machine-speed calibration), trace and layers (spans
and per-layer metrics recorded around library calls, from outside).
"""
