"""End-to-end and per-layer benchmark of the sfpsolve solvers (see README.md)."""
