"""Workloads, correctness checks, reference RHS and tracing of the fishbone benchmark."""
