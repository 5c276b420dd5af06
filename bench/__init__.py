"""qubitkit benchmark: workloads, tracing and the machine record."""
