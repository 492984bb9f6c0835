"""Benchmark for qloopk's exact proofs; see perfbench/README.md."""
