"""Benchmark harness for the MOSAIC reproduction (see ``perfbench/README.md``)."""
