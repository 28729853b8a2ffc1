"""End-to-end and per-layer benchmark of hopfsplit; see perfbench/README.md."""
