"""Host-time benchmark for txsim; see perfbench/README.md and run.py."""
