"""Benchmark for the ALT system and the AntTune service (see README.md)."""
