"""Verification oracles: causality ground truth and consistency checks."""
