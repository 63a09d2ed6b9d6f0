"""Measurement utilities for the overhead experiments."""
