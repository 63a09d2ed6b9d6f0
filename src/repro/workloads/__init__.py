"""Workload generators: scripted paper scenarios and random sessions."""
