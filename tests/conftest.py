"""Shared test settings.

Hypothesis draws its examples from a fixed seed derived from each test, so
every run of the suite tries the same inputs; each test keeps its own
`max_examples`.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
