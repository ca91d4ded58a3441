"""Shared test configuration: one hypothesis profile for every property
test, derandomized (the same examples on every run) and without a
per-example deadline (the slowest oracles are brute force)."""

from hypothesis import settings

settings.register_profile("dicycles", derandomize=True, deadline=None)
settings.load_profile("dicycles")
