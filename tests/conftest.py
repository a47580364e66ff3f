"""Shared test set-up: hypothesis draws the same examples on every run.

``derandomize`` seeds every property test from its own source, so two
runs of one commit see the same inputs, and without an example database
nothing is written to ``.hypothesis/``.  Per-test ``settings`` still set
their own example counts and deadlines.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
