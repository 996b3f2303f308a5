"""Shared test settings.

Every hypothesis test runs without a deadline, with examples derived from
its own source rather than a random seed, and without an example database,
so a run draws the same examples on every machine; a test's ``@settings``
sets only how many."""

from hypothesis import settings

settings.register_profile("binsquares", deadline=None, derandomize=True, database=None)
settings.load_profile("binsquares")
