"""Hypothesis profiles.  ``--hypothesis-profile=ci`` replays the same
examples on every run and drops the per-example deadline, so a slow CI host
neither flakes nor finds a different failure each time."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
