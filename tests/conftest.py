"""Hypothesis profiles.  ``--hypothesis-profile=ci`` replays the same
examples on every run and drops the per-example deadline, so a slow CI host
neither flakes nor finds a different failure each time."""

import pytest
from hypothesis import settings
from hypothesis.internal.charmap import intervals_from_codec

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session", autouse=True)
def utf8_charmap():
    """Build Hypothesis's utf-8 character table once, before any test.

    Without a ``.hypothesis/`` cache, the first ``st.text()`` draw builds it
    inside the draw (seconds), which fails that test's ``too_slow`` health
    check.  Built at import time instead, it warns
    ``HypothesisSideeffectWarning``; a fixture runs after collection."""
    intervals_from_codec("utf-8")
