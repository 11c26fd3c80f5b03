"""Test-suite settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source rather than drawn at random, nothing is
stored between runs, and the example count is bounded, so the suite is
deterministic and its running time is fixed.
"""

from hypothesis import settings

settings.register_profile(
    "tropmom",
    derandomize=True,
    deadline=None,
    max_examples=200,
    database=None,
)
settings.load_profile("tropmom")
