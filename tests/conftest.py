"""Shared test settings.

Property tests run a fixed, bounded set of examples, so the suite is
deterministic and its wall time does not depend on the search.
"""

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("deterministic", derandomize=True,
                              max_examples=60, deadline=None, database=None)
    settings.load_profile("deterministic")
