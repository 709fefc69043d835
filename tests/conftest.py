"""Suite-wide hypothesis settings.

Examples are derived from each test's name instead of a random seed, so a
run is reproducible, and no example is timed, so a slow or busy host cannot
fail a property test.
"""

from hypothesis import settings

settings.register_profile("raclib", deadline=None, derandomize=True)
settings.load_profile("raclib")
