"""One Hypothesis profile for every property test: reproducible draws, no
example database and no per-example deadline."""

from hypothesis import settings

settings.register_profile("mmsfair", derandomize=True, database=None, deadline=None)
settings.load_profile("mmsfair")
