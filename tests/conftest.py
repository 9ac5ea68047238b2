"""Suite-wide settings: every hypothesis test draws the same examples on
every run, so two runs of the suite test the same cases."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
