"""Test-wide settings.

Hypothesis keeps no example database, so an example that failed once is not
replayed on every later run from the working directory.
"""

from hypothesis import settings

settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
