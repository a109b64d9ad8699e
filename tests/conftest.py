"""Test-suite settings shared by every module.

Hypothesis prints a ``@reproduce_failure`` line with each failing example,
so a rare failure in a CI log can be replayed exactly. The profile changes
nothing else: example counts, deadlines and seeds stay as each test sets
them.
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
