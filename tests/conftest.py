"""Hypothesis profiles.  `ci` (`pytest --hypothesis-profile=ci`) prints the
@reproduce_failure blob of a failing example, so that a failure seen on a
CI runner can be replayed exactly; it keeps every other default."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
