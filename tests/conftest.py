"""Hypothesis profiles. ``pytest --hypothesis-profile=ci`` runs the properties
that leave ``max_examples`` unset on a larger budget."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
