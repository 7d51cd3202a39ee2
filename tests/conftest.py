"""Test-session settings.

With the ``CI`` environment variable set, hypothesis runs derandomized and
without per-example deadlines, so property tests give the same examples on
every run and a slow shared runner cannot fail them on timing.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
