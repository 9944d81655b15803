"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples are drawn
from a fixed seed and no test has a deadline, so a CI run explores the
same inputs every time and cannot flake.  Without it, local runs keep
Hypothesis's default random exploration.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
