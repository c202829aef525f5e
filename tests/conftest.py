"""Session set-up, run by pytest before it imports any test module.

The suite runs under the program entry points' BLAS policy: OpenBLAS's
idle threads sleep after a short spin instead of holding a core that the
next test's threads need.  OpenBLAS reads the variable once, when numpy
loads it, so this must run first.
"""

import sys

import effectrestore

assert "numpy" not in sys.modules, "numpy was imported before the BLAS policy was set"
effectrestore._program_policy()

# Hypothesis draws the same examples on every run and host, and reads and
# writes no example database, so a checkout's .hypothesis/ directory cannot
# replay a failure from elsewhere into the suite.  Loaded here, before any
# test module builds its @settings, so every test inherits it.
from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
