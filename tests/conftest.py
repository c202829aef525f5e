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
