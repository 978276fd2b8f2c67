"""Flags for the environment record of ``perfbench/run.py``, which reads them.

No adaptbus code is compiled: ``HAVE_NUMBA`` records whether numba is
importable, and ``JIT_ENABLED`` is always False.  This module goes with the
benchmark change of ROADMAP item 4, which drops that record.
"""

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
JIT_ENABLED = False
