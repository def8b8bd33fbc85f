"""The one definition of how many cores this process has.

The executors size their worker pools and pick a schedule from it, and
the encode kernel decides from it whether a large call runs on two
cores (:mod:`repro.hdc.encoders._blocked`).
"""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1
