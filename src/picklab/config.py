"""Work-budget configuration.

The budget caps combinatorial work (free words, quiver paths, series terms)
per dataset.  The PICKLAB_BUDGET environment variable overrides the default.
"""

import os

from .errors import ArgumentError

DEFAULT_BUDGET = 10**7


def work_budget() -> int:
    raw = os.environ.get("PICKLAB_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    message = f"PICKLAB_BUDGET must be a positive integer, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise ArgumentError(message) from None
    if value <= 0:
        raise ArgumentError(message)
    return value
