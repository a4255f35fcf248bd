"""The one map that every grid sweep runs through.

Items run in input order in the calling thread, so exceptions propagate
unchanged: the first failing item's exception is raised and no later item
runs.  Sweeps call this function by name, rather than a plain list
comprehension, so that an outside tracer can wrap the whole sweep.
"""

from __future__ import annotations


def parallel_map(fn, items):
    """Apply ``fn`` to each item, returning the results in input order."""
    return [fn(item) for item in items]
