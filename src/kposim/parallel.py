"""Serial map over the gate times of ``dynamics.cat_ramsey_map``.

That loop is its one call site; the other sweeps are ``propagate_many``
stacks.  It stays only because ``perfbench/spans.py`` wraps it by name,
until the benchmark revision (ROADMAP direction 2).  Items run in input
order in the calling thread, so the first failing item's exception
propagates unchanged and no later item runs.
"""

from __future__ import annotations


def parallel_map(fn, items):
    """Apply ``fn`` to each item, returning the results in input order."""
    return [fn(item) for item in items]
