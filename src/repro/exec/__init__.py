"""Execution layer: payload sizing, the isolation sanitizer and bench workers.

The MPC and CONGEST simulators run their round programs sequentially; the
benchmark suite is embarrassingly parallel *across* scenarios.  This package
holds what both share:

* :func:`~repro.exec.words.payload_words` -- the word-size convention shared
  by the MPC budget/counter accounting and the CONGEST per-edge message
  limit.
* :class:`~repro.exec.isolation.IsolationGuard` -- the runtime check that a
  round program never mutates a payload after sending it.
* :func:`~repro.exec.pool.run_spec_task` -- the picklable worker the bench
  runner's ``--jobs N`` process pool executes.

Determinism contract: the bench runner merges pooled records in spec order,
so a ``--jobs N`` run is indistinguishable from a serial one except for
wall-clock time.
"""

from repro.exec.isolation import IsolationGuard, IsolationViolation
from repro.exec.words import payload_words

__all__ = [
    "IsolationGuard",
    "IsolationViolation",
    "payload_words",
]
