"""The [MMSS25] semi-streaming (1+eps)-approximate matching algorithm.

This is Algorithm 1 of the paper (reviewed in Section 4): a 2-approximate
initial matching is improved over a schedule of scales and phases, where each
phase runs pass-bundles of two streaming passes (Extend-Active-Path and
Contract-and-Augment) plus a backtracking step.  The boosting frameworks of
Sections 5 and 6 simulate exactly this algorithm, so it also serves as the
reference implementation the simulations are tested against.

The number of passes over the edge stream is tracked in the ``passes``
counter.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.matching.greedy import greedy_maximal_matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.operations import apply_augmentations
from repro.core.phase import DirectDriver, run_phase


def semi_streaming_matching(graph: Graph, eps: float,
                            profile: Optional[ParameterProfile] = None,
                            seed: Optional[int] = None,
                            counters: Optional[Counters] = None,
                            check_invariants: bool = False) -> Matching:
    """Compute a (1+eps)-approximate maximum matching by the [MMSS25] algorithm.

    Parameters
    ----------
    graph:
        Input graph.
    eps:
        Approximation parameter in (0, 1/2]; rounded so that 1/eps is a power
        of two (Section 3).
    profile:
        Parameter schedule; defaults to :meth:`ParameterProfile.practical`.
    seed:
        Seed for the per-pass stream order.
    counters:
        Optional counter bag (``passes``, ``phases``, ``augmentations``, ...).
    check_invariants:
        Run the structure validator after every pass-bundle (slow; for tests).

    Returns
    -------
    Matching
        The computed matching (always a valid matching of ``graph``).
    """
    profile = profile if profile is not None else ParameterProfile.practical(eps)
    counters = counters if counters is not None else Counters()
    rng = random.Random(seed)

    # Run on the backend the profile asks for (no-op when backend=None or
    # the input already matches; the returned matching fits the original).
    graph = profile.resolve_graph(graph)

    # Line 1 of Algorithm 1: a 2-approximate (maximal) initial matching.
    matching = greedy_maximal_matching(graph)
    counters.add("passes")

    driver = DirectDriver(rng=rng)
    for h, budget in profile.schedule(graph.n):
        for _t in range(budget):
            counters.add("phases")
            records = run_phase(graph, matching, profile, h, driver,
                                counters=counters,
                                check_invariants=check_invariants)
            gained = apply_augmentations(matching, records)
            counters.add("matching_gain", gained)
            if profile.early_exit and gained == 0:
                # A phase is a deterministic restart given (M, h); if it finds
                # nothing, repeating it at the same scale -- or at a later
                # scale merged into this schedule entry -- cannot help.
                break

    return matching
