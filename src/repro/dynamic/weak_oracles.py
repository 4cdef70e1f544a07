"""Concrete implementations of the weak oracle ``Aweak`` (Definition 6.1).

All oracles are bound to a graph object; because :class:`~repro.graph.graph.Graph`
is mutable and the dynamic maintainer updates it in place, the same oracle
object keeps answering correctly as the graph evolves (except the OMv oracle,
which must be notified of updates -- the maintainer does that).

* :class:`GreedyInducedWeakOracle` -- greedy maximal matching of ``G[S]``;
  ``lambda = 1/2``.  The cheapest oracle; touches only edges inside ``S``.
* :class:`ExactInducedWeakOracle` -- exact maximum matching of ``G[S]``;
  ``lambda = 1``.  Used to isolate framework behaviour from oracle quality.
* :class:`SamplingWeakOracle` -- the sublinear-flavoured oracle of
  [AKK25, Proposition 2.2]: repeatedly sample vertex pairs from ``S`` and test
  adjacency in the adjacency matrix, keeping a matching among the hits.  Its
  work per call is ``O(|S| * rounds)`` adjacency probes, independent of the
  number of edges.
* :class:`OMvWeakOracle` -- answers bipartite queries through the OMv
  substrate (Section 7.4.1 / Lemma 7.9) on the bipartite double cover.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from repro.graph.graph import Graph
from repro.matching.greedy import greedy_on_vertex_subset
from repro.matching.blossom import maximum_matching
from repro.instrumentation.counters import Counters
from repro.core.oracles import WeakOracle
from repro.dynamic.omv import OMvMatrix, maximal_matching_via_omv

Edge = Tuple[int, int]


class GreedyInducedWeakOracle(WeakOracle):
    """Greedy maximal matching of the induced subgraph (``lambda = 1/2``)."""

    lam = 0.5
    name = "greedy-induced"

    def __init__(self, graph: Graph, seed: Optional[int] = None) -> None:
        super().__init__(graph)
        self._rng = random.Random(seed)

    def query(self, subset: Sequence[int], delta: float) -> Optional[List[Edge]]:
        # Thread the oracle's own Random instance through (reproducible runs).
        edges = greedy_on_vertex_subset(self.graph, subset, rng=self._rng)
        return edges if edges else None


class ExactInducedWeakOracle(WeakOracle):
    """Exact maximum matching of the induced subgraph (``lambda = 1``)."""

    lam = 1.0
    name = "exact-induced"

    def query(self, subset: Sequence[int], delta: float) -> Optional[List[Edge]]:
        sub, back = self.graph.induced_subgraph(list(subset))
        if sub.m == 0:
            return None
        matching = maximum_matching(sub)
        edges = [(back[u], back[v]) for u, v in matching.edges()]
        return edges if edges else None


class SamplingWeakOracle(WeakOracle):
    """Adjacency-matrix sampling oracle ([AKK25, Prop. 2.2] flavour).

    Per call it performs ``rounds * |S|`` adjacency probes: in each round the
    subset is randomly paired up and every pair is probed; hits whose
    endpoints are still free join the matching.  If ``G[S]`` has a matching of
    size ``delta * n`` then a constant fraction of a random pairing hits an
    edge in expectation, so a constant number of rounds already returns
    ``Omega(delta * n)`` edges; returning ``None`` signals ``bottom``.
    Probes are counted in ``weak_probe_count``.
    """

    lam = 0.25
    name = "sampling"

    def __init__(self, graph: Graph, rounds: int = 8,
                 seed: Optional[int] = None,
                 counters: Optional[Counters] = None) -> None:
        super().__init__(graph)
        self.rounds = rounds
        self._rng = random.Random(seed)
        self.counters = counters if counters is not None else Counters()

    def query(self, subset: Sequence[int], delta: float) -> Optional[List[Edge]]:
        vertices = list(dict.fromkeys(subset))
        if len(vertices) < 2:
            return None
        matched: Set[int] = set()
        result: List[Edge] = []
        target = max(1, int(self.lam * delta * self.graph.n))
        for _ in range(self.rounds):
            self._rng.shuffle(vertices)
            for i in range(0, len(vertices) - 1, 2):
                u, v = vertices[i], vertices[i + 1]
                if u in matched or v in matched:
                    continue
                self.counters.add("weak_probe_count")
                if self.graph.has_edge(u, v):
                    matched.add(u)
                    matched.add(v)
                    result.append((u, v))
            if len(result) >= target:
                break
        return result if result else None


class OMvWeakOracle(WeakOracle):
    """``Aweak`` backed by a dynamic OMv structure over the double cover ``B``.

    The oracle maintains the adjacency matrix of ``B`` inside an
    :class:`~repro.dynamic.omv.OMvMatrix`; the dynamic maintainer must call
    :meth:`notify_update` for every edge change.  Bipartite queries (the ones
    the Section 6 framework issues most) are answered purely through OMv
    queries and row probes (Lemma 7.9); plain subset queries fall back to the
    projection argument of Lemma 7.8 (query ``B[S+ ∪ S-]`` and project).
    """

    lam = 1.0 / 6.0  # the Lemma 7.8 projection loses at most a factor 6
    name = "omv"

    def __init__(self, graph: Graph, counters: Optional[Counters] = None) -> None:
        super().__init__(graph)
        self.counters = counters if counters is not None else Counters()
        self.omv = OMvMatrix.from_graph_bipartite_cover(graph, counters=self.counters)

    # -- dynamic maintenance -------------------------------------------------
    def notify_update(self, u: int, v: int, present: bool) -> None:
        """Reflect an edge insertion/deletion of ``G`` in the OMv matrix."""
        self.omv.update(u, v, present)
        self.omv.update(v, u, present)

    def rebuild(self) -> None:
        """Rebuild the matrix from the bound graph (after bulk changes)."""
        self.omv = OMvMatrix.from_graph_bipartite_cover(self.graph,
                                                        counters=self.counters)

    # -- queries ---------------------------------------------------------------
    def query_bipartite(self, left: Sequence[int], right: Sequence[int],
                        delta: float) -> Optional[List[Edge]]:
        left = list(dict.fromkeys(left))
        left_set = set(left)
        right = [v for v in dict.fromkeys(right) if v not in left_set]
        if not left or not right:
            return None
        result = maximal_matching_via_omv(self.omv, left, right,
                                          counters=self.counters)
        return result if result else None

    def query(self, subset: Sequence[int], delta: float) -> Optional[List[Edge]]:
        vertices = list(dict.fromkeys(subset))
        if len(vertices) < 2:
            return None
        # Query B[S+ ∪ S-] (rows = outer copies, columns = inner copies) and
        # project the bipartite matching down to G[S] (Lemma 7.8).
        cover_matching = maximal_matching_via_omv(self.omv, vertices, vertices,
                                                  counters=self.counters)
        if not cover_matching:
            return None
        used: Set[int] = set()
        projected: List[Edge] = []
        for u, v in cover_matching:
            if u == v or u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            projected.append((u, v) if u < v else (v, u))
        return projected if projected else None
