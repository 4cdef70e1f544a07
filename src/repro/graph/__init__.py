"""Graph substrates: static graphs, dynamic graphs, bipartite covers, generators.

This sub-package provides every graph container the boosting framework and its
substrates operate on:

* :class:`~repro.graph.graph.Graph` -- a mutable undirected simple graph with
  adjacency-set storage, the container used by all static algorithms.
* :class:`~repro.graph.dynamic_graph.DynamicGraph` -- a fully dynamic graph with
  an explicit insert/delete log, used by the Section 7 algorithms.
* :class:`~repro.graph.bipartite.BipartiteDoubleCover` -- the auxiliary graph
  ``B`` of Definition 6.3 (every vertex split into an outer copy ``v+`` and an
  inner copy ``v-``).
* :mod:`~repro.graph.generators` -- synthetic workload generators (random
  graphs, planted matchings, paths/cycles, blossom gadgets, ORS-style layered
  induced matchings).
* :mod:`~repro.graph.backends` -- pluggable storage backends behind
  :class:`Graph`: the default adjacency-set layout (``"adjset"``) and a
  NumPy/CSR layout (``"csr"``) with vectorized bulk operations.
"""

from repro.graph.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    AdjacencySetBackend,
    CSRBackend,
    GraphBackend,
    make_backend,
)
from repro.graph.graph import Graph
from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.bipartite import BipartiteDoubleCover, is_bipartite, bipartition

__all__ = [
    "Graph",
    "DynamicGraph",
    "Update",
    "BipartiteDoubleCover",
    "is_bipartite",
    "bipartition",
    "GraphBackend",
    "AdjacencySetBackend",
    "CSRBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "make_backend",
]
