"""The static boosting framework of Section 5 (Theorem 1.1).

Given oracle access to an algorithm ``Amatching`` that returns a
``c``-approximate maximum matching of any graph it is handed, the framework
computes a (1+eps)-approximate maximum matching of ``G`` by simulating the
semi-streaming algorithm:

* the initial matching is obtained by iterated peeling with ``Amatching``
  (Lemma 5.3);
* ``Contract-and-Augment`` is simulated by Algorithm 4: the structure-level
  graph ``H'`` (Definition 5.4) is built, ``Amatching`` is invoked on it for
  O(log 1/eps) iterations, and every matched pair of structures is augmented;
* ``Extend-Active-Path`` is simulated by Algorithm 5: for every stage
  ``s = 0..l_max`` at which some working vertex sits
  (:meth:`PhaseState.eligible_stages`; other stages have an empty ``H'_s``)
  the bipartite graph ``H'_s`` of s-feasible arcs (Definition 5.8) is built
  and ``Amatching`` is invoked on it for O(log 1/eps) iterations, performing
  ``Overtake`` on every matched arc.

Every oracle invocation is charged to the ``oracle_calls`` counter -- the
quantity Theorem 1.1 bounds by O(eps^-7 log(1/eps)) per run and Table 1
compares across frameworks.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

try:  # optional: the reference engine works without numpy
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.oracles import (
    CountingOracle,
    GreedyMatchingOracle,
    MatchingOracle,
    ensure_counting,
)
from repro.core.operations import apply_augmentations, augment_op, overtake_op
from repro.core.phase import (_type2_candidates, backtrack_pass,
                              contract_pass, run_phase)
from repro.core.structures import FrozenViews, PhaseState, StructNode

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# derived graphs H' and H'_s
# ---------------------------------------------------------------------------

def build_structure_graph(state: PhaseState) -> Tuple[Graph, Dict[Edge, Edge]]:
    """Build ``H'`` (Definition 5.4): one vertex per structure, an edge between
    two structures iff some G-edge connects outer vertices of both.

    Returns ``(H', witness)`` where ``witness[(i, j)]`` is a G-edge realising
    the H'-edge ``{i, j}`` (i < j in H' labelling).  The array engine pulls
    the candidate type-2 arcs with one boolean-mask pass over the key-sorted
    edge arrays; the reference engine walks the same edge order scalar-wise,
    so both build the identical graph and witness map.
    """
    structures = state.live_structures()
    index = {id(s): i for i, s in enumerate(structures)}
    hprime = Graph(len(structures))
    witness: Dict[Edge, Edge] = {}
    if state.engine == "array":
        eu, ev = state.edge_arrays()
        idx = _type2_candidates(state)
        candidates = list(zip(eu[idx].tolist(), ev[idx].tolist()))
    else:
        candidates = state.edge_pairs()
    for u, v in candidates:
        if state.removed[u] or state.removed[v]:
            continue
        nu, nv = state.node_of[u], state.node_of[v]
        if nu is None or nv is None or not (nu.outer and nv.outer):
            continue
        if nu.structure is nv.structure:
            continue
        if state.matching.contains_edge(u, v):
            continue
        i, j = index[id(nu.structure)], index[id(nv.structure)]
        key = (i, j) if i < j else (j, i)
        if hprime.add_edge(*key):
            witness[key] = (u, v) if i < j else (v, u)
    return hprime, witness


def stage_right_vertices(state: PhaseState, stage: int,
                         unvisited_only: bool = False) -> List[int]:
    """Right part of ``H'_s``: matched, not removed, inner-or-unvisited
    vertices with label > ``stage + 1``, ascending.

    With ``unvisited_only`` the in-structure (inner) vertices are excluded --
    the sampling driver of Section 6.6 covers those by per-structure sampling
    and only needs the unvisited remainder in bulk.  The array engine answers
    with one boolean-mask pass; the reference engine scans ``range(n)`` in
    the same ascending order.
    """
    if state.engine == "array":
        mask = (state.matched_arr & ~state.removed_arr
                & (state.vlabel_arr > stage + 1))
        if unvisited_only:
            mask &= state.sid_arr == -1
        else:
            mask &= ~state.outer_arr
        return np.flatnonzero(mask).tolist()
    out: List[int] = []
    for v in range(state.graph.n):
        if state.removed[v] or state.matching.is_free(v):
            continue
        node = state.node_of[v]
        if unvisited_only:
            if node is not None:
                continue
        elif node is not None and node.outer:
            continue
        if state.label_of_vertex(v) > stage + 1:
            out.append(v)
    return out


def build_stage_graph(state: PhaseState, stage: int) -> Tuple[Graph, Dict[Edge, Edge], int]:
    """Build ``H'_s`` (Definition 5.8) for stage ``s``.

    Left part: working vertices of structures that are active, not on hold and
    not yet extended, whose distance (label) equals ``s``.  Right part: inner
    or unvisited matched G-vertices with label > s+1.  Returns
    ``(H'_s, witness, num_left)`` where the first ``num_left`` vertices of the
    returned graph are the left part.
    """
    left_nodes: List[StructNode] = [
        structure.working for structure in state.live_structures()
        if state.eligible_working(structure, stage)]
    if not left_nodes:
        # no eligible working vertex at this stage: H'_s has no left part and
        # therefore no edges; skip the O(n) right-side scan entirely
        return Graph(0), {}, 0

    right_vertices = stage_right_vertices(state, stage)

    left_index = {id(node): i for i, node in enumerate(left_nodes)}
    right_index = {v: len(left_nodes) + i for i, v in enumerate(right_vertices)}
    hs = Graph(len(left_nodes) + len(right_vertices))
    witness: Dict[Edge, Edge] = {}
    right_set = set(right_vertices)
    for node in left_nodes:
        i = left_index[id(node)]
        for x in node.vertices:
            for y in state.sorted_neighbors(x):
                if y not in right_set or state.arc_type(x, y) != 3:
                    continue
                j = right_index[y]
                key = (i, j)
                if hs.add_edge(i, j):
                    witness[key] = (x, y)
    return hs, witness, len(left_nodes)


# ---------------------------------------------------------------------------
# the oracle-driven phase driver (Algorithms 4 and 5)
# ---------------------------------------------------------------------------

class OracleDriver:
    """Phase driver that simulates the two streaming passes with ``Amatching``."""

    def __init__(self, oracle: MatchingOracle, profile: ParameterProfile,
                 rng: Optional[random.Random] = None) -> None:
        self.oracle = oracle
        self.profile = profile
        self.rng = rng if rng is not None else random.Random(0)

    # -- Algorithm 5 --------------------------------------------------------
    def extend_active_path(self, state: PhaseState) -> None:
        stages = self.profile.stages()
        state.counters.add("stages", len(stages))
        # a stage where no working vertex sits has an empty left side in
        # H'_s, so it can perform no overtake and costs no oracle call
        eligible = state.eligible_stages()
        for stage in stages:
            if stage not in eligible:
                continue
            overtook = False
            for _it in range(self.profile.sim_iterations):
                hs, witness, num_left = build_stage_graph(state, stage)
                if hs.m == 0:
                    break
                state.counters.add("iterations")
                matched = self.oracle.find_matching(hs)
                performed = 0
                for a, b in matched:
                    key = (a, b) if a < num_left else (b, a)
                    if key not in witness:
                        continue
                    x, y = witness[key]
                    # conditions may have been invalidated by an earlier
                    # overtake in this batch; re-check before acting.
                    nu = state.omega(x)
                    if (state.arc_type(x, y) == 3 and nu is not None
                            and state.distance(nu) == stage):
                        overtake_op(state, x, y, stage + 1)
                        performed += 1
                if performed == 0:
                    break
                overtook = True
            if overtook:
                eligible = state.eligible_stages()
        # Algorithm 5, line 9 would now run the Contract-and-Augment simulation
        # a second time; Remark 2 observes it can be skipped because the phase
        # driver (Algorithm 2) invokes contract_and_augment immediately after
        # this procedure anyway.  Skipping it halves the oracle calls.

    # -- Algorithm 4 --------------------------------------------------------
    def contract_and_augment(self, state: PhaseState) -> None:
        contract_pass(state)
        for _it in range(self.profile.sim_iterations):
            hprime, witness = build_structure_graph(state)
            if hprime.m == 0:
                break
            state.counters.add("iterations")
            matched = self.oracle.find_matching(hprime)
            performed = 0
            for a, b in matched:
                key = (a, b) if a < b else (b, a)
                if key not in witness:
                    continue
                u, v = witness[key]
                if state.arc_type(u, v) == 2:
                    augment_op(state, u, v)
                    performed += 1
            if performed == 0:
                break
        # Augmentation may expose new type-1 arcs involving fresh working
        # vertices only in later bundles; a final local contraction keeps the
        # no-type-1 invariant (Corollary B.5) without extra oracle calls.
        contract_pass(state)


# ---------------------------------------------------------------------------
# the framework (Theorem 1.1)
# ---------------------------------------------------------------------------

class BoostingFramework:
    """The boosting framework of Theorem 1.1.

    Parameters
    ----------
    eps:
        Target approximation parameter.
    oracle:
        A :class:`MatchingOracle`; defaults to the greedy 2-approximation.
    profile:
        Parameter schedule; defaults to the practical profile for ``eps``.
    counters:
        Counter bag; ``oracle_calls`` accumulates the Theorem 1.1 quantity.
    seed:
        Randomness for stream orders / tie-breaking.
    check_invariants:
        Validate structure invariants after every pass-bundle (slow).
    """

    def __init__(self, eps: float, oracle: Optional[MatchingOracle] = None,
                 profile: Optional[ParameterProfile] = None,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None,
                 check_invariants: bool = False) -> None:
        self.counters = counters if counters is not None else Counters()
        base_oracle = oracle if oracle is not None else GreedyMatchingOracle()
        self.oracle: CountingOracle = ensure_counting(base_oracle, self.counters)
        self.profile = profile if profile is not None else ParameterProfile.practical(
            eps, c=base_oracle.c)
        self.eps = self.profile.eps
        self.rng = random.Random(seed)
        self.check_invariants = check_invariants

    # -- Lemma 5.3 -----------------------------------------------------------
    def initial_matching(self, graph: Graph) -> Matching:
        """Compute a Theta(1)-approximate initial matching by iterated peeling.

        Lemma 5.3: after ``2c`` iterations of "find a c-approximate matching
        among the still-unmatched vertices and keep it", the union is a
        4-approximate matching.
        """
        matching = Matching(graph.n)
        rounds = max(1, int(2 * self.oracle.c) + 1)
        for _ in range(rounds):
            free = matching.free_vertices()
            sub, back = graph.induced_subgraph(free)
            if sub.m == 0:
                break
            found = self.oracle.find_matching(sub)
            if not found:
                break
            for x, y in found:
                matching.add(back[x], back[y])
        return matching

    def make_driver(self) -> OracleDriver:
        """The phase driver :meth:`run` hands every phase.  Variants with a
        different schedule or round accounting override this alone."""
        return OracleDriver(self.oracle, self.profile, rng=self.rng)

    # -- Theorem 1.1 ---------------------------------------------------------
    def run(self, graph: Graph, initial: Optional[Matching] = None) -> Matching:
        """Boost to a (1+eps)-approximate maximum matching of ``graph``."""
        # Honour the profile's backend selector (no-op when backend=None or
        # the input already matches; matchings transfer between
        # representations because vertex ids are preserved).
        graph = self.profile.resolve_graph(graph)
        matching = initial.copy() if initial is not None else self.initial_matching(graph)
        driver = self.make_driver()
        # the graph is fixed for the whole run: share the frozen derived
        # views (CSR / sorted neighbours) across its phases
        views = FrozenViews()
        for h in self.profile.scales:
            for _t in range(self.profile.phases(h)):
                self.counters.add("phases")
                records = run_phase(graph, matching, self.profile, h, driver,
                                    counters=self.counters,
                                    check_invariants=self.check_invariants,
                                    shared_views=views)
                gained = apply_augmentations(matching, records)
                self.counters.add("matching_gain", gained)
                if self.profile.early_exit and gained == 0:
                    break
        return matching


def boost_matching(graph: Graph, eps: float,
                   oracle: Optional[MatchingOracle] = None,
                   profile: Optional[ParameterProfile] = None,
                   counters: Optional[Counters] = None,
                   seed: Optional[int] = None,
                   check_invariants: bool = False) -> Matching:
    """Convenience wrapper: build a :class:`BoostingFramework` and run it."""
    framework = BoostingFramework(eps, oracle=oracle, profile=profile,
                                  counters=counters, seed=seed,
                                  check_invariants=check_invariants)
    return framework.run(graph)
