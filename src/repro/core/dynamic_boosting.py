"""The weak-oracle boosting framework of Section 6 (Theorem 6.2).

The static framework of Section 5 needs a matching oracle for *adaptively
derived* graphs (``H'``, ``H'_s``).  A dynamic-matching data structure can only
afford a much weaker oracle ``Aweak`` (Definition 6.1): given a vertex subset
``S`` of the *fixed* graph ``G``, it returns a Theta(1)-approximate matching of
``G[S]`` provided ``G[S]`` has a large matching.

Section 6 shows the simulation still goes through by *sampling* one vertex per
structure and invoking ``Aweak`` on the sampled set:

* ``Contract-and-Augment`` (Section 6.5): sample one outer vertex per
  structure; any edge of ``G[S]`` then connects outer vertices of two distinct
  structures, i.e. is a type-2 arc, and each returned matched edge yields an
  ``Augment``.
* ``Extend-Active-Path`` (Section 6.6): per stage ``s``, first perform the
  in-structure s-feasible overtakes directly (Invariant 6.10), then repeatedly
  sample one vertex per structure and query the bipartite double cover
  ``B[S]`` so that returned edges are outer-to-inner, i.e. type-3 arcs, and
  each yields an ``Overtake``.

Deviation from the paper: unvisited matched vertices belong to no
structure, so sampling "one per structure" never proposes them; we add the
inner copies of all unvisited matched vertices to the query set, which only
enlarges the preserved subgraph and keeps the oracle calls intact.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.boosting import stage_right_vertices
from repro.core.oracles import CountingWeakOracle, WeakOracle, ensure_counting_weak
from repro.core.operations import apply_augmentations, augment_op, overtake_op
from repro.core.phase import contract_pass, run_phase
from repro.core.structures import FrozenViews, PhaseState, Structure

Edge = Tuple[int, int]


class SamplingOracleDriver:
    """Phase driver that simulates the streaming passes with ``Aweak`` sampling."""

    def __init__(self, weak_oracle: WeakOracle, profile: ParameterProfile,
                 rng: Optional[random.Random] = None,
                 sampling_rounds: int = 4,
                 patience: int = 3) -> None:
        self.weak_oracle = weak_oracle
        self.profile = profile
        self.rng = rng if rng is not None else random.Random(0)
        # The paper uses Theta(1/(lambda * delta)) sampling iterations; we run
        # ``sampling_rounds`` times the deterministic iteration count and stop
        # early after ``patience`` consecutive unproductive samples.
        self.iterations = max(1, sampling_rounds * profile.sim_iterations)
        self.patience = patience

    # -- sampling helpers ----------------------------------------------------
    # Every sampling round makes one bounded draw per non-empty structure, in
    # structure-dict order, whether or not the sample is then used (the RNG
    # contract in ARCHITECTURE.md).  The draw is CPython's
    # ``_randbelow_with_getrandbits`` inlined -- ``k = n.bit_length()`` bits,
    # redrawn while ``>= n`` -- so it consumes exactly the stream
    # ``random.choice`` would, at one C call per accepted draw, and the
    # memoised per-structure vertex lists are read without a method call.
    # Both samplers iterate the live dict view: sampling never mutates the
    # structure set.
    def _sample_outer_per_structure(self, state: PhaseState) -> List[int]:
        getrandbits = self.rng.getrandbits
        sampled = []
        for structure in state.structures.values():
            outs = structure._outer_cache or structure.outer_vertices()
            n = len(outs)
            if n:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                sampled.append(outs[r])
        return sampled

    # -- Section 6.6 ---------------------------------------------------------
    def extend_active_path(self, state: PhaseState) -> None:
        stages = self.profile.stages()
        state.counters.add("stages", len(stages))
        eligible = state.eligible_stages()
        for stage in stages:
            if stage not in eligible:
                continue
            overtook = self._in_structure_overtakes(state, stage)
            misses = 0
            for _it in range(self.iterations):
                left, right = self._stage_sample(state, stage)
                if not left or not right:
                    break
                state.counters.add("iterations")
                result = self.weak_oracle.query_bipartite(left, right,
                                                          self.profile.delta)
                performed = 0
                if result:
                    left_set = set(left)
                    for x, y in result:
                        # orient the arc: x must be the outer/working endpoint
                        if x not in left_set:
                            x, y = y, x
                        nu = state.omega(x)
                        if (state.arc_type(x, y) == 3 and nu is not None
                                and state.distance(nu) == stage):
                            overtake_op(state, x, y, stage + 1)
                            performed += 1
                if performed == 0:
                    misses += 1
                    if misses >= self.patience:
                        break
                else:
                    misses = 0
                    overtook = True
            if overtook:
                eligible = state.eligible_stages()

    def _in_structure_overtakes(self, state: PhaseState, stage: int) -> bool:
        """Maintain Invariant 6.10: no s-feasible arc stays inside a structure.

        Returns whether any overtake was performed.
        """
        overtook = False
        for structure in state.live_structures():
            if not state.eligible_working(structure, stage):
                continue
            w = structure.working
            done = False
            for x in list(w.vertices):
                if done:
                    break
                for y in state.sorted_neighbors(x):
                    node_y = state.omega(y)
                    if (node_y is not None and node_y.structure is structure
                            and state.arc_type(x, y) == 3):
                        overtake_op(state, x, y, stage + 1)
                        state.counters.add("in_structure_overtakes")
                        done = overtook = True
                        break
        return overtook

    def _stage_sample(self, state: PhaseState, stage: int) -> Tuple[List[int], List[int]]:
        """Build the sampled query sets (outer side, inner side) for a stage.

        One pass draws a vertex per structure and sorts it: an outer vertex
        that is its structure's eligible working vertex goes left, an inner
        vertex whose label exceeds ``stage + 1`` goes right, anything else
        is dropped (its draw still counts).
        """
        getrandbits = self.rng.getrandbits
        node_of = state.node_of
        vlabel = state.vlabel
        left: List[int] = []
        right: List[int] = []
        for structure in state.structures.values():
            verts = structure._sorted_cache or structure.sorted_vertices()
            n = len(verts)
            if not n:
                continue
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            v = verts[r]
            node = node_of[v]
            if node is None:
                continue
            if node.outer:
                # PhaseState.eligible_working inlined for the working vertex
                owner = node.structure
                if (owner.working is node and not owner.on_hold
                        and not owner.extended):
                    parent = node.parent
                    if (stage == 0 if parent is None
                            else vlabel[parent.vertices[0]] == stage):
                        left.append(v)
            elif vlabel[v] > stage + 1:
                right.append(v)
        if not left:
            # the caller stops on an empty side; don't pay for the other one
            return left, []
        # unvisited matched vertices are not covered by per-structure
        # sampling; pull them in one bulk mask pass over the vertex arrays
        right.extend(stage_right_vertices(state, stage, unvisited_only=True))
        return left, right

    # -- Section 6.5 ---------------------------------------------------------
    def contract_and_augment(self, state: PhaseState) -> None:
        contract_pass(state)
        misses = 0
        for _it in range(self.iterations):
            sampled = self._sample_outer_per_structure(state)
            if len(sampled) < 2:
                break
            state.counters.add("iterations")
            result = self.weak_oracle.query(sampled, self.profile.delta)
            performed = 0
            if result:
                for u, v in result:
                    if state.arc_type(u, v) == 2:
                        augment_op(state, u, v)
                        performed += 1
                    elif state.arc_type(v, u) == 2:
                        augment_op(state, v, u)
                        performed += 1
            if performed == 0:
                misses += 1
                if misses >= self.patience:
                    break
            else:
                misses = 0
        contract_pass(state)


class WeakOracleBoostingFramework:
    """The Section 6 framework: (1+eps)-approximation from ``Aweak`` only.

    Parameters mirror :class:`~repro.core.boosting.BoostingFramework`; the
    oracle is a :class:`~repro.core.oracles.WeakOracle` bound to the input
    graph.  ``weak_oracle_calls`` accumulates the Theorem 6.2 quantity.
    """

    def __init__(self, eps: float, weak_oracle: WeakOracle,
                 profile: Optional[ParameterProfile] = None,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None,
                 sampling_rounds: int = 4,
                 check_invariants: bool = False) -> None:
        self.counters = counters if counters is not None else Counters()
        self.weak_oracle: CountingWeakOracle = ensure_counting_weak(
            weak_oracle, self.counters)
        self.profile = profile if profile is not None else ParameterProfile.practical(eps)
        self.eps = self.profile.eps
        self.rng = random.Random(seed)
        self.sampling_rounds = sampling_rounds
        self.check_invariants = check_invariants

    # -- Lemma 6.7 -----------------------------------------------------------
    def initial_matching(self, graph: Graph) -> Matching:
        """Iterated ``Aweak`` peeling yields a Theta(1)-approximate matching."""
        matching = Matching(graph.n)
        # at most ~1/(lambda*delta) productive iterations; cap generously
        max_rounds = max(4, 4 * self.profile.sim_iterations)
        for _ in range(max_rounds):
            free = matching.free_vertices()
            if len(free) < 2:
                break
            result = self.weak_oracle.query(free, self.profile.delta)
            if not result:
                break
            added = 0
            for u, v in result:
                if matching.is_free(u) and matching.is_free(v):
                    matching.add(u, v)
                    added += 1
            if added == 0:
                break
        return matching

    # -- Theorem 6.2 ---------------------------------------------------------
    def run(self, graph: Graph, initial: Optional[Matching] = None,
            warm_start: bool = False, context=None) -> Matching:
        """Compute a (1+eps)-approximate maximum matching of ``graph``.

        ``warm_start`` declares that ``initial`` is already (1+O(eps))-close
        to optimal -- the dynamic maintainers guarantee exactly that by the
        stability argument (at most ``eps/8 * |M|`` updates since the last
        rebuild).  The coarse scales of Algorithm 1 exist to erase large
        deficits, which a warm start cannot have, so the run short-circuits
        to the last two scales.  Like a cold run it walks
        :meth:`~repro.core.config.ParameterProfile.schedule` over them: when
        both scales run the same phase (the structure-size limit exceeds
        ``graph.n`` and the practical caps bind) they merge into one entry
        with both phase budgets, so two empty phases end the whole rebuild.

        ``context`` (a :class:`~repro.core.repair.RepairContext`) enables
        incremental repair: ``initial`` must be the context's mirrored
        matching and is augmented *in place* (no copy), and every phase
        borrows the context's persistent state.  Byte-identical to a
        context-free run -- see ``repro.core.repair``.
        """
        if self.weak_oracle.graph is not graph:
            # Definition 6.1 binds the oracle to a fixed graph; verify the
            # caller handed the matching one (same object identity).
            raise ValueError("the weak oracle must be bound to the input graph")
        if context is not None:
            if initial is None or initial is not context.matching:
                raise ValueError("incremental repair must run on the "
                                 "RepairContext's mirrored matching")
            matching = initial
        else:
            matching = (initial.copy() if initial is not None
                        else self.initial_matching(graph))
        driver = SamplingOracleDriver(self.weak_oracle, self.profile,
                                      rng=self.rng,
                                      sampling_rounds=self.sampling_rounds)
        scales = None
        if warm_start and initial is not None and initial.size > 0:
            scales = self.profile.scales[-2:]
            self.counters.add("warm_rebuilds")
        # the graph is fixed for the whole rebuild: share the frozen derived
        # views across its phases (run_phase ignores this under ``context``,
        # whose patched copies already persist between phases)
        views = FrozenViews() if context is None else None
        for h, budget in self.profile.schedule(graph.n, scales):
            stagnant = 0
            for _t in range(budget):
                self.counters.add("phases")
                records = run_phase(graph, matching, self.profile, h, driver,
                                    counters=self.counters,
                                    check_invariants=self.check_invariants,
                                    context=context, shared_views=views)
                gained = apply_augmentations(matching, records)
                self.counters.add("matching_gain", gained)
                if self.profile.early_exit:
                    stagnant = stagnant + 1 if gained == 0 else 0
                    # sampling is randomised, so allow one unproductive retry
                    if stagnant >= 2:
                        break
        return matching


def boost_matching_weak(graph: Graph, eps: float, weak_oracle: WeakOracle,
                        profile: Optional[ParameterProfile] = None,
                        counters: Optional[Counters] = None,
                        seed: Optional[int] = None,
                        sampling_rounds: int = 4,
                        check_invariants: bool = False) -> Matching:
    """Convenience wrapper around :class:`WeakOracleBoostingFramework`."""
    framework = WeakOracleBoostingFramework(
        eps, weak_oracle, profile=profile, counters=counters, seed=seed,
        sampling_rounds=sampling_rounds, check_invariants=check_invariants)
    return framework.run(graph)
