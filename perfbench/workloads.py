"""The three benchmark workloads, driven through the library's public API.

Every workload has a ``setup(seed)`` that builds its inputs from the seed
alone (the library receives only the generated inputs) and a
``run_pass(state, tracer)`` that performs the timed work once and returns a
:class:`PassResult`.  All of them use the library defaults: ``adjset``
graphs, ``engine="array"``, ``repair="rebuild"`` and
``ParameterProfile.practical``.

Correctness checks (``is_valid_matching`` and the ratio to a blossom
optimum) run outside the timed region: their time is measured and taken off
the pass wall time.  A failed check counts as a failed operation; it never
stops the run.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional

from repro.congest.boost_congest import congest_boosted_matching
from repro.core.boosting import boost_matching
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.generators import disjoint_paths, erdos_renyi
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.matching.blossom import maximum_matching_size
from repro.matching.verify import is_valid_matching
from repro.mpc.boost_mpc import mpc_boosted_matching
from repro.resilience import FaultPlan
from repro.resilience.harness import run_with_recovery
from repro.workloads.sources import planted_matching_churn
from repro.workloads.trace import Trace

from tracing import Patches, Tracer, install_layer_spans


@dataclass
class PassResult:
    """What one timed pass of a workload produced."""

    #: timed wall time of the pass, checks excluded
    wall_ns: int = 0
    #: latency of every operation the user waits on
    op_ns: List[int] = field(default_factory=list)
    #: operations counted by ops_per_s (dynamic: first-time updates only)
    first_ops: int = 0
    #: the paper's cost count per operation
    work_per_op: float = 0.0
    #: deterministic counts: identical for every pass of one seed
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    worst_ratio: float = 1.0
    failures: List[str] = field(default_factory=list)
    #: layer figures the library times or sizes itself
    checkpoint_bytes: int = 0

    def check(self, graph: Graph, matching, optimum: int, eps: float,
              where: str) -> None:
        """Validate one returned matching and its ratio to the optimum."""
        ok = is_valid_matching(graph, matching)
        if not ok:
            self.failures.append(f"{where}: not a valid matching")
        elif optimum > 0:
            if matching.size == 0:
                ok = False
                self.failures.append(f"{where}: empty matching, optimum {optimum}")
            else:
                ratio = optimum / matching.size
                self.worst_ratio = max(self.worst_ratio, ratio)
                if ratio > 1 + eps:
                    ok = False
                    self.failures.append(
                        f"{where}: ratio {ratio:.4f} above 1+eps={1 + eps:.4f}")
        if not ok:
            self.failed += 1


class UpdateTimer:
    """Times every ``FullyDynamicMatching.update`` call while installed.

    Installed in untraced and traced passes alike: it is how update latency
    is measured when the updates are issued by the recovery harness.  The
    optional ``after`` hook runs outside the measured latency; its time is
    collected in ``pause_ns``.
    """

    def __init__(self, tracer: Optional[Tracer], after=None) -> None:
        self.tracer = tracer
        self.after = after
        self.latencies: List[int] = []
        self.pause_ns = 0

    def install(self, patches: Patches) -> None:
        patches.wrap(FullyDynamicMatching, "update", self._wrap)

    def _wrap(self, update):
        latencies, tracer, after = self.latencies, self.tracer, self.after

        def timed(alg, upd):
            if tracer is not None:
                tracer.op_begin()
            start = perf_counter_ns()
            try:
                return update(alg, upd)
            finally:
                elapsed = perf_counter_ns() - start
                latencies.append(elapsed)
                if tracer is not None:
                    tracer.op_end(elapsed)
                if after is not None:
                    paused = perf_counter_ns()
                    after(alg)
                    self.pause_ns += perf_counter_ns() - paused

        return timed


def _instrument(tracer: Optional[Tracer]) -> Patches:
    patches = Patches()
    if tracer is not None:
        install_layer_spans(tracer, patches)
    return patches


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# static_boost
# ---------------------------------------------------------------------------

class StaticBoost:
    """A batch of sparse graphs, each solved by the three boosted solvers.

    One operation is one solver's work over the whole batch, so a pass has
    three operations: greedy, MPC and CONGEST.  Single small graphs differ
    too much in solve time for one of them to be a steady sample; a batch
    sums over many.  The solvers take turns graph by graph, so each
    operation's time is spread over the whole pass rather than one stretch
    of it.
    """

    name = "static_boost"
    params = {"graphs": 360, "er_n": 15, "er_avg_degree": 3.0,
              "planted_paths": 1, "path_len": 21, "eps": 1 / 8}

    def setup(self, seed: int):
        p = self.params
        _warm_up_static(p["eps"])
        rng = random.Random(seed)
        batch = []
        for _ in range(p["graphs"]):
            graph_seed = rng.randrange(2 ** 31)
            er = erdos_renyi(p["er_n"], p["er_avg_degree"] / p["er_n"],
                             seed=graph_seed)
            paths = disjoint_paths(p["planted_paths"], p["path_len"])
            graph = Graph(er.n + paths.n)
            graph.add_edges(er.edges())
            graph.add_edges((er.n + u, er.n + v) for u, v in paths.edges())
            batch.append((graph, graph_seed, maximum_matching_size(graph)))
        return batch

    def run_pass(self, batch, tracer: Optional[Tracer]) -> PassResult:
        eps = self.params["eps"]
        out = PassResult()
        batch_ns = {span: 0 for span, _ in _SOLVERS}
        totals = {span: Counters() for span, _ in _SOLVERS}
        patches = _instrument(tracer)
        pause = 0
        start = perf_counter_ns()
        try:
            for index, (graph, graph_seed, optimum) in enumerate(batch):
                for span, solve in _SOLVERS:
                    counters = Counters()
                    if tracer is not None:
                        tracer.op_begin()
                    began = perf_counter_ns()
                    with _span(tracer, span):
                        matching = solve(graph, eps, counters, graph_seed)
                    elapsed = perf_counter_ns() - began
                    batch_ns[span] += elapsed
                    if tracer is not None:
                        tracer.op_end(elapsed, key=span)
                    paused = perf_counter_ns()
                    totals[span].merge(counters)
                    out.attempted += 1
                    out.check(graph, matching, optimum, eps,
                              f"{span} graph {index}")
                    pause += perf_counter_ns() - paused
        finally:
            out.wall_ns = perf_counter_ns() - start - pause
            patches.undo()
        out.op_ns = list(batch_ns.values())
        out.first_ops = len(out.op_ns)
        for span, bag in totals.items():
            for key in _STATIC_COUNTS:
                if bag.get(key):
                    out.counts[f"{span}.{key}"] = bag.get(key)
        oracle_calls = sum(bag.get("oracle_calls") for bag in totals.values())
        out.work_per_op = oracle_calls / len(out.op_ns)
        return out


def _solve_greedy(graph, eps, counters, seed):
    return boost_matching(graph, eps, counters=counters, seed=seed)


def _solve_mpc(graph, eps, counters, seed):
    return mpc_boosted_matching(graph, eps, counters=counters, seed=seed)[0]


def _solve_congest(graph, eps, counters, seed):
    return congest_boosted_matching(graph, eps, counters=counters, seed=seed)[0]


#: span name of each solver's entry point, in the order a pass runs them
_SOLVERS = (("core.boost", _solve_greedy), ("mpc.boost", _solve_mpc),
            ("congest.boost", _solve_congest))

_STATIC_COUNTS = ("oracle_calls", "phases", "matching_gain", "mpc_total_rounds",
                  "mpc_messages", "congest_rounds", "congest_messages")


def _warm_up_static(eps: float) -> None:
    """Imports and lazy NumPy initialisation: one tiny solve per solver."""
    tiny = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for _, solve in _SOLVERS:
        solve(tiny, eps, Counters(), 0)


# ---------------------------------------------------------------------------
# churn_recover
# ---------------------------------------------------------------------------

class ChurnRecover:
    """A batch of planted-matching churn streams, each replayed under two
    pinned crashes.

    The streams are recorded in set-up.  A pass replays each one through
    ``run_with_recovery`` with an on-disk checkpoint every
    ``checkpoint_every`` updates; the fault plan kills that stream's
    maintainer at one third and two thirds of it, and each crash is restored
    from disk.  Every checkpoint position (and the end) is checked against a
    blossom optimum computed in set-up, on the state the position was last
    left in.

    With fewer than 64 pairs the rebuild threshold ``int(eps/8 * |M|)``
    stays 0, so every update rebuilds and the median update is a rebuild.
    At 100 pairs about half the updates rebuild, and the median falls on the
    edge between the two populations.  How much a rebuild costs depends on
    the noise edges of the one graph a stream churns, so one seed's figures
    are steady only over a batch of streams.
    """

    name = "churn_recover"
    params = {"streams": 8, "pairs": 60, "rounds": 16, "churn_fraction": 0.25,
              "noise_prob": 0.02, "eps": 1 / 4, "checkpoint_every": 50}

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    def setup(self, seed: int):
        _warm_up_dynamic(self.params["eps"], self.work_dir)
        rng = random.Random(seed)
        return [self._record(rng.randrange(2 ** 31))
                for _ in range(self.params["streams"])]

    def _record(self, seed: int):
        p = self.params
        trace = Trace.record(planted_matching_churn(
            p["pairs"], rounds=p["rounds"], churn_fraction=p["churn_fraction"],
            noise_prob=p["noise_prob"], seed=seed))
        every = p["checkpoint_every"]
        positions = set(range(every, len(trace) + 1, every)) | {len(trace)}
        graph = DynamicGraph(trace.n)
        checkpoints = {}
        for index, upd in enumerate(trace.stream(), start=1):
            graph.apply(upd)
            if index in positions:
                snapshot = Graph(trace.n, graph.graph.edge_list())
                checkpoints[index] = (snapshot, maximum_matching_size(snapshot))
        return {"seed": seed, "trace": trace, "checkpoints": checkpoints}

    def run_pass(self, streams, tracer: Optional[Tracer]) -> PassResult:
        p = self.params
        watched = {"checkpoints": {}, "seen": {}}

        def remember(alg):
            position = alg.dynamic_graph.num_updates
            if position in watched["checkpoints"]:
                watched["seen"][position] = alg.current_matching().copy()

        timer = UpdateTimer(tracer, after=remember)
        restores = _RestoreSpan(tracer)
        path = os.path.join(self.work_dir, "checkpoint.npz")
        out = PassResult()
        counts: Counter = Counter()
        patches = _instrument(tracer)
        timer.install(patches)
        pause = 0
        start = perf_counter_ns()
        try:
            for number, stream in enumerate(streams):
                trace, checkpoints = stream["trace"], stream["checkpoints"]
                length = len(trace)
                seen = {}
                watched.update(checkpoints=checkpoints, seen=seen)
                alg = FullyDynamicMatching(trace.n, p["eps"], seed=stream["seed"])
                plan = FaultPlan(seed=stream["seed"],
                                 crash_updates=(length // 3, 2 * length // 3))
                alg, stats = run_with_recovery(
                    alg, trace, plan=plan,
                    checkpoint_every=p["checkpoint_every"],
                    checkpoint_path=path, recorder=restores)
                paused = perf_counter_ns()
                if tracer is not None:
                    tracer.external("resilience.checkpoint", stats.checkpoints,
                                    stats.checkpoint_ns)
                out.checkpoint_bytes = os.path.getsize(path)
                out.first_ops += length
                out.attempted += length
                for position in sorted(checkpoints):
                    graph, optimum = checkpoints[position]
                    where = f"stream {number} update {position}"
                    if position in seen:
                        out.check(graph, seen[position], optimum, p["eps"], where)
                    else:
                        out.failed += 1
                        out.failures.append(f"{where}: never reached")
                if stats.crashes != 2 or stats.restores != 2:
                    out.failed += 1
                    out.failures.append(
                        f"stream {number}: expected 2 crashes and restores, "
                        f"got {stats.crashes}/{stats.restores}")
                counts.update(_dynamic_counts(alg.counters))
                counts.update({"crashes": stats.crashes,
                               "restores": stats.restores,
                               "checkpoints": stats.checkpoints,
                               "replayed_updates": stats.replayed_updates,
                               "final_matching": alg.current_matching().size})
                pause += perf_counter_ns() - paused
        finally:
            out.wall_ns = perf_counter_ns() - start - pause - timer.pause_ns
            patches.undo()
        out.op_ns = timer.latencies
        out.counts = dict(counts)
        out.work_per_op = counts["update_work"] / counts["dyn_updates"]
        return out


class _RestoreSpan:
    """The recovery harness's ``recorder``: spans each restore (checkpoint
    load plus maintainer reconstruction)."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer

    def measure(self, fn):
        with _span(self.tracer, "resilience.restore"):
            return fn()


def _dynamic_counts(counters: Counters) -> Dict[str, float]:
    return {key: counters.get(key) for key in
            ("dyn_updates", "update_work", "dyn_rebuilds", "weak_oracle_calls",
             "phases", "matching_gain")}


def _warm_up_dynamic(eps: float, work_dir: str) -> None:
    """One tiny maintainer run with a crash, a disk checkpoint and a restore."""
    tiny = [Update.insert(0, 1), Update.insert(2, 3), Update.delete(0, 1),
            Update.insert(1, 2), Update.insert(0, 1), Update.delete(2, 3)]
    run_with_recovery(FullyDynamicMatching(4, eps, seed=0), tiny,
                      plan=FaultPlan(seed=0, crash_updates=(4,)),
                      checkpoint_every=2,
                      checkpoint_path=os.path.join(work_dir, "warm_up.npz"))


# ---------------------------------------------------------------------------
# update_latency
# ---------------------------------------------------------------------------

class UpdateLatency:
    """Delete/reinsert churn on a large planted perfect matching.

    Set-up loads the pairs edge by edge, certifies the optimum by blossom and
    takes one cold rebuild; the rebuild gap is then pinned through
    ``rebuild_slack`` so a fixed share of updates rebuild.  The graph is
    always a subgraph of the planted matching, so its optimum at a check
    point is its edge count.
    """

    name = "update_latency"
    params = {"pairs": 50_000, "timed_updates": 5_000, "rebuild_gap": 24,
              "eps": 1 / 4, "check_every": 500}

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    def setup(self, seed: int):
        p = self.params
        _warm_up_dynamic(p["eps"], self.work_dir)
        pairs, eps = p["pairs"], p["eps"]
        # load with a huge slack so no rebuild fires while the pairs arrive
        alg = FullyDynamicMatching(2 * pairs, eps, seed=seed,
                                   rebuild_slack=1e9)
        for i in range(pairs):
            alg.insert(2 * i, 2 * i + 1)
        optimum = maximum_matching_size(alg.graph)
        # int((gap + 0.5) / (eps * pairs) * eps * |M|) == gap at |M| == pairs
        alg.rebuild_slack = (p["rebuild_gap"] + 0.5) / (eps * pairs)
        alg.rebuild()
        rng = random.Random(seed)
        updates = []
        for _ in range(p["timed_updates"] // 2):
            i = rng.randrange(pairs)
            updates.append(Update.delete(2 * i, 2 * i + 1))
            updates.append(Update.insert(2 * i, 2 * i + 1))
        return {"alg": alg, "updates": updates, "optimum": optimum}

    def run_pass(self, state, tracer: Optional[Tracer]) -> PassResult:
        p = self.params
        alg, updates = state.pop("alg"), state["updates"]
        out = PassResult()
        if state["optimum"] != p["pairs"]:
            out.failed += 1
            out.failures.append(f"blossom optimum {state['optimum']} != "
                                f"{p['pairs']} planted pairs")
        before = _dynamic_counts(alg.counters)
        timer = UpdateTimer(tracer)
        patches = _instrument(tracer)
        timer.install(patches)
        pause = 0
        start = perf_counter_ns()
        try:
            for index, upd in enumerate(updates, start=1):
                alg.update(upd)
                if index % p["check_every"] == 0 or index == len(updates):
                    paused = perf_counter_ns()
                    out.check(alg.graph, alg.current_matching(), alg.graph.m,
                              p["eps"], f"update {index}")
                    pause += perf_counter_ns() - paused
        finally:
            out.wall_ns = perf_counter_ns() - start - pause
            patches.undo()
        out.op_ns = timer.latencies
        out.first_ops = out.attempted = len(updates)
        after = _dynamic_counts(alg.counters)
        out.counts = {key: after[key] - before[key] for key in after}
        out.counts["final_matching"] = alg.current_matching().size
        out.work_per_op = out.counts["update_work"] / out.counts["dyn_updates"]
        return out


def make_workloads(work_dir: str):
    return {w.name: w for w in (StaticBoost(), ChurnRecover(work_dir),
                                UpdateLatency(work_dir))}
