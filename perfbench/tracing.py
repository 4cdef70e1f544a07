"""Spans around the library's layer boundaries, recorded from outside ``src/``.

A :class:`Tracer` keeps, per span name, the call count, the busy (inclusive)
time and the self time (busy minus the time its child spans cover).  Spans
nest through an explicit stack, so the self times of all spans add up to the
time covered by root spans; whatever a run spends outside every root span is
its unattributed time.  Spans live in memory and are read once the run ends.

:func:`install_layer_spans` wraps the library's public functions and methods
by replacing module or class attributes for the duration of a traced pass
and restores them afterwards (:class:`Patches`).  Nothing under ``src/`` is
edited; an untraced run never installs any of it.

Operation attribution: between :meth:`Tracer.op_begin` and
:meth:`Tracer.op_end` the tracer also collects the self time each layer
spent inside that one operation, so a layer's share of the median or tail
operation can be read from the traced record.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Per-name span aggregation with self time and per-operation shares."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: per span name, how many calls ended with each named outcome
        self.outcomes: Dict[str, Counter] = {}
        #: time covered by root spans (the sum of every span's self time)
        self.root_ns = 0
        #: (latency_ns, {layer: self_ns}, key) for every completed operation;
        #: operations sharing a key are parts of one logical operation
        self.ops: List[Tuple[int, Dict[str, int], Optional[str]]] = []
        self._stack: List[list] = []
        self._op: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------- spans
    def _close(self, name: str, elapsed: int) -> None:
        _, child = self._stack.pop()
        own = elapsed - child
        self.calls[name] += 1
        self.busy_ns[name] += elapsed
        self.self_ns[name] += own
        if self._op is not None:
            self._op[name] = self._op.get(name, 0) + own
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self.root_ns += elapsed

    @contextmanager
    def span(self, name: str):
        self._stack.append([name, 0])
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, perf_counter_ns() - start)

    def wrap(self, fn: Callable, name: str,
             outcome: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span.  ``outcome(args, result, probe)`` may name
        the call's outcome, where ``probe`` is ``before(args)`` taken just
        before the call (``None`` without ``before``)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            probe = before(args) if before is not None else None
            self._stack.append([name, 0])
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter_ns() - start)
            if outcome is not None:
                label = outcome(args, result, probe)
                if label:
                    self.outcomes.setdefault(name, Counter())[label] += 1
            return result

        return traced

    def external(self, name: str, calls: int, elapsed_ns: int) -> None:
        """Account a root-level layer timed by the library itself."""
        if self._stack:
            raise RuntimeError(f"external span {name!r} inside {self._stack[-1][0]!r}")
        self.calls[name] += calls
        self.busy_ns[name] += elapsed_ns
        self.self_ns[name] += elapsed_ns
        self.root_ns += elapsed_ns

    def outcome_frac(self, name: str, label: str) -> float:
        calls = self.calls[name]
        return self.outcomes.get(name, Counter())[label] / calls if calls else 0.0

    # --------------------------------------------------------- operations
    def op_begin(self) -> None:
        self._op = {}

    def op_end(self, latency_ns: int, key: Optional[str] = None) -> None:
        if self._op is not None:
            self.ops.append((latency_ns, self._op, key))
        self._op = None

    def logical_ops(self) -> List[Tuple[int, Dict[str, int]]]:
        """Operations with the parts sharing a key merged into one."""
        merged: Dict[str, list] = {}
        out: List[Tuple[int, Dict[str, int]]] = []
        for latency, own, key in self.ops:
            if key is None:
                out.append((latency, own))
                continue
            total = merged.setdefault(key, [0, Counter()])
            total[0] += latency
            total[1].update(own)
        out.extend((latency, dict(own)) for latency, own in merged.values())
        return out


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``wrapper(current)``; ``current`` may be
        inherited from a base class."""
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _empty_result(args, result, probe):
    return "empty" if not result else None


def _matching_size(args):
    return args[0].current_matching().size


def _grew_matching(args, result, size_before):
    return "useful" if _matching_size(args) > size_before else None


def install_layer_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary the benchmark reports (see ``metric_map.json``).

    Names follow the repo's modules.  Solver entry points (``core.boost``,
    ``mpc.boost``, ``congest.boost``) and restores (``resilience.restore``)
    are spanned at the benchmark's own call sites; checkpoint time comes from
    ``RecoveryStats`` through :meth:`Tracer.external`.
    """
    import repro.congest.boost_congest as boost_congest
    import repro.core.boosting as boosting
    import repro.core.dynamic_boosting as dynamic_boosting
    from repro.congest.matching_congest import CongestMatchingOracle
    from repro.congest.simulator import CongestSimulator
    from repro.core.oracles import GreedyMatchingOracle
    from repro.dynamic.fully_dynamic import FullyDynamicMatching
    from repro.dynamic.weak_oracles import GreedyInducedWeakOracle
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.mpc.matching_mpc import MPCMatchingOracle
    from repro.mpc.simulator import MPCSimulator

    def span(name, outcome=None, before=None):
        return lambda fn: tracer.wrap(fn, name, outcome, before)

    # run_phase is imported by name into every framework module
    for module in (boosting, dynamic_boosting, boost_congest):
        patches.wrap(module, "run_phase", span("core.phase"))
    patches.wrap(GreedyMatchingOracle, "find_matching",
                 span("core.oracle", _empty_result))
    patches.wrap(MPCMatchingOracle, "find_matching", span("mpc.oracle"))
    patches.wrap(MPCSimulator, "round", span("mpc.round"))
    patches.wrap(CongestMatchingOracle, "find_matching", span("congest.oracle"))
    patches.wrap(CongestSimulator, "round", span("congest.round"))
    for attr in ("query", "query_bipartite"):
        patches.wrap(GreedyInducedWeakOracle, attr,
                     span("core.weak_oracle", _empty_result))
    patches.wrap(FullyDynamicMatching, "update", span("dynamic.update"))
    patches.wrap(FullyDynamicMatching, "rebuild",
                 span("dynamic.rebuild", _grew_matching, _matching_size))
    patches.wrap(DynamicGraph, "apply", span("graph.apply"))
