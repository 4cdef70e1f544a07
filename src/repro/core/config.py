"""Parameter schedules for the framework.

The paper's algorithm is organised as

    scales h = 1/2, 1/4, ..., eps^2/64          (Algorithm 1, line 2)
      phases t = 1 .. 144/(h*eps)               (Algorithm 1, line 3)
        pass-bundles tau = 1 .. 72/(h*eps)      (Algorithm 2, line 5)
          [oracle mode] stages s = 0 .. l_max,  (Algorithm 5)
            iterations   1 .. 22*c*ln(1/eps)    (Algorithms 4 and 5)

with l_max = 3/eps, structure-size limit limit_h = 6/h + 1 and the structure
size bound Delta_h = 36 h / eps (Lemma 4.5).

Those constants are proof artefacts: they are chosen so that union bounds and
negligibility arguments close, and they are wildly conservative (the paper
itself notes that e.g. delta = eps^107 "can be greatly reduced by a more
careful analysis", Remark 3).  Executing the literal schedule on any graph a
Python process can hold would perform astronomically many no-op passes.

:class:`ParameterProfile` therefore exposes two constructors:

* :meth:`ParameterProfile.paper` -- the literal formulas, for inspection and
  for the invocation-count *accounting* reported in the Table 1 benchmark;
* :meth:`ParameterProfile.practical` -- the same schedule *shape* with small
  multiplicative constants and early-exit enabled, used for actually running
  the algorithms.  All approximation-quality tests run against this profile
  and verify the output empirically against the exact optimum.

Every scale loop (the static framework, the weak-oracle framework and the
semi-streaming algorithm) walks :meth:`ParameterProfile.schedule` rather than
the raw scales.  At scale ``h`` a phase depends on ``h`` only through
``structure_limit(h)`` and ``pass_bundles(h)``; once the limit exceeds the
vertex count and both practical caps bind, every finer scale would re-run the
same phase.  ``schedule(n)`` merges each such run of scales into one entry
whose phase budget is the run's total, so an early exit ends the whole run
instead of retrying the phase at each finer scale.  The ``paper`` profile has
no early exit; its schedule is the literal one, so the Theorem 1.1 accounting
is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


#: accepted values of :attr:`ParameterProfile.engine`
ENGINES = ("array", "reference")
#: accepted values of :attr:`ParameterProfile.repair`
REPAIR_MODES = ("rebuild", "incremental")


#: smallest accepted eps: labels up to ``l_max + 1 = 3/eps + 1`` are stored
#: in int64 arrays, and ``3 * 2**61 + 1`` is the last such value that fits
MIN_EPS = 2.0 ** -61


def _next_power_of_two_inverse(eps: float) -> float:
    """Round eps down so that 1/eps is a power of two (Section 3 assumption)."""
    if not 0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 0.5], got {eps}")
    if eps < MIN_EPS:
        raise ValueError(f"eps must be at least 2**-61 = {MIN_EPS!r} so that "
                         f"l_max + 1 = 3/eps + 1 fits int64, got {eps}")
    k = math.ceil(math.log2(1.0 / eps))
    return 1.0 / (2 ** k)


@dataclass(frozen=True)
class ParameterProfile:
    """A concrete parameter schedule.

    Attributes
    ----------
    eps:
        Target approximation parameter (possibly rounded so 1/eps is a power
        of two).
    ell_max:
        Maximum label / structure depth, ``3/eps`` in the paper.
    scales:
        The list of scales ``h`` (decreasing powers of two).
    phase_factor, bundle_factor:
        ``phases(h) = ceil(phase_factor / (h * eps))`` and similarly for
        pass-bundles; the paper uses 144 and 72.
    sim_iterations:
        Iterations per simulated procedure (Algorithms 4/5); the paper uses
        ``22 c ln(1/eps)``.
    limit_factor:
        ``limit_h = limit_factor / h + 1`` (paper: 6).
    delta:
        The ``delta`` handed to the weak oracle in Section 6 (paper: eps^107;
        practical: Theta(eps)).
    early_exit:
        Allow skipping the remainder of a scale once a phase finds no
        augmentation (sound: phases are deterministic restarts, so an
        unproductive phase would repeat forever), and merge runs of scales
        that repeat the same phase (:meth:`schedule`).
    max_phase_cap, max_bundle_cap:
        Hard caps to keep practical runs bounded.
    backend:
        Graph storage backend the static frameworks should run on (a name
        from :data:`repro.graph.backends.BACKENDS`), or ``None`` (default) to
        keep whatever backend the input graph already uses.  When set,
        :func:`~repro.core.streaming.semi_streaming_matching` and
        :class:`~repro.core.boosting.BoostingFramework` convert their input
        once at entry (via :meth:`resolve_graph`); ``"csr"`` enables the
        vectorized NumPy fast paths regardless of how the input was built.
        The weak-oracle/dynamic frameworks ignore this field: their oracles
        are *bound* to a live graph object that is mutated in place, so the
        backend must be chosen when that graph (or :class:`DynamicGraph`) is
        constructed.
    """

    eps: float
    ell_max: int
    scales: List[float]
    phase_factor: float
    bundle_factor: float
    sim_iterations: int
    limit_factor: float
    delta: float
    early_exit: bool = True
    max_phase_cap: int = 10 ** 9
    max_bundle_cap: int = 10 ** 9
    oracle_c: float = 2.0
    backend: Optional[str] = None
    #: phase-engine selector, one of :data:`ENGINES`: ``"array"``
    #: (vectorized candidate generation, the default) or ``"reference"``
    #: (the scalar path, kept as the parity suite's oracle; also the
    #: fallback when NumPy is missing).  Both engines are byte-identical --
    #: same matchings, same counters, same rng stream.
    engine: str = "array"
    #: epoch-repair selector for the dynamic maintainers, one of
    #: :data:`REPAIR_MODES`: ``"rebuild"`` (the default -- every epoch
    #: boundary reconstructs the per-phase state from scratch) or
    #: ``"incremental"`` (reuse a persistent
    #: :class:`~repro.core.repair.RepairContext` so a rebuild touches only
    #: the state the updates since the previous rebuild actually dirtied).
    #: Both modes execute the identical algorithm and are byte-identical --
    #: same matchings, same counters, same rng stream -- which the repair
    #: parity suite pins, mirroring the ``engine`` seam.
    repair: str = "rebuild"
    #: incremental-repair fallback threshold: when more than this many
    #: distinct edges changed since the frozen-graph views were last synced,
    #: the :class:`~repro.core.repair.RepairContext` recompiles them
    #: wholesale instead of patching (patching is O(m + k) per sync; past
    #: this point the wholesale O(m log m) rebuild is cheaper and simpler)
    repair_patch_cap: int = 2048

    def __post_init__(self) -> None:
        # reject a bad selector here, before any maintainer holds the
        # profile: the phase that would notice it runs mid-update
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, "
                             f"got {self.engine!r}")
        if self.repair not in REPAIR_MODES:
            raise ValueError(f"repair mode must be one of {REPAIR_MODES}, "
                             f"got {self.repair!r}")

    # ------------------------------------------------------------ constructors
    @classmethod
    def paper(cls, eps: float, c: float = 2.0,
              backend: Optional[str] = None) -> "ParameterProfile":
        """The literal schedule of the paper (use for accounting, not running)."""
        eps = _next_power_of_two_inverse(eps)
        ell_max = max(1, int(round(3.0 / eps)))
        scales = cls._scales(eps)
        sim_iters = max(1, int(math.ceil(22 * c * math.log(1.0 / eps))))
        return cls(
            eps=eps,
            ell_max=ell_max,
            scales=scales,
            phase_factor=144.0,
            bundle_factor=72.0,
            sim_iterations=sim_iters,
            limit_factor=6.0,
            delta=eps ** 107,
            early_exit=False,
            oracle_c=c,
            backend=backend,
        )

    @classmethod
    def practical(cls, eps: float, c: float = 2.0,
                  max_phase_cap: int = 64, max_bundle_cap: int = 256,
                  backend: Optional[str] = None) -> "ParameterProfile":
        """Same schedule shape with small constants and early exit (default)."""
        eps = _next_power_of_two_inverse(eps)
        ell_max = max(3, int(round(3.0 / eps)))
        scales = cls._scales(eps)
        sim_iters = max(2, int(math.ceil(2 * math.log(1.0 / eps) + 2)))
        return cls(
            eps=eps,
            ell_max=ell_max,
            scales=scales,
            phase_factor=4.0,
            bundle_factor=4.0,
            sim_iterations=sim_iters,
            limit_factor=6.0,
            delta=max(eps / 8.0, 1e-6),
            early_exit=True,
            max_phase_cap=max_phase_cap,
            max_bundle_cap=max_bundle_cap,
            oracle_c=c,
            backend=backend,
        )

    # ------------------------------------------------------------ backend
    def resolve_graph(self, graph):
        """Return ``graph`` on this profile's backend (converted iff needed).

        The single entry-point helper every framework that honours
        ``backend`` should call: ``backend=None`` returns the graph
        unchanged, otherwise a one-time O(m) conversion happens only when the
        backends actually differ (vertex ids are preserved, so matchings
        computed on the result fit the original graph).
        """
        if self.backend is not None and graph.backend_name != self.backend:
            return graph.with_backend(self.backend)
        return graph

    # ------------------------------------------------------------ schedule API
    @staticmethod
    def _scales(eps: float) -> List[float]:
        # eps = 2**-k exactly, so the floor eps^2/64 is 2**-(2k+6)
        k = round(-math.log2(eps))
        return [2.0 ** -i for i in range(1, 2 * k + 7)]

    def schedule(self, n: int, scales: Optional[Sequence[float]] = None
                 ) -> List[Tuple[float, int]]:
        """The effective ``(h, phase_budget)`` schedule for ``n`` vertices.

        A phase depends on its scale only through ``structure_limit(h)``
        (which cannot bind once it exceeds ``n``: no structure is larger)
        and ``pass_bundles(h)``.  Each scale is keyed by
        ``(min(structure_limit(h), n + 1), pass_bundles(h), phases(h))``
        and every run of equal consecutive keys becomes one entry: its
        first scale, with the run's phase budgets summed.  Under early exit
        a scale whose phase came back empty would only retry the same phase
        at the next scale of the run, so the run stops there; a scale that
        used its whole budget still gets the extra phases.  Without early
        exit (the ``paper`` profile) the literal schedule is returned.

        ``scales`` restricts the walk to a sub-sequence (the dynamic
        maintainers' warm start passes the last two); default: all scales.
        """
        scales = self.scales if scales is None else scales
        if not self.early_exit:
            return [(h, self.phases(h)) for h in scales]
        out: List[Tuple[float, int]] = []
        last = None
        for h in scales:
            key = (min(self.structure_limit(h), n + 1), self.pass_bundles(h),
                   self.phases(h))
            if key == last:
                out[-1] = (out[-1][0], out[-1][1] + key[2])
            else:
                out.append((h, key[2]))
                last = key
        return out

    def phases(self, h: float) -> int:
        """Number of phases at scale ``h``."""
        return min(self.max_phase_cap,
                   max(1, int(math.ceil(self.phase_factor / (h * self.eps)))))

    def pass_bundles(self, h: float) -> int:
        """Number of pass-bundles per phase at scale ``h`` (tau_max)."""
        return min(self.max_bundle_cap,
                   max(1, int(math.ceil(self.bundle_factor / (h * self.eps)))))

    def structure_limit(self, h: float) -> int:
        """``limit_h``: structures at or above this size are put on hold."""
        return max(3, int(math.ceil(self.limit_factor / h)) + 1)

    def structure_size_bound(self, h: float) -> int:
        """``Delta_h = 36 h / eps`` (Lemma 4.5), the proof-level size bound."""
        return max(3, int(math.ceil(36.0 * h / self.eps)))

    def stages(self) -> range:
        """Stage labels for the Extend-Active-Path simulation (Algorithm 5)."""
        return range(0, self.ell_max + 1)

    @property
    def label_default(self) -> int:
        """The initial label ``l_max + 1`` of every matched arc."""
        return self.ell_max + 1

    # ---------------------------------------------------------- cost formulas
    def paper_invocation_bound(self) -> float:
        """O(log(1/eps)/eps^7) -- the headline oracle-call bound of Theorem 1.1."""
        return math.log(1.0 / self.eps) / (self.eps ** 7)

    def fmu22_invocation_bound(self) -> float:
        """O(1/eps^52) -- the [FMU22] bound quoted in Table 1 (MPC row)."""
        return 1.0 / (self.eps ** 52)

    def fmu22_mmss25_invocation_bound(self) -> float:
        """O(1/eps^39) -- the [FMU22]+[MMSS25] bound quoted in Table 1."""
        return 1.0 / (self.eps ** 39)
