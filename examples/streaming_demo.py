#!/usr/bin/env python3
"""Semi-streaming scenario: the [MMSS25] algorithm the framework simulates.

Runs Algorithm 1 (scales -> phases -> pass-bundles over the edge stream)
directly, reporting the number of passes and the evolution of the matching
size, and then shows that the oracle-driven simulation (Section 5) reaches the
same quality -- the equivalence at the heart of the boosting framework.

Run:  python examples/streaming_demo.py
"""

from repro import Counters, boost_matching, maximum_matching, semi_streaming_matching
from repro.core.config import ParameterProfile
from repro.graph.generators import blossom_gadget, erdos_renyi
from repro.graph.graph import Graph


def build_workload(seed: int = 13) -> Graph:
    er = erdos_renyi(120, 0.035, seed=seed)
    gadgets = blossom_gadget(8, 4)   # odd cycles: the blossoms of Figure 1
    g = Graph(er.n + gadgets.n)
    for u, v in er.edges():
        g.add_edge(u, v)
    for u, v in gadgets.edges():
        g.add_edge(er.n + u, er.n + v)
    return g


def main() -> None:
    eps = 0.125
    graph = build_workload()
    optimum = maximum_matching(graph).size
    print(f"stream: n={graph.n}, m={graph.m}, mu={optimum}, eps={eps}")

    profile = ParameterProfile.practical(eps)
    schedule = [f"{h:.3g}x{budget}" for h, budget in profile.schedule(graph.n)]
    print(f"schedule (scale x phase budget): l_max={profile.ell_max}, {schedule}")

    counters = Counters()
    matching = semi_streaming_matching(graph, eps, counters=counters, seed=2)
    print("\n[semi-streaming algorithm, Algorithm 1]")
    print(f"  matching size   : {matching.size} "
          f"(factor {optimum / matching.size:.3f}, target <= {1 + eps})")
    print(f"  passes          : {int(counters['passes'])}")
    print(f"  phases          : {int(counters['phases'])}")
    print(f"  augmentations   : {int(counters['augmentations'])}, "
          f"contractions: {int(counters['contractions'])}, "
          f"overtakes: {int(counters['overtakes'])}")

    boost_counters = Counters()
    boosted = boost_matching(graph, eps, counters=boost_counters, seed=2)
    print("\n[oracle-driven simulation of the same algorithm, Section 5]")
    print(f"  matching size   : {boosted.size} "
          f"(factor {optimum / boosted.size:.3f})")
    print(f"  oracle calls    : {int(boost_counters['oracle_calls'])} "
          f"(each replaces one streaming pass over a derived graph)")


if __name__ == "__main__":
    main()
