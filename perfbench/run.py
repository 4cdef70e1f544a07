#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static_boost --seed 1 --seconds 40 --trace 0

One process, one thread, one closed-loop caller.  The run sets up the
workload's inputs from ``--seed`` (several times, for ``setup_s``), then
repeats timed passes while another pass still fits in ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it first runs one untraced pass as the reference for the
tracing overhead, then traced passes, and reports the per-layer metrics.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is the full record
(provenance, per-metric quartiles, deterministic counts, layer shares), also
written under ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups per run, at least; ``setup_s`` is their median
MIN_SETUPS = 3
#: a p99 is reported only when at least this many samples lie beyond it
TAIL_BEYOND = 10


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(values, value, unit, better):
    q1, median, q3 = _quartiles(values)
    return {"value": value, "unit": unit, "better": better, "median": median,
            "q1": q1, "q3": q3, "n": len(values)}


def _tail(latencies):
    """p99 when at least TAIL_BEYOND samples lie beyond it, else the slowest."""
    ordered = sorted(latencies)
    if len(ordered) * 0.01 >= TAIL_BEYOND:
        rank = -(-99 * len(ordered) // 100)  # nearest rank
        return ordered[rank - 1], "p99"
    return ordered[-1], "max"


def _source_digest() -> str:
    """Digest of the library and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _provenance(digest: str) -> dict:
    import numpy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _determinism(workload: str, seed: int, digest: str, passes) -> dict:
    """Counts must agree across the passes of this run and with every earlier
    run of the same seed on the same sources (kept under ``out/state``)."""
    counts = passes[0].counts
    diverged = [f"pass {i}" for i, p in enumerate(passes) if p.counts != counts]
    state = OUT / "state" / f"{workload}-seed{seed}-{digest[:16]}.json"
    if state.exists():
        earlier = json.loads(state.read_text())
        if earlier != json.loads(json.dumps(counts)):
            diverged.append(f"earlier run ({state.name})")
    else:
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_text(json.dumps(counts, sort_keys=True))
    return {"ok": not diverged, "diverged": diverged, "counts": counts}


def _run(workload, seed: int, seconds: float, trace: bool):
    from tracing import Tracer

    setup_s = []

    def timed_setup():
        began = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - began)
        return state

    # a traced run's first pass is untraced: the reference for the overhead
    reference = None
    tracer = Tracer() if trace else None
    passes, cycles = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        state = timed_setup()
        if trace and reference is None:
            reference = workload.run_pass(state, None)
        else:
            passes.append(workload.run_pass(state, tracer))
        del state  # a dynamic workload's maintainer can be large
        cycles.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if passes and elapsed + statistics.fmean(cycles) > seconds:
            break
    while len(setup_s) < MIN_SETUPS:
        timed_setup()
    return setup_s, passes, reference, tracer


def _end_to_end(setup_s, passes, spec_units) -> dict:
    latencies = [ns for p in passes for ns in p.op_ns]
    tail_ns, tail_kind = _tail(latencies)
    per_pass_ops = [p.first_ops / (p.wall_ns / 1e9) for p in passes]
    walls = sum(p.wall_ns for p in passes) / 1e9
    ratios = [p.worst_ratio for p in passes]
    lat_s = [ns / 1e9 for ns in latencies]
    values = {
        "setup_s": (setup_s, statistics.median(setup_s)),
        "peak_rss_mb": ([_peak_rss_mb()], _peak_rss_mb()),
        "approx_ratio": (ratios, max(ratios)),
        "ops_per_s": (per_pass_ops, sum(p.first_ops for p in passes) / walls),
        "op_p50_s": (lat_s, statistics.median(lat_s)),
        "op_tail_s": (lat_s, tail_ns / 1e9),
        "work_per_op": ([p.work_per_op for p in passes], passes[0].work_per_op),
    }
    out = {name: _summary(samples, value, *spec_units[name])
           for name, (samples, value) in values.items()}
    out["op_tail_s"]["percentile"] = tail_kind
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_layer(tracer, passes, reference) -> dict:
    n = len(passes)
    wall_ns = sum(p.wall_ns for p in passes)
    counts = {}
    for p in passes:
        for key, value in p.counts.items():
            counts[key] = counts.get(key, 0) + value

    def total(suffix):
        return sum(v for k, v in counts.items()
                   if k == suffix or k.endswith("." + suffix))

    def per_pass(value):
        return value / n

    def busy(name):
        return per_pass(tracer.busy_ns[name]) / 1e9

    def own(name):
        return per_pass(tracer.self_ns[name]) / 1e9

    phases = total("phases")
    first_ops = sum(p.first_ops for p in passes)
    traced_wall = per_pass(wall_ns) / 1e9
    overhead = traced_wall - reference.wall_ns / 1e9
    layers = {
        "core.boost.self_s": own("core.boost"),
        "core.boost.busy_s": busy("core.boost"),
        "mpc.boost.self_s": own("mpc.boost"),
        "mpc.boost.busy_s": busy("mpc.boost"),
        "congest.boost.self_s": own("congest.boost"),
        "congest.boost.busy_s": busy("congest.boost"),
        "core.phase.calls": per_pass(tracer.calls["core.phase"]),
        "core.phase.self_s": own("core.phase"),
        "core.phase.gain_per_call": total("matching_gain") / phases if phases else 0.0,
        "core.oracle.calls": per_pass(tracer.calls["core.oracle"]),
        "core.oracle.busy_s": busy("core.oracle"),
        "core.oracle.empty_frac": tracer.outcome_frac("core.oracle", "empty"),
        "core.weak_oracle.calls": per_pass(tracer.calls["core.weak_oracle"]),
        "core.weak_oracle.busy_s": busy("core.weak_oracle"),
        "core.weak_oracle.empty_frac": tracer.outcome_frac("core.weak_oracle", "empty"),
        "dynamic.update.calls": per_pass(tracer.calls["dynamic.update"]),
        "dynamic.update.self_s": own("dynamic.update"),
        "dynamic.rebuild.calls": per_pass(tracer.calls["dynamic.rebuild"]),
        "dynamic.rebuild.self_s": own("dynamic.rebuild"),
        "dynamic.rebuild.useful_frac": tracer.outcome_frac("dynamic.rebuild", "useful"),
        "graph.apply.calls": per_pass(tracer.calls["graph.apply"]),
        "graph.apply.busy_s": busy("graph.apply"),
        "mpc.round.calls": per_pass(tracer.calls["mpc.round"]),
        "mpc.round.busy_s": busy("mpc.round"),
        "mpc.oracle.self_s": own("mpc.oracle"),
        "mpc.messages": per_pass(total("mpc_messages")),
        "mpc.total_rounds": per_pass(total("mpc_total_rounds")),
        "congest.round.calls": per_pass(tracer.calls["congest.round"]),
        "congest.round.busy_s": busy("congest.round"),
        "congest.oracle.self_s": own("congest.oracle"),
        "congest.messages": per_pass(total("congest_messages")),
        "congest.total_rounds": per_pass(total("congest_rounds")),
        "resilience.checkpoint.calls": per_pass(tracer.calls["resilience.checkpoint"]),
        "resilience.checkpoint.busy_s": busy("resilience.checkpoint"),
        "resilience.checkpoint.bytes": passes[-1].checkpoint_bytes,
        "resilience.restore.calls": per_pass(tracer.calls["resilience.restore"]),
        "resilience.restore.busy_s": busy("resilience.restore"),
        "resilience.replay_frac": total("replayed_updates") / first_ops,
        "unattributed_s": per_pass(wall_ns - tracer.root_ns) / 1e9,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / (reference.wall_ns / 1e9),
    }
    return layers


def _shares(tracer, passes) -> dict:
    """Each layer's share of every timed end-to-end metric.

    ``ops_per_s``: self time over the traced wall time.  ``op_p50_s`` and
    ``op_tail_s``: self time inside the operations around the median and at
    or beyond the tail, over their latency.  ``(outside spans)`` is the rest.
    """
    def normalise(parts, whole):
        shares = {k: v / whole for k, v in sorted(parts.items()) if v}
        shares["(outside spans)"] = 1.0 - sum(shares.values())
        return shares

    wall_ns = sum(p.wall_ns for p in passes)
    ops = sorted(tracer.logical_ops(), key=lambda op: op[0])
    tail_ns, _ = _tail([lat for lat, _ in ops])
    # the operations from p45 to p55, and at least the median one
    lo = int(0.45 * len(ops))
    hi = max(lo + 1, math.ceil(0.55 * len(ops)))

    def pooled(selected):
        parts = {}
        for _, own in selected:
            for name, ns in own.items():
                parts[name] = parts.get(name, 0) + ns
        return normalise(parts, sum(lat for lat, _ in selected))

    return {
        "ops_per_s": normalise(dict(tracer.self_ns), wall_ns),
        "op_p50_s": pooled(ops[lo:hi]),
        "op_tail_s": pooled([op for op in ops if op[0] >= tail_ns]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no library sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    spec_units = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}

    # one thread: keep any BLAS pool from spreading over the cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    from workloads import make_workloads

    workloads = make_workloads(str(work_dir))
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]

    setup_s, passes, reference, tracer = _run(workload, args.seed,
                                              args.seconds, bool(args.trace))
    digest = _source_digest()
    checked = passes + ([reference] if reference is not None else [])
    determinism = _determinism(workload.name, args.seed, digest, checked)
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)

    if args.trace:
        values = _per_layer(tracer, passes, reference)
        detail = {"layer_shares": _shares(tracer, passes),
                  "untraced_reference_wall_s": reference.wall_ns / 1e9}
    else:
        summaries = _end_to_end(setup_s, passes, spec_units)
        values = {name: s["value"] for name, s in summaries.items()}
        detail = {"end_to_end": summaries}
    if set(values) != set(spec_units):
        return _fail(f"metrics {sorted(set(values) ^ set(spec_units))} "
                     f"do not match BENCHMARK.json {section}")
    metrics = {name: {"value": value, "unit": spec_units[name][0]}
               for name, value in values.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params,
        "passes": len(passes), "setups": len(setup_s),
        "provenance": _provenance(digest),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": [f for p in checked for f in p.failures][:20],
        "determinism": determinism,
        "metrics": metrics,
        **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and determinism["ok"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
