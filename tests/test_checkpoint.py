"""Checkpoint/resume tests for the dynamic maintainer.

The contract under test: a maintainer restored from a
:class:`~repro.resilience.checkpoint.MaintainerCheckpoint` and replayed over
the remaining updates is *byte-identical* to one that never crashed -- same
mates, same counters, same RNG substreams, same epoch/rebuild schedule.
That parity is pinned across the full configuration matrix (graph backends
x phase engines x repair modes), through full ``.npz`` disk round-trips,
and at the awkward positions: the zeroth checkpoint, a checkpoint on a
rebuild boundary, and a crash on the final update.  Loader hardening
(truncated, corrupt, wrong-version, non-checkpoint files) raises the typed
:class:`CheckpointError`.
"""

import dataclasses
import json
import os

import pytest

from repro.core.config import ParameterProfile
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.instrumentation.counters import Counters
from repro.resilience import FaultPlan
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    MaintainerCheckpoint,
)
from repro.resilience.harness import RecoveryStats, run_with_recovery
from repro.workloads.sources import planted_matching_churn
from repro.workloads.trace import Trace

EPS = 0.25


def _profile(engine, repair):
    return dataclasses.replace(ParameterProfile.practical(EPS),
                               engine=engine, repair=repair)


def _workload(pairs=24, rounds=2, seed=0):
    return Trace.record(planted_matching_churn(pairs, rounds=rounds,
                                               seed=seed))


def _maintainer(trace, profile, backend, counters, seed=0):
    return FullyDynamicMatching(trace.n, EPS, profile=profile,
                                counters=counters, seed=seed, backend=backend)


def _end_state(alg):
    """The full comparable state: mates + counters + RNGs + schedule."""
    return alg.checkpoint_state()


def _run_fault_free(trace, profile, backend):
    alg = _maintainer(trace, profile, backend, Counters())
    for upd in trace.stream():
        alg.update(upd)
    return alg


# ------------------------------------------------------------ parity matrix
@pytest.mark.parametrize("backend", ["adjset", "csr"])
@pytest.mark.parametrize("engine", ["array", "reference"])
@pytest.mark.parametrize("repair", ["rebuild", "incremental"])
def test_resume_parity_across_configurations(backend, engine, repair,
                                             tmp_path):
    """Crash + restore-from-disk + replay lands byte-identical end state."""
    trace = _workload()
    profile = _profile(engine, repair)
    reference = _run_fault_free(trace, profile, backend)

    chaotic = _maintainer(trace, profile, backend, Counters())
    plan = FaultPlan(seed=11, update_crash_rate=0.03,
                     crash_updates=(len(trace) // 2,))
    survivor, stats = run_with_recovery(
        chaotic, trace, plan=plan, checkpoint_every=10,
        checkpoint_path=str(tmp_path / "ckpt.npz"))
    assert stats.crashes >= 1
    assert _end_state(survivor) == _end_state(reference)


def test_in_memory_and_disk_restores_agree(tmp_path):
    trace = _workload()
    profile = _profile("array", "incremental")
    plan = FaultPlan(seed=2, crash_updates=(7, len(trace) // 2))

    on_disk, _ = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace, plan=plan,
        checkpoint_every=5, checkpoint_path=str(tmp_path / "c.npz"))
    in_memory, _ = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace, plan=plan,
        checkpoint_every=5)
    assert _end_state(on_disk) == _end_state(in_memory)


# ------------------------------------------------------------- edge cases
def test_resume_from_zeroth_checkpoint_replays_everything(tmp_path):
    """A crash before any periodic snapshot restores the empty prefix."""
    trace = _workload()
    profile = _profile("array", "incremental")
    reference = _run_fault_free(trace, profile, "adjset")

    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace,
        plan=FaultPlan(seed=0, crash_updates=(0,)), checkpoint_every=0,
        checkpoint_path=str(tmp_path / "c.npz"))
    assert stats.crashes == 1 and stats.restores == 1
    assert stats.replayed_updates == 0  # crash at 0: nothing to replay yet
    assert _end_state(survivor) == _end_state(reference)


def test_crash_on_final_update_recovers(tmp_path):
    trace = _workload()
    profile = _profile("array", "rebuild")
    reference = _run_fault_free(trace, profile, "adjset")

    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace,
        plan=FaultPlan(seed=0, crash_updates=(len(trace) - 1,)),
        checkpoint_every=16, checkpoint_path=str(tmp_path / "c.npz"))
    assert stats.crashes == 1
    assert _end_state(survivor) == _end_state(reference)


def test_checkpoint_every_update_hits_rebuild_boundaries(tmp_path):
    """checkpoint_every=1 snapshots on every boundary the schedule has --
    including immediately after epoch rebuilds -- and parity must hold when
    restores land exactly there."""
    trace = _workload(pairs=16, rounds=2)
    profile = _profile("array", "incremental")
    reference = _run_fault_free(trace, profile, "adjset")

    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace,
        plan=FaultPlan(seed=5, update_crash_rate=0.08),
        checkpoint_every=1, checkpoint_path=str(tmp_path / "c.npz"))
    # every crash restores the immediately preceding update's snapshot
    assert stats.replayed_updates == 0
    assert _end_state(survivor) == _end_state(reference)


def test_stats_bookkeeping_and_counter_projection():
    trace = _workload(pairs=16, rounds=1)
    profile = _profile("array", "rebuild")
    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace,
        plan=FaultPlan(seed=0, crash_updates=(3, 9)), checkpoint_every=4)
    assert stats.crashes == 2
    assert stats.crash_positions == [3, 9]
    assert stats.checkpoints >= 1 + len(trace) // 4
    projected = stats.as_counters()
    assert projected["chaos_crashes"] == 2.0
    assert projected["chaos_restores"] == float(stats.restores)


def test_run_with_recovery_rejects_negative_period():
    trace = _workload(pairs=4, rounds=1)
    alg = _maintainer(trace, _profile("array", "rebuild"), "adjset",
                      Counters())
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_with_recovery(alg, trace, checkpoint_every=-1)


def test_recovery_stats_default_clean_run():
    trace = _workload(pairs=8, rounds=1)
    profile = _profile("array", "rebuild")
    reference = _run_fault_free(trace, profile, "adjset")
    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, "adjset", Counters()), trace)
    # the timing field is nondeterministic; zero it out
    comparable = dataclasses.replace(stats, checkpoint_ns=0)
    assert comparable == RecoveryStats(crashes=0, restores=0, checkpoints=1,
                                       replayed_updates=0, crash_positions=[])
    assert stats.checkpoint_ns > 0
    assert _end_state(survivor) == _end_state(reference)


# ----------------------------------------------------------- capture/restore
def test_capture_rejects_negative_position():
    trace = _workload(pairs=4, rounds=1)
    alg = _maintainer(trace, _profile("array", "rebuild"), "adjset",
                      Counters())
    with pytest.raises(ValueError, match="position"):
        MaintainerCheckpoint.capture(alg, -1)


def test_snapshot_is_isolated_from_live_maintainer():
    trace = _workload(pairs=8, rounds=1)
    updates = trace.updates()
    alg = _maintainer(trace, _profile("array", "rebuild"), "adjset",
                      Counters())
    for upd in updates[: len(updates) // 2]:
        alg.update(upd)
    snapshot = MaintainerCheckpoint.capture(alg, len(updates) // 2)
    frozen = dict(snapshot.state)
    for upd in updates[len(updates) // 2:]:
        alg.update(upd)
    # the live maintainer moved on; the snapshot must not have
    assert snapshot.state == frozen
    assert snapshot.state != alg.checkpoint_state()


# ------------------------------------------------------------ loader errors
def _saved_checkpoint(tmp_path):
    trace = _workload(pairs=8, rounds=1)
    alg = _maintainer(trace, _profile("array", "rebuild"), "adjset",
                      Counters())
    for upd in trace.stream():
        alg.update(upd)
    snapshot = MaintainerCheckpoint.capture(alg, len(trace))
    return snapshot, snapshot.save(str(tmp_path / "good.npz"))


def test_save_load_round_trip(tmp_path):
    snapshot, path = _saved_checkpoint(tmp_path)
    loaded = MaintainerCheckpoint.load(path)
    assert loaded.position == snapshot.position
    assert loaded.state == snapshot.state


def test_load_missing_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        MaintainerCheckpoint.load(str(tmp_path / "absent.npz"))


def test_load_truncated_file_raises_typed_error(tmp_path):
    _, path = _saved_checkpoint(tmp_path)
    blob = open(path, "rb").read()
    bad = str(tmp_path / "truncated.npz")
    with open(bad, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError) as excinfo:
        MaintainerCheckpoint.load(bad)
    assert excinfo.value.path == bad
    assert "corrupt" in str(excinfo.value)


def test_load_garbage_bytes_raises_typed_error(tmp_path):
    bad = str(tmp_path / "garbage.npz")
    with open(bad, "wb") as handle:
        handle.write(b"this is not a zip archive at all")
    with pytest.raises(CheckpointError):
        MaintainerCheckpoint.load(bad)


def test_load_non_checkpoint_npz_raises_typed_error(tmp_path):
    np = pytest.importorskip("numpy")
    bad = str(tmp_path / "other.npz")
    np.savez(bad, foo=np.zeros(3))
    with pytest.raises(CheckpointError, match="missing keys"):
        MaintainerCheckpoint.load(bad)


def test_load_wrong_kind_raises_typed_error(tmp_path):
    # a Trace file has real content but the wrong shape entirely
    trace_path = Trace.record(
        planted_matching_churn(4, rounds=1, seed=0)).save(
        str(os.path.join(tmp_path, "trace.npz")))
    with pytest.raises(CheckpointError, match="missing keys"):
        MaintainerCheckpoint.load(trace_path)


def test_load_version_skew_reports_both_versions(tmp_path):
    np = pytest.importorskip("numpy")
    _, path = _saved_checkpoint(tmp_path)
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    arrays["version"] = np.int64(CHECKPOINT_VERSION + 41)
    skewed = str(tmp_path / "skewed.npz")
    np.savez(skewed, **arrays)
    with pytest.raises(CheckpointError) as excinfo:
        MaintainerCheckpoint.load(skewed)
    err = excinfo.value
    assert err.expected_version == CHECKPOINT_VERSION
    assert err.found_version == CHECKPOINT_VERSION + 41
    assert err.path == skewed
    assert "version" in str(err)


def test_restore_rejects_removed_engine_before_replay(tmp_path):
    """A checkpoint naming an engine this build does not have never yields
    a maintainer: the profile is rejected while the state is rebuilt."""
    np = pytest.importorskip("numpy")
    _, path = _saved_checkpoint(tmp_path)
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    profile = json.loads(str(arrays["profile_json"]))
    profile["engine"] = "kernel"
    arrays["profile_json"] = np.array(json.dumps(profile, sort_keys=True))
    stale = str(tmp_path / "stale_engine.npz")
    np.savez(stale, **arrays)

    loaded = MaintainerCheckpoint.load(stale)
    counters = Counters()
    with pytest.raises(ValueError, match="engine must be one of"):
        loaded.restore(counters=counters)
    # nothing was replayed into the caller's counter bag
    assert counters.as_dict() == {}
