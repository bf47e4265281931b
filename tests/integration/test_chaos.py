"""Chaos verification: seeded fault schedules against the full array.

The acceptance contract (see DESIGN.md "Fault model"):

* any schedule inside the parity budget completes with **zero invariant
  violations** — byte-exact reads, crash recovery inside the client
  timeout, scrubber-repaired damage, full protection restored;
* the same seed replays an **identical fault trace**;
* schedules beyond the budget are **detected** as data loss, never
  returned as wrong bytes.
"""

import pytest

from repro.core.ha import CLIENT_TIMEOUT_SECONDS
from repro.errors import DataLossError, UncorrectableError
from repro.faults.chaos import ChaosHarness
from repro.faults.plan import DRIVE_FAIL, FaultPlan, FaultSpec

DRIVE_NAMES = ["shelf0/ssd%02d" % index for index in range(11)]


def run_seed(seed, **kwargs):
    return ChaosHarness(seed=seed, **kwargs).run()


def assert_clean(report):
    assert report.violations == []
    assert report.data_loss is None
    assert report.max_downtime < CLIENT_TIMEOUT_SECONDS
    assert report.ops == report.reads + report.writes + report.rmws


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_survivable_schedule_completes_clean(seed):
    report = run_seed(seed)
    assert_clean(report)
    assert report.faults_fired > 0
    assert report.scrub_passes > 0


def test_same_seed_replays_identical_fault_trace():
    first = run_seed(7)
    second = run_seed(7)
    assert_clean(first)
    assert first.trace == second.trace
    assert first.trace  # the schedule fired faults to compare
    assert first.downtimes == second.downtimes


def test_crash_heavy_schedule_recovers_within_client_timeout():
    """Every injected controller crash must recover inside 30 s."""
    for seed in range(12):
        plan = FaultPlan.generate(seed, 200, DRIVE_NAMES, crash_budget=3)
        if plan.kinds_used().count("crash") or "nvram-torn" in plan.kinds_used():
            report = run_seed(seed, plan=plan)
            assert_clean(report)
            if report.crashes:
                assert report.recoveries == report.crashes
                return
    pytest.fail("no generated schedule fired a crash")


def test_beyond_budget_loss_is_detected_never_wrong_bytes():
    """Three concurrent shard losses: reads raise, they never lie."""
    harness = ChaosHarness(seed=2024, plan=FaultPlan(), total_ops=0)
    array = harness.array
    expected = {}
    for slot in range(harness.record_slots):
        payload = harness._payload(slot, slot)
        expected[slot] = payload
        array.write(harness.volume, slot * harness.record_size, payload)
    array.drain()
    array.datapath.drop_caches()
    # Five dead drives guarantee every 9-wide stripe loses >= 3 shards.
    for name in DRIVE_NAMES[:5]:
        array.fail_drive(name)
    losses = 0
    for slot, payload in expected.items():
        try:
            data, _latency = array.read(
                harness.volume, slot * harness.record_size,
                harness.record_size,
            )
        except (DataLossError, UncorrectableError):
            losses += 1
        else:
            assert data == payload, "wrong bytes returned for slot %d" % slot
    assert losses == len(expected)


def test_beyond_budget_schedule_reports_data_loss():
    """A harness-driven over-budget run ends with detected loss."""
    plan = FaultPlan()
    for name in DRIVE_NAMES[:5]:
        plan.add(FaultSpec(30, DRIVE_FAIL, name))
    report = run_seed(
        77, plan=plan, total_ops=60, record_size=16384, record_slots=8,
        maintenance_every=1000, expect_data_loss=True,
    )
    assert report.data_loss is not None
    # Loss surfaces either on the read path (not enough shards) or on
    # the write path (the degradation ladder pinned the array
    # read-only) — both are *detected* loss, never wrong bytes.
    assert ("shards readable" in report.data_loss
            or "read-only" in report.data_loss)
    assert report.ladder_states[-1] == "read-only"
    assert report.violations == []  # loss was detected, nothing lied


def test_chaos_report_counts_ops_and_faults():
    report = run_seed(3, total_ops=80)
    assert_clean(report)
    assert report.ops == 80
    assert report.faults_fired == len(report.trace)


@pytest.mark.slow
def test_ten_plus_seeded_schedules_mixing_four_fault_kinds():
    """The headline acceptance run: >= 10 distinct schedules, each
    mixing >= 4 fault kinds, all finishing with zero violations."""
    qualifying = [
        seed for seed in range(40)
        if len(FaultPlan.generate(seed, 200, DRIVE_NAMES).kinds_used()) >= 4
    ][:12]
    assert len(qualifying) >= 10
    traces = set()
    for seed in qualifying:
        report = run_seed(seed)
        assert_clean(report)
        assert len(report.kinds_used) >= 4, seed
        traces.add(tuple(report.trace))
    # Distinct seeds produced genuinely distinct schedules.
    assert len(traces) == len(qualifying)


# ----------------------------------------------------------------------
# Degraded-mode coverage: the byte-exactness oracle must hold in every
# ladder state the schedule visits, and the report must prove which
# states were actually exercised (a run that never leaves "normal"
# would vacuously pass).


def test_invariants_hold_across_ladder_states():
    from repro.faults.plan import STALL_STORM

    plan = FaultPlan()
    plan.add(FaultSpec(10, DRIVE_FAIL, DRIVE_NAMES[0]))
    plan.add(FaultSpec(25, STALL_STORM, DRIVE_NAMES[3], (0.05,)))
    report = run_seed(11, plan=plan, total_ops=120, maintenance_every=30)
    assert_clean(report)
    # The run visited reduced-parity and came back via rebuild.
    assert "reduced-parity" in report.ladder_states
    assert "normal" in report.ladder_states
    # Reads were byte-checked while degraded, not just while healthy.
    assert report.reads_by_state.get("reduced-parity", 0) > 0
    assert report.reads_by_state.get("normal", 0) > 0
    # The oracle also byte-checks RMW reads and recovery sweeps, so the
    # per-state counts at least cover every client read.
    assert sum(report.reads_by_state.values()) >= report.reads


def test_generated_schedules_tag_reads_with_their_ladder_state():
    """Every read a chaos run issues is attributed to exactly one
    ladder state, whatever the schedule does."""
    for seed in range(6):
        plan = FaultPlan.generate(seed, 150, DRIVE_NAMES, crash_budget=2)
        report = run_seed(seed, plan=plan, total_ops=150)
        assert_clean(report)
        assert sum(report.reads_by_state.values()) >= report.reads
        assert set(report.reads_by_state) <= set(report.ladder_states)


def test_stall_storm_schedule_fires_hedges_and_stays_clean():
    from repro.faults.plan import STALL_STORM

    plan = FaultPlan()
    for at_op in range(10, 70, 15):
        drive = DRIVE_NAMES[(at_op // 15) % len(DRIVE_NAMES)]
        plan.add(FaultSpec(at_op, STALL_STORM, drive, (0.05,)))
    harness = ChaosHarness(seed=19, plan=plan, total_ops=100,
                           maintenance_every=50)
    report = harness.run()
    assert_clean(report)
    hedge = harness.array.segreader.hedge
    assert hedge.fired > 0
    assert hedge.won + hedge.lost == hedge.fired


# ----------------------------------------------------------------------
# Cluster-level chaos: whole-array kills and partitions under the zipf
# workload. The single-array ladder oracle extends across nodes — every
# byte check is attributed to the serving node's ladder state, and
# detected loss (never wrong bytes) is itself a violation under the
# generated one-failure-at-a-time schedules.


@pytest.mark.slow
def test_cluster_array_kill_sweep_zero_acked_write_loss():
    from repro.cluster import ClusterChaosHarness

    kill_schedules = 0
    for seed in range(8):
        report = ClusterChaosHarness(
            seed, num_arrays=3, total_ops=240, maintenance_every=40
        ).run()
        assert report.violations == []
        assert report.data_loss is None
        assert sum(report.reads_by_state.values()) >= report.reads
        if report.kills:
            kill_schedules += 1
            assert report.revives == report.kills
            assert report.failovers >= 1
            assert report.volumes_moved > 0
    # The sweep genuinely exercised whole-array failure, repeatedly.
    assert kill_schedules >= 3


@pytest.mark.slow
def test_cluster_fault_kinds_replay_deterministically():
    from repro.cluster import ClusterChaosHarness
    from repro.faults.plan import ARRAY_KILL, ARRAY_REVIVE, NET_PARTITION

    kinds = set()
    for seed in (1, 2):
        first = ClusterChaosHarness(
            seed, num_arrays=3, total_ops=240, maintenance_every=40
        ).run()
        second = ClusterChaosHarness(
            seed, num_arrays=3, total_ops=240, maintenance_every=40
        ).run()
        assert first.trace == second.trace
        assert first.trace
        kinds.update(kind for _op, _t, kind, _tgt, _d in first.trace)
    assert {ARRAY_KILL, ARRAY_REVIVE, NET_PARTITION} <= kinds
