"""Drive-health state machine (paper Section 5.1).

Purity treats drives as unreliable components: flash rots, firmware
stalls, whole devices die. Rather than trusting a drive until it fails
outright, the array grades every drive from its observed read outcomes:

* ``HEALTHY`` — the steady state.
* ``SUSPECT`` — the drive returned enough corrupted reads, or enough
  stalled reads, inside a sliding window that the array stops trusting
  it: the segment reader shortens its retry budget (fail fast,
  reconstruct from the other shards) and maintenance watches it closely.
* ``FAILED`` — chronic *integrity* misbehaviour (corrupted reads,
  exhausted retries) while suspect; the array fails the drive
  proactively, exactly as if it had been pulled, and schedules a
  rebuild. Proactive failure turns a slowly-rotting drive (which would
  keep feeding the erasure code corrupted shards) into the clean
  one-drive-down case the 7+2 code is designed for. Stalls alone never
  fail a drive: reads colliding with in-flight segment programs stall
  by design (Section 4.4), so latency is a suspicion signal, not proof
  of rot.

All thresholds are event counts inside a simulated-time window, so the
machine is deterministic for a given workload and seed.
"""

from collections import deque
from dataclasses import dataclass, field


HEALTHY = "healthy"
SUSPECT = "suspect"
FAILED = "failed"

#: Weight of an exhausted-retry fallback relative to one corrupted read.
_EXHAUSTED_WEIGHT = 2


@dataclass
class DriveHealth:
    """Observed-health record for one drive."""

    name: str
    state: str = HEALTHY
    corrupted_reads: int = 0
    stalled_reads: int = 0
    exhausted_retries: int = 0
    suspect_since: float = None
    failed_at: float = None
    #: (timestamp, weight) of recent integrity events inside the window.
    events: deque = field(default_factory=deque)
    #: Timestamps of recent stalled reads (separate ledger: stalls can
    #: raise suspicion but never fail a drive).
    stall_events: deque = field(default_factory=deque)

    def counters(self):
        return {
            "state": self.state,
            "corrupted_reads": self.corrupted_reads,
            "stalled_reads": self.stalled_reads,
            "exhausted_retries": self.exhausted_retries,
        }


class DriveHealthMonitor:
    """Healthy → suspect → failed, driven by read outcomes.

    The segment reader reports every corrupted read, stall, and
    exhausted retry here; the monitor escalates state and, on the
    suspect → failed transition, invokes ``on_auto_fail(drive_name)``
    (the array wires this to its drive-failure path). The caller is
    responsible for running the rebuild that the auto-fail makes
    necessary — see :meth:`PurityArray.service_health`.
    """

    def __init__(self, clock, on_auto_fail=None, suspect_threshold=4,
                 fail_threshold=12, stall_suspect_threshold=24,
                 window_seconds=300.0):
        self.clock = clock
        self.on_auto_fail = on_auto_fail
        #: Weighted integrity events in the window before HEALTHY → SUSPECT.
        self.suspect_threshold = suspect_threshold
        #: Weighted integrity events in the window before SUSPECT → FAILED.
        self.fail_threshold = fail_threshold
        #: Stalled reads in the window before HEALTHY → SUSPECT. Much
        #: higher than the integrity threshold because ordinary segment
        #: flushes stall some reads on a perfectly healthy drive.
        self.stall_suspect_threshold = stall_suspect_threshold
        self.window_seconds = window_seconds
        self._drives = {}
        self.auto_failed = []  # drive names, in failure order

    def health_of(self, drive_name):
        record = self._drives.get(drive_name)
        if record is None:
            record = DriveHealth(drive_name)
            self._drives[drive_name] = record
        return record

    def state_of(self, drive_name):
        return self.health_of(drive_name).state

    def is_suspect(self, drive_name):
        return self.health_of(drive_name).state == SUSPECT

    # ------------------------------------------------------------------
    # Event intake (called from the segment reader)

    def note_corrupted(self, drive_name, region=None):
        """``region`` identifies the damaged area (e.g. a write unit):
        re-reading one bad spot scores once per window — a single torn
        or rotten unit is data damage, not evidence the whole drive is
        dying. Corruption across *distinct* regions keeps scoring."""
        record = self.health_of(drive_name)
        record.corrupted_reads += 1
        self._bad_event(record, weight=1, region=region)

    def note_stalled(self, drive_name):
        record = self.health_of(drive_name)
        record.stalled_reads += 1
        self._stall_event(record)

    def note_exhausted(self, drive_name, region=None):
        """All retries burned; the read fell through to reconstruction."""
        record = self.health_of(drive_name)
        record.exhausted_retries += 1
        self._bad_event(
            record,
            weight=_EXHAUSTED_WEIGHT,
            region=None if region is None else ("exhausted", region),
        )

    def note_failed(self, drive_name):
        """The drive failed outright (pulled, or auto-failed elsewhere)."""
        record = self.health_of(drive_name)
        if record.state != FAILED:
            record.state = FAILED
            record.failed_at = self.clock.now

    def reset(self, drive_name):
        """A replacement drive starts with a clean record."""
        self._drives.pop(drive_name, None)

    # ------------------------------------------------------------------
    # State machine

    def _bad_event(self, record, weight, region=None):
        if record.state == FAILED:
            return
        now = self.clock.now
        horizon = now - self.window_seconds
        while record.events and record.events[0][0] < horizon:
            record.events.popleft()
        if region is not None and any(
            r == region for _t, _w, r in record.events
        ):
            return  # the same damaged spot scored already this window
        record.events.append((now, weight, region))
        score = sum(w for _t, w, _r in record.events)
        if record.state == HEALTHY and score >= self.suspect_threshold:
            record.state = SUSPECT
            record.suspect_since = now
        elif record.state == SUSPECT and score >= self.fail_threshold:
            record.state = FAILED
            record.failed_at = now
            record.events.clear()
            self.auto_failed.append(record.name)
            if self.on_auto_fail is not None:
                self.on_auto_fail(record.name)

    def _stall_event(self, record):
        """Stall storms raise suspicion; they never fail a drive."""
        if record.state != HEALTHY:
            return
        now = self.clock.now
        record.stall_events.append(now)
        horizon = now - self.window_seconds
        while record.stall_events and record.stall_events[0] < horizon:
            record.stall_events.popleft()
        if len(record.stall_events) >= self.stall_suspect_threshold:
            record.state = SUSPECT
            record.suspect_since = now

    # ------------------------------------------------------------------
    # Reporting

    def report(self):
        """drive name -> health counters, for telemetry/chaos reports."""
        return {
            name: record.counters() for name, record in sorted(self._drives.items())
        }

    def suspects(self):
        return [
            record.name
            for record in self._drives.values()
            if record.state == SUSPECT
        ]

    def stall_pressure(self, drive_name):
        """Stalled reads recorded inside the sliding window (0 = calm).

        A support-facing signal: telemetry surfaces it next to the
        hedge counters so "which drive is stalling right now" is one
        lookup. Deliberately *not* a hedge trigger — stalls happen on
        perfectly healthy drives during ordinary segment flushes, so
        hedging on this would fire in fault-free runs and break the
        hedging-on/off trace-identity guarantee.
        """
        record = self._drives.get(drive_name)
        if record is None:
            return 0
        horizon = self.clock.now - self.window_seconds
        return sum(1 for stamp in record.stall_events if stamp >= horizon)
