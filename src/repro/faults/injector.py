"""The fault injector: arms a :class:`FaultPlan` against a live array.

Faults fire *inside* the simulated timeline, not around it:

* drive faults hook :class:`~repro.ssd.device.SimulatedSSD` reads and
  writes via the device's ``fault_model`` slot (corruption bursts,
  stall storms, torn-write detection);
* controller crashes fire at named ``crashpoint("...")`` hooks threaded
  through the datapath, segment writer, WAL, and GC via per-component
  :class:`CrashpointRouter`s (no global state — multi-array tests stay
  isolated);
* torn segio flushes intercept the segment writer's shard fan-out and
  drop a subset of shard programs, marking the dropped write units so
  later reads fail their (modelled) checksum instead of returning
  zeros as valid data.

Every fired fault is appended to :attr:`FaultInjector.trace`; a plan
replayed from the same seed produces an identical trace, which is the
debugging contract the chaos harness asserts.
"""

from dataclasses import dataclass

from repro.errors import InjectedCrashError
from repro.faults import plan as P


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the unit of the replay trace)."""

    op_index: int
    time: float
    kind: str
    target: str
    detail: tuple = ()

    def key(self):
        """Comparable identity for trace equality (time included: the
        sim clock is deterministic, so replays must match it too)."""
        return (self.op_index, round(self.time, 9), self.kind, self.target,
                self.detail)


class CrashpointRouter:
    """Per-component crashpoint hook.

    Instrumented code calls ``router.hit("segwriter.pre-flush", ...)``;
    components hold ``crashpoints = None`` by default, so the
    uninstrumented cost is one attribute test.
    """

    def __init__(self, injector):
        self._injector = injector

    def hit(self, name, **context):
        self._injector.on_crashpoint(name, context)


class FaultInjector:
    """Schedules, fires, and records faults against one array."""

    def __init__(self, fault_plan=None, clock=None):
        self.plan = fault_plan if fault_plan is not None else P.FaultPlan()
        self.clock = clock
        self.array = None
        #: Observability handle; adopted from the array at attach() so
        #: fired faults also land in the trace as ``fault`` events.
        self.obs = None
        self.trace = []
        self.op_index = 0
        self._next_spec = 0
        # Armed state.
        self._corrupt_bursts = {}   # drive name -> reads remaining
        self._stall_until = {}      # drive name -> sim time, extra stall
        self._torn_flush_shards = 0  # shards to drop at the next flush
        self._armed_crashpoints = set()
        self._nvram_torn = False
        # Torn write units: drive name -> [(start, end)], modelling the
        # on-media checksum that makes a torn write detectable.
        self._torn_ranges = {}
        self.crashes_fired = 0
        self.faults_fired = 0

    # ------------------------------------------------------------------
    # Attachment

    def attach(self, array):
        """Arm this injector against ``array`` (idempotent, re-entrant
        after recovery — drive-level state like torn ranges survives,
        exactly as on-media damage would)."""
        self.array = array
        if self.clock is None:
            self.clock = array.clock
        self.obs = getattr(array, "obs", None)
        router = CrashpointRouter(self)
        array.datapath.crashpoints = router
        array.segwriter.crashpoints = router
        array.segwriter.flush_interceptor = self.filter_flush_shards
        array.pipeline.wal.crashpoints = router
        array.gc.crashpoints = router
        self.refresh_drives()
        return self

    def detach(self):
        array = self.array
        if array is None:
            return
        array.datapath.crashpoints = None
        array.segwriter.crashpoints = None
        array.segwriter.flush_interceptor = None
        array.pipeline.wal.crashpoints = None
        array.gc.crashpoints = None
        for drive in array.drives.values():
            if drive.fault_model is self:
                drive.fault_model = None
        self.array = None

    def refresh_drives(self):
        """Hook any drive not yet instrumented (replacements, recovery)."""
        for drive in self.array.drives.values():
            drive.fault_model = self

    # ------------------------------------------------------------------
    # Scheduling

    def advance_to_op(self, op_index):
        """Arm every spec due at or before ``op_index``.

        The harness calls this before issuing each client operation;
        drive faults fire immediately, crash/torn faults arm and fire
        at their crashpoint or flush.
        """
        self.op_index = op_index
        specs = self.plan.specs
        while self._next_spec < len(specs) and specs[self._next_spec].at_op <= op_index:
            self._arm(specs[self._next_spec])
            self._next_spec += 1

    def _arm(self, spec):
        if spec.kind == P.DRIVE_FAIL:
            self._fire_drive_fail(spec)
        elif spec.kind == P.CORRUPT_BURST:
            target = self._resolve_drive(spec.target)
            if target is None:
                return
            burst = spec.params[0] if spec.params else 4
            self._corrupt_bursts[target] = (
                self._corrupt_bursts.get(target, 0) + burst
            )
            self._record(P.CORRUPT_BURST, target, (burst,))
        elif spec.kind == P.STALL_STORM:
            target = self._resolve_drive(spec.target)
            if target is None:
                return
            duration = spec.params[0] if spec.params else 0.1
            self._stall_until[target] = self.clock.now + duration
            self._record(P.STALL_STORM, target, (duration,))
        elif spec.kind == P.TORN_FLUSH:
            shards = spec.params[0] if spec.params else 1
            self._torn_flush_shards = max(self._torn_flush_shards, shards)
            self._record(P.TORN_FLUSH, "armed", (shards,))
        elif spec.kind == P.NVRAM_TORN:
            self._nvram_torn = True
            self._record(P.NVRAM_TORN, "armed")
        elif spec.kind == P.CRASH:
            self._armed_crashpoints.add(spec.target)
            self._record(P.CRASH, spec.target, ("armed",))

    def _resolve_drive(self, name):
        """Map a planned drive name onto a currently-alive drive.

        Plans are written against the boot-time drive set; by fire time
        the named drive may be dead or replaced. Falling back to the
        first alive drive (sorted, hence deterministic) keeps the
        schedule meaningful without breaking replay.
        """
        drives = self.array.drives
        drive = drives.get(name)
        if drive is not None and not drive.failed:
            return name
        alive = sorted(n for n, d in drives.items() if not d.failed)
        return alive[0] if alive else None

    def _fire_drive_fail(self, spec):
        target = self._resolve_drive(spec.target)
        if target is None:
            return
        self.array.fail_drive(target)
        self._record(P.DRIVE_FAIL, target)

    def _record(self, kind, target, detail=()):
        self.faults_fired += 1
        self.trace.append(
            FaultEvent(self.op_index, self.clock.now, kind, target,
                       tuple(detail))
        )
        obs = self.obs
        if obs is not None and obs.tracing:
            obs.event(
                "fault",
                op=self.op_index,
                kind=kind,
                target=target,
                detail=list(detail),
            )
        if obs is not None:
            obs.metrics.counter("faults.fired").inc()

    def trace_keys(self):
        """The comparable replay trace (same seed → identical list)."""
        return [event.key() for event in self.trace]

    @property
    def has_armed_tear(self):
        """A torn flush is armed but has not found a flush to tear yet."""
        return self._torn_flush_shards > 0

    # ------------------------------------------------------------------
    # Device hooks (called from SimulatedSSD inside read/write/discard)

    def on_read(self, drive, offset, nbytes, now):
        """Returns (force_corrupted, extra_stall_seconds)."""
        corrupted = False
        stall = 0.0
        if self._overlaps_torn(drive.name, offset, nbytes):
            corrupted = True
        remaining = self._corrupt_bursts.get(drive.name, 0)
        if remaining > 0:
            self._corrupt_bursts[drive.name] = remaining - 1
            corrupted = True
        until = self._stall_until.get(drive.name, 0.0)
        if now < until:
            stall = drive.timing.write_interference_stall * 4
        return corrupted, stall

    def peek_stall(self, drive, now):
        """Pure preview of :meth:`on_read`'s stall term.

        The hedged-read policy calls this through
        :meth:`SimulatedSSD.estimated_read_wait`; it must not count as
        a fault firing or mutate any armed state.
        """
        if now < self._stall_until.get(drive.name, 0.0):
            return drive.timing.write_interference_stall * 4
        return 0.0

    def on_write(self, drive, offset, nbytes):
        """A successful program heals any torn marks it overwrites."""
        self._heal_torn(drive.name, offset, nbytes)

    def on_discard(self, drive, offset, nbytes):
        """Erase drops torn marks — the AU is blank, not torn."""
        self._heal_torn(drive.name, offset, nbytes)

    def _overlaps_torn(self, drive_name, offset, nbytes):
        ranges = self._torn_ranges.get(drive_name)
        if not ranges:
            return False
        end = offset + nbytes
        return any(start < end and offset < stop for start, stop in ranges)

    def _heal_torn(self, drive_name, offset, nbytes):
        ranges = self._torn_ranges.get(drive_name)
        if not ranges:
            return
        end = offset + nbytes
        kept = [r for r in ranges if not (r[0] >= offset and r[1] <= end)]
        if kept:
            self._torn_ranges[drive_name] = kept
        else:
            del self._torn_ranges[drive_name]

    # ------------------------------------------------------------------
    # Segment-writer hook (torn flushes)

    def filter_flush_shards(self, descriptor, segio_index, pending):
        """Drop shard programs from one flush, marking them torn.

        ``pending`` is the segment writer's [(drive, device_offset,
        unit)] fan-out; the last ``n`` entries are torn off (a power
        cut kills the laggard programs first), and the dropped write
        units are remembered so reads of them report corruption.

        The tear is capped to the stripe's remaining parity budget: a
        stripe already writing degraded (failed drives skipped) has
        fewer shards to spare, and generated plans promise to stay
        survivable. With no budget at all the tear stays armed for the
        next healthier flush.
        """
        shards = self._torn_flush_shards
        if not shards or not pending:
            return pending
        geometry = self.array.config.segment_geometry
        missing = geometry.total_shards - len(pending)
        budget = geometry.parity_shards - missing
        if budget <= 0:
            return pending
        self._torn_flush_shards = 0
        shards = min(shards, budget, len(pending))
        kept, torn = pending[:-shards], pending[-shards:]
        torn_names = []
        for drive, device_offset, unit in torn:
            self._torn_ranges.setdefault(drive.name, []).append(
                (device_offset, device_offset + len(unit))
            )
            torn_names.append(drive.name)
        self._record(
            P.TORN_FLUSH,
            "segment-%d" % descriptor.segment_id,
            tuple(torn_names),
        )
        return kept

    # ------------------------------------------------------------------
    # Crashpoints

    def on_crashpoint(self, name, context):
        if self._nvram_torn and name == "nvram.post-append":
            self._nvram_torn = False
            nvram = context["nvram"]
            record_id = context["record_id"]
            dropped = nvram.drop_tail(record_id)
            note = getattr(nvram, "note_tear", None)
            if note is not None:
                note(dropped)
            self._record(P.NVRAM_TORN, name, (record_id,))
            self.crashes_fired += 1
            raise InjectedCrashError(name, "NVRAM commit torn at record %d"
                                     % record_id)
        if name in self._armed_crashpoints:
            self._armed_crashpoints.discard(name)
            if name == "segwriter.mid-flush":
                # The crash interrupts the shard fan-out: the waves not
                # yet programmed read back as checksum failures, never
                # as valid zeros.
                for drive, device_offset, unit in context.get("remaining", ()):
                    self._torn_ranges.setdefault(drive.name, []).append(
                        (device_offset, device_offset + len(unit))
                    )
            self._record(P.CRASH, name, ("fired",))
            self.crashes_fired += 1
            raise InjectedCrashError(name)
