"""The benchmark's three workloads.

Every workload has the same four steps, which the runner times
separately:

* ``setup(seed)`` builds the array or cluster, generates the whole tape
  (see :func:`seeded_streams`) and runs the prefill. Its host time is
  ``setup_s``.
* ``run(state, rec, tracer)`` is the timed phase: one client thread in a
  closed loop over the tape, with a host timer around every call into
  the program and a reference model (:class:`Oracle`) updated with every
  acknowledged write and checked against every read.
* ``finish(state, rec, tracer)`` is the end of the run: scrub, crash,
  ``PurityArray.recover`` and a read-back of every acknowledged byte.
* ``arrays(state)`` lists the live arrays, for the counters the runner
  reads before and after the timed phase.

Why these three (see README.md for the full rationale):

* ``oltp`` builds the deepest index history from small extents, and its
  working set is larger than the 256-entry cblock cache;
* ``vdi`` is dedup-heavy, reads through clone -> snapshot medium chains
  and fits in the cblock cache;
* ``tenants`` is the only one that goes through ``repro.service`` and
  ``repro.cluster`` (RF=2 fan-out, DRR, admission, shedding).
"""

from time import perf_counter as host_time
from types import SimpleNamespace

from repro.cluster import Cluster, ClusterConfig
from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.errors import PurityError
from repro.service import QosSpec, ServiceFrontend
from repro.service.request import OP_READ, OP_WRITE, VERDICT_SHED
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB
from repro.workloads.base import IOOperation, OpKind
from repro.workloads.datagen import PROFILES, DataGenerator, DataProfile
from repro.workloads.oltp import OLTPConfig, OLTPWorkload

from perfbench import tracer as tracing

# Host time is wall time. It still counts a call's full cost if the
# program moves work to other threads or processes, and the time the
# caller spends waiting for them; this thread's CPU time would not.

#: Read-back transfer size after recovery: large, so the check costs few
#: index scans.
READBACK_CHUNK = 1 * MIB
#: Seed of the simulated hardware (device latency draws, stalls). It is
#: the same in every run: ``--seed`` chooses the workload's inputs, not
#: the machine they run on.
HARDWARE_SEED = 2015
#: Seed of every workload's op sequence (see :func:`seeded_streams`).
SHAPE_SEED = 11
#: Simulated drive capacity for the single-array workloads: room for the
#: whole run without the allocator running dry between GC passes.
DRIVE_CAPACITY = 32 * MIB


class Oracle:
    """Reference model of every acknowledged write, per fixed-size block.

    Every operation of a workload is aligned to its block size, so the
    model is a dict of block index -> bytes per volume; a block never
    written reads as zeros.
    """

    def __init__(self, block):
        self.block = block
        self._zero = bytes(block)
        self.volumes = {}
        self.sizes = {}

    def create(self, volume, size):
        self.volumes[volume] = {}
        self.sizes[volume] = size

    def clone(self, source, volume):
        self.volumes[volume] = dict(self.volumes[source])
        self.sizes[volume] = self.sizes[source]

    def write(self, volume, offset, data):
        blocks = self.volumes[volume]
        block = self.block
        first = offset // block
        if len(data) == block:
            blocks[first] = data
            return
        for index in range(len(data) // block):
            blocks[first + index] = data[index * block:(index + 1) * block]

    def matches(self, volume, offset, data):
        blocks = self.volumes[volume]
        zero = self._zero
        first = offset // self.block
        expected = b"".join(
            blocks.get(index, zero)
            for index in range(first, first + len(data) // self.block)
        )
        return data == expected


class Recorder:
    """Samples of one timed phase, in issue order.

    ``tick`` is called between calls into the program, never inside a
    timed one (see :class:`perfbench.speed.Speed`).
    """

    def __init__(self, tick=lambda: None):
        self.tick = tick
        #: (is_write, host seconds) per call into the program.
        self.host = []
        #: Simulated latency (seconds) per acknowledged write / read.
        self.sim_write = []
        self.sim_read = []
        #: Stored index facts at the end of each tenth of the tape.
        self.facts_by_tenth = []
        self.attempted = 0
        self.errors = 0
        self.shed = 0
        #: Sheds the workload does not expect (see ``Tenants._check``).
        self.unexpected_sheds = 0
        self.mismatches = 0
        self.user_bytes = 0
        #: Read-back of every acknowledged byte after recovery.
        self.readback_bytes = 0
        self.readback_mismatches = 0


def seeded_streams(name, seed):
    """(shape, data) random streams for workload ``name``.

    The shape stream (op kinds, offsets, arrival times) is the same for
    every seed, so every run replays the same index history, GC schedule
    and queueing; ``--seed`` draws the bytes written (and with them what
    compresses and what deduplicates). With seeded op sequences the GC
    relocation volume, and with it the host cost per op, varied about 2x
    between seeds.
    """
    return (RandomStream(SHAPE_SEED).fork(name),
            RandomStream(seed).fork(name))


def stored_facts(arrays):
    """Physical index facts held across every relation of ``arrays``."""
    return sum(
        relation.stored_fact_count()
        for array in arrays for relation in array.tables
    )


def _tenth_ends(count):
    """Op indices (1-based) that end each tenth of a ``count``-op tape."""
    return {max(1, (count * tenth) // 10) for tenth in range(1, 11)}


def _run_tape(array, tape, oracle, rec, gc_every=0, gc_segments=0):
    """Closed loop of ``array.write``/``array.read`` over ``tape``."""
    ends = _tenth_ends(len(tape))
    for index, op in enumerate(tape, 1):
        rec.attempted += 1
        try:
            if op.kind is OpKind.WRITE:
                start = host_time()
                latency = array.write(op.volume, op.offset, op.data)
                rec.host.append((True, host_time() - start))
                rec.sim_write.append(latency)
                rec.user_bytes += len(op.data)
                oracle.write(op.volume, op.offset, op.data)
            else:
                start = host_time()
                data, latency = array.read(op.volume, op.offset, op.length)
                rec.host.append((False, host_time() - start))
                rec.sim_read.append(latency)
                if not oracle.matches(op.volume, op.offset, data):
                    rec.mismatches += 1
        except PurityError:
            rec.errors += 1
        if gc_every and index % gc_every == 0:
            array.run_gc(max_segments=gc_segments)
        if index in ends:
            rec.facts_by_tenth.append(stored_facts([array]))
        rec.tick()


def _read_back(array, oracle, rec, volumes):
    """Read every byte of ``volumes`` and compare with the model."""
    for volume in volumes:
        size = oracle.sizes[volume]
        for offset in range(0, size, READBACK_CHUNK):
            length = min(READBACK_CHUNK, size - offset)
            data, _latency = array.read(volume, offset, length)
            rec.readback_bytes += length
            if not oracle.matches(volume, offset, data):
                rec.readback_mismatches += 1


def _recover(array, tracer):
    """Crash ``array`` and bring up a new controller over its substrate.

    Returns (recovered array, ``RecoveryReport``).
    """
    shelf, boot_region, clock = array.crash()
    recover = PurityArray.recover
    args = (array.config, shelf, boot_region, clock)
    if tracer is None:
        recovered, report = recover(*args, obs=array.obs)
    else:
        recovered, report = tracer.call("core.recover", recover, *args,
                                        obs=array.obs)
        tracing.attach_array(tracer, recovered)
    return recovered, report


def _finish_array(array, oracle, rec, tracer):
    """Scrub, crash, recover, read everything back."""
    array.scrub()
    recovered, report = _recover(array, tracer)
    _read_back(recovered, oracle, rec, list(oracle.volumes))
    return [recovered], report.total_latency, report.facts_recovered


# ----------------------------------------------------------------------
# oltp


class Oltp:
    """One database volume: 8 KiB pages, 32 KiB redo-log records.

    ``OLTPWorkload`` traffic: 70% reads (30% of them 4-page prefetches),
    Zipf(0.9) page choice. The prefill writes every page once; the timed
    phase runs the mixed tape with a one-segment GC pass every
    ``GC_EVERY`` ops and drains NVRAM at the default watermark.
    """

    name = "oltp"
    #: Timed-phase ops. Host cost per op grows with every write already
    #: issued, so the count is sized from the parent commit's growth to
    #: keep one pass near 9 s there. Each workload's pass is that long,
    #: so that a run pools about three passes: on a shared 2-vCPU VM the
    #: host's speed drifts over tens of seconds, and one 15 s pass per
    #: run left the host metrics spreading up to 0.25 across runs.
    OPS = 1280
    #: Small, frequent GC passes. Four-segment passes every 256 ops made
    #: the relocated volume, and with it the index size, swing with the
    #: op sequence.
    GC_EVERY = 64
    GC_SEGMENTS = 1

    def setup(self, seed):
        shape, data = seeded_streams(self.name, seed)
        config = OLTPConfig()
        array = PurityArray.create(
            ArrayConfig.small(seed=HARDWARE_SEED,
                              drive_capacity=DRIVE_CAPACITY)
        )
        workload = OLTPWorkload(config, shape)
        # Page and log contents come from the seed; the op sequence
        # (drawn from ``shape``) does not depend on it.
        workload.generator = DataGenerator(
            config.data_profile, data.fork("pages"),
            block_size=config.page_size,
        )
        workload.log_generator = DataGenerator(
            "rdbms", data.fork("log"), block_size=4096
        )
        load = list(workload.load_trace())
        tape = list(workload.run_trace(self.OPS))
        oracle = Oracle(config.page_size)
        array.create_volume(workload.volume, workload.volume_size)
        oracle.create(workload.volume, workload.volume_size)
        for op in load:
            array.write(op.volume, op.offset, op.data)
            oracle.write(op.volume, op.offset, op.data)
        return SimpleNamespace(array=array, oracle=oracle, tape=tape)

    def arrays(self, state):
        return [state.array]

    def run(self, state, rec, tracer):
        if tracer is not None:
            tracing.attach_array(tracer, state.array)
        _run_tape(state.array, state.tape, state.oracle, rec,
                  gc_every=self.GC_EVERY, gc_segments=self.GC_SEGMENTS)

    def reduction(self, state):
        return state.array.reduction_report().data_reduction

    def finish(self, state, rec, tracer):
        return _finish_array(state.array, state.oracle, rec, tracer)


# ----------------------------------------------------------------------
# vdi

#: Desktop data: the virtualization profile's compressibility with no
#: repeats among generated blocks.
GOLD_PROFILE = DataProfile(
    "vdi-gold", PROFILES["virtualization"].compressibility, 0.0
)


class Vdi:
    """A desktop fleet cloned from one gold image.

    Setup writes a 2 MiB gold image in 32 KiB blocks, snapshots it,
    clones ``DESKTOPS`` desktops from the snapshot, gives each a few
    private blocks and empties the controller's read cache. The timed
    phase is a fleet-wide update wave (the same 32 KiB block written to
    every desktop, one position at a time) with one 256 KiB boot-storm
    read of a random desktop after every write.
    """

    name = "vdi"
    BLOCK = 32 * KIB
    IMAGE = 2 * MIB
    DESKTOPS = 32
    DELTA_BLOCKS = 2
    #: Image positions the update wave rewrites: UPDATES x DESKTOPS
    #: writes and as many reads in the timed phase.
    UPDATES = 20
    READ = 256 * KIB

    def setup(self, seed):
        shape, data = seeded_streams(self.name, seed)
        blocks = self.IMAGE // self.BLOCK
        # Gold, delta and update blocks are each distinct, so every seed
        # stores the same number of unique blocks; the fleet's
        # duplication comes from the clones and the update wave.
        gold_gen = DataGenerator(GOLD_PROFILE, data.fork("gold"),
                                 block_size=self.BLOCK)
        delta_gen = DataGenerator(GOLD_PROFILE, data.fork("delta"),
                                  block_size=self.BLOCK)
        update_gen = DataGenerator(GOLD_PROFILE, data.fork("update"),
                                   block_size=self.BLOCK)
        desktops = ["desktop%02d" % index for index in range(self.DESKTOPS)]
        gold = [gold_gen.block() for _ in range(blocks)]
        deltas = [
            [(position, delta_gen.block()) for position in
             sorted(shape.sample(range(blocks), self.DELTA_BLOCKS))]
            for _ in desktops
        ]
        positions = sorted(shape.sample(range(blocks), self.UPDATES))
        reads_per_image = self.IMAGE // self.READ
        tape = []
        for position in positions:
            payload = update_gen.block()
            for desktop in desktops:
                tape.append(IOOperation(OpKind.WRITE, desktop,
                                        position * self.BLOCK, data=payload))
                tape.append(IOOperation(
                    OpKind.READ, shape.choice(desktops),
                    shape.randint(0, reads_per_image - 1) * self.READ,
                    length=self.READ,
                ))

        array = PurityArray.create(
            ArrayConfig.small(seed=HARDWARE_SEED,
                              drive_capacity=DRIVE_CAPACITY)
        )
        oracle = Oracle(self.BLOCK)
        array.create_volume("gold", self.IMAGE)
        oracle.create("gold", self.IMAGE)
        for position, payload in enumerate(gold):
            array.write("gold", position * self.BLOCK, payload)
            oracle.write("gold", position * self.BLOCK, payload)
        array.snapshot("gold", "base")
        for desktop, desktop_deltas in zip(desktops, deltas):
            array.clone("gold", "base", desktop)
            oracle.clone("gold", desktop)
            for position, payload in desktop_deltas:
                array.write(desktop, position * self.BLOCK, payload)
                oracle.write(desktop, position * self.BLOCK, payload)
        # The boot storm starts cold, as after a controller failover:
        # the first reads of each cblock go to flash, the rest hit.
        array.datapath.drop_caches()
        return SimpleNamespace(array=array, oracle=oracle, tape=tape)

    def arrays(self, state):
        return [state.array]

    def run(self, state, rec, tracer):
        if tracer is not None:
            tracing.attach_array(tracer, state.array)
        _run_tape(state.array, state.tape, state.oracle, rec)

    def reduction(self, state):
        return state.array.reduction_report().data_reduction

    def finish(self, state, rec, tracer):
        return _finish_array(state.array, state.oracle, rec, tracer)


# ----------------------------------------------------------------------
# tenants

#: ``rdbms`` blocks with no repeats drawn by the generator: the tenants
#: workload repeats blocks itself (:class:`_Payloads`).
TENANT_PROFILE = DataProfile(
    "tenants", PROFILES["rdbms"].compressibility, 0.0
)


class _Payloads:
    """Blocks with the ``rdbms`` profile's duplication, split by seed.

    Whether a block repeats a recent one, and which, is drawn from the
    shape stream; the bytes of a fresh block from the seed. The dedup
    pattern, and with it the reduction and flash bytes, is then the
    same for every seed: a seeded repeat pattern moved ``tenants``
    flash write amplification by about 5% between seeds.
    """

    def __init__(self, shape, data, block):
        self.shape = shape
        self.fresh = DataGenerator(TENANT_PROFILE, data, block_size=block)
        self.pool = []

    def block(self):
        profile = PROFILES["rdbms"]
        if self.pool and self.shape.random() < profile.dup_fraction:
            return self.shape.choice(self.pool)
        block = self.fresh.block()
        self.pool.append(block)
        if len(self.pool) > profile.dup_pool:
            self.pool.pop(0)
        return block


class Tenants:
    """Three tenants behind ``ServiceFrontend`` on an RF=2 cluster.

    Each tenant owns one prefilled volume. The tape is 16 KiB reads and
    writes (50/50) with Poisson arrivals at a fixed rate per tenant,
    open loop in *simulated* time; bronze offers several times its
    ``iops_limit``, so its queue fills and admission sheds the excess.
    On the host it is one closed loop: submit the requests that arrive
    in the next ``WINDOW`` of simulated time, then ``run`` the front end
    up to the end of that window; ``drain`` after the last window.
    """

    name = "tenants"
    BLOCK = 16 * KIB
    SLOTS = 128
    #: Simulated seconds of offered load.
    SECONDS = 0.7
    WINDOW = 0.01
    #: (tenant = priority class, offered ops per sim second, iops_limit)
    TENANTS = (
        ("gold", 700.0, None),
        ("silver", 400.0, None),
        ("bronze", 1000.0, 300.0),
    )
    LIMITED = frozenset(tenant for tenant, _rate, limit in TENANTS
                        if limit is not None)

    def setup(self, seed):
        shape, data = seeded_streams(self.name, seed)
        data_gen = _Payloads(shape.fork("repeats"), data, self.BLOCK)
        prefill = {
            tenant: [data_gen.block() for _ in range(self.SLOTS)]
            for tenant, _rate, _limit in self.TENANTS
        }
        tape = []
        for order, (tenant, rate, _limit) in enumerate(self.TENANTS):
            arrivals = shape.fork(tenant)
            at = arrivals.expovariate(rate)
            while at < self.SECONDS:
                offset = arrivals.randint(0, self.SLOTS - 1) * self.BLOCK
                if arrivals.random() < 0.5:
                    tape.append((at, order, tenant, OP_READ, offset, None))
                else:
                    tape.append((at, order, tenant, OP_WRITE, offset,
                                 data_gen.block()))
                at += arrivals.expovariate(rate)
        tape.sort(key=lambda request: request[:2])

        cluster = Cluster(ClusterConfig(num_arrays=2, replication=2,
                                        seed=HARDWARE_SEED))
        frontend = ServiceFrontend(cluster)
        oracle = Oracle(self.BLOCK)
        size = self.SLOTS * self.BLOCK
        for tenant, _rate, limit in self.TENANTS:
            frontend.register_tenant(
                tenant, QosSpec(priority=tenant, iops_limit=limit)
            )
            frontend.create_volume(tenant, tenant, size)
            oracle.create(tenant, size)
            # Prefill goes to the backend directly: it is setup, and the
            # admission bound must not shed it.
            for slot, payload in enumerate(prefill[tenant]):
                cluster.write(tenant, slot * self.BLOCK, payload)
                oracle.write(tenant, slot * self.BLOCK, payload)
        return SimpleNamespace(cluster=cluster, frontend=frontend,
                               oracle=oracle, tape=tape)

    def arrays(self, state):
        return [state.cluster.nodes[node_id].array
                for node_id in sorted(state.cluster.nodes)]

    @staticmethod
    def _time_verbs(cluster, rec):
        """Host timer around the backend verbs the front end dispatches."""
        for attr, is_write in (("write", True), ("read", False)):
            verb = getattr(cluster, attr)

            def timed(*args, _verb=verb, _is_write=is_write, **kwargs):
                start = host_time()
                try:
                    return _verb(*args, **kwargs)
                finally:
                    rec.host.append((_is_write, host_time() - start))

            setattr(cluster, attr, timed)

    def _check(self, completions, oracle, rec):
        for completion in completions:
            request = completion.request
            if completion.verdict == VERDICT_SHED:
                rec.shed += 1
                # Nothing here degrades the arrays, so the only shed
                # expected is a full queue of a tenant over its limit.
                if (request.tenant not in self.LIMITED
                        or completion.reason != "queue-full"):
                    rec.unexpected_sheds += 1
            elif completion.error is not None:
                rec.errors += 1
            elif request.op == OP_WRITE:
                oracle.write(request.volume, request.offset, request.data)
                rec.sim_write.append(completion.latency)
                rec.user_bytes += len(request.data)
            else:
                if not oracle.matches(request.volume, request.offset,
                                      completion.data):
                    rec.mismatches += 1
                if request.tenant != "bronze":
                    rec.sim_read.append(completion.latency)

    def run(self, state, rec, tracer):
        cluster, frontend, oracle = state.cluster, state.frontend, state.oracle
        self._time_verbs(cluster, rec)
        if tracer is not None:
            tracing.attach_frontend(tracer, frontend)
            tracing.attach_cluster(tracer, cluster)
        tape = state.tape
        base = cluster.clock.now
        windows = int(round(self.SECONDS / self.WINDOW))
        ends = _tenth_ends(windows)
        cursor = 0
        for window in range(1, windows + 1):
            window_end = window * self.WINDOW
            while cursor < len(tape) and tape[cursor][0] < window_end:
                # Each tenant's volume carries the tenant's name.
                at, _order, volume, op, offset, data = tape[cursor]
                frontend.submit(op, volume, offset, data=data,
                                length=self.BLOCK if op == OP_READ else 0,
                                at=base + at)
                rec.attempted += 1
                cursor += 1
            self._check(frontend.run(until=base + window_end), oracle, rec)
            if window in ends:
                rec.facts_by_tenth.append(stored_facts(self.arrays(state)))
            rec.tick()
        self._check(frontend.drain(), oracle, rec)

    def reduction(self, state):
        return state.cluster.reduction_report().data_reduction

    def finish(self, state, rec, tracer):
        """Crash and recover every member; each must hold every
        acknowledged byte of every volume (RF=2 on two arrays)."""
        recovered = []
        recovery = []
        facts = 0
        for array in self.arrays(state):
            array.scrub()
            new_array, report = _recover(array, tracer)
            _read_back(new_array, state.oracle, rec,
                       list(state.oracle.volumes))
            recovered.append(new_array)
            recovery.append(report.total_latency)
            facts += report.facts_recovered
        # The members recover in parallel: the cluster is back when the
        # slower one is.
        return recovered, max(recovery), facts
