"""Host-time spans around the program's public entry points.

The tracer never edits the program. After a run has built its arrays,
:func:`attach_array` (and :func:`attach_cluster`,
:func:`attach_frontend`) replace selected methods of the live instances
with wrappers stored as instance attributes, so every later call made
through the instance is timed. A span records its name, its parent
(the span open when it started), its first start and last end, and its
*active* time. For an ordinary call the active time is end minus
start. ``Relation.scan`` returns a generator, so its wrapper times
every resumption until the generator is exhausted or closed, and the
time the consumer spends between two items is not counted.

Self time is active time minus the active time of direct children. A
span nested inside a span of the same name (a re-entrant call) adds to
the self time of that name but not to its inclusive time, so inclusive
totals never count the same nanosecond twice.
"""

import json
import time
from collections import defaultdict

from repro.core import datapath as datapath_module

#: Span clock: wall time, the same host clock as the per-op timers in
#: :mod:`perfbench.workloads`.
_now = time.perf_counter_ns


class Span:
    """One timed call (or one generator's whole iteration)."""

    __slots__ = ("ident", "name", "parent", "nested", "start", "end",
                 "active", "child")

    def __init__(self, ident, name):
        self.ident = ident
        self.name = name
        self.parent = None
        self.nested = False
        self.start = None
        self.end = None
        self.active = 0
        self.child = 0


class Tracer:
    """In-memory span recorder plus counters fed by per-call hooks."""

    def __init__(self):
        self.spans = []
        #: Wrappers record only inside the traced window.
        self.enabled = False
        #: Sums and maxima that hooks add to (bytes examined, facts
        #: sampled per scan, ...), keyed by metric-ish names.
        self.totals = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._window_start = None
        #: Wall time of the traced window, gaps excluded.
        self.window_ns = 0
        self.origin = None

    # ------------------------------------------------------------------
    # Recording

    def _enter(self, span):
        stack = self._stack
        parent = stack[-1] if stack else None
        if span.start is None:
            span.parent = parent
            span.nested = self._depth[span.name] > 0
        self._depth[span.name] += 1
        stack.append(span)
        return parent

    def _leave(self, span, parent, start, end):
        self._stack.pop()
        self._depth[span.name] -= 1
        if span.start is None:
            span.start = start
        span.end = end
        span.active += end - start
        if parent is not None:
            parent.child += end - start

    def _new_span(self, name):
        span = Span(len(self.spans), name)
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._new_span(name)
        parent = self._enter(span)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(span, parent, start, _now())

    def _iterate(self, name, iterator):
        span = self._new_span(name)
        try:
            while True:
                parent = self._enter(span)
                start = _now()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._leave(span, parent, start, _now())
                yield item
        finally:
            iterator.close()

    def wrap(self, owner, attr, name, before=None, after=None):
        """Time every call of ``owner.attr`` from now on.

        ``before(tracer, args)`` and ``after(tracer, args, result)`` run
        outside the span, so what they cost is not charged to it.
        """
        fn = getattr(owner, attr)
        if getattr(fn, "tracer", None) is self:
            return  # already wrapped (drives outlive a recovery)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.tracer = self
        setattr(owner, attr, traced)

    def wrap_iter(self, owner, attr, name, before=None):
        """Like :meth:`wrap` for a method that returns a generator."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            return tracer._iterate(name, fn(*args, **kwargs))

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    # The traced window and the rollup

    def start_window(self):
        """Start (or resume) recording; the window may have gaps."""
        self.enabled = True
        if self.origin is None:
            self.origin = _now()
        self._window_start = _now()

    def stop_window(self):
        self.window_ns += _now() - self._window_start
        self.enabled = False

    def rollup(self):
        """name -> {"calls", "incl_ns", "self_ns"}, plus root span time."""
        stats = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
        root_ns = 0
        for span in self.spans:
            row = stats[span.name]
            row["calls"] += 1
            if not span.nested:
                row["incl_ns"] += span.active
            row["self_ns"] += span.active - span.child
            if span.parent is None:
                root_ns += span.active
        return dict(stats), root_ns

    def child_calls(self, name, parent_name):
        """Spans called ``name`` whose parent is called ``parent_name``."""
        return sum(
            1 for span in self.spans
            if span.name == name and span.parent is not None
            and span.parent.name == parent_name
        )

    def dump(self, path):
        """Write every span as one JSON line (times relative to the
        window start, in nanoseconds)."""
        origin = self.origin
        with open(path, "w") as handle:
            for span in self.spans:
                if span.start is None:
                    continue
                handle.write(json.dumps({
                    "id": span.ident,
                    "name": span.name,
                    "parent": None if span.parent is None
                    else span.parent.ident,
                    "start_ns": span.start - origin,
                    "end_ns": span.end - origin,
                    "active_ns": span.active,
                    "self_ns": span.active - span.child,
                }) + "\n")


# ----------------------------------------------------------------------
# Hooks: counts taken where the work happens


def _sample_relation(relation):
    def before(tracer, _args):
        tracer.totals["pyramid.scan_facts"] += relation.stored_fact_count()
        patches = relation.pyramid.patch_count
        if patches > tracer.maxima["pyramid.patches_max"]:
            tracer.maxima["pyramid.patches_max"] = patches
    return before


def _note_gc(tracer, _args, report):
    tracer.totals["core.gc.segments"] += report.segments_collected
    tracer.totals["core.gc.bytes_rewritten"] += report.bytes_rewritten


def _note_dedup(tracer, args, matches):
    tracer.totals["dedup.examined_bytes"] += len(args[0])
    tracer.totals["dedup.matched_bytes"] += sum(
        match.byte_length for match in matches
    )


def _note_compress(tracer, args, payload):
    tracer.totals["compression.in_bytes"] += len(args[0])
    tracer.totals["compression.out_bytes"] += len(payload)


def _note_encode(tracer, args):
    tracer.totals["erasure.encode_bytes"] += args[0].nbytes


def _note_ssd_write(tracer, args):
    tracer.totals["ssd.bytes_written"] += len(args[1])


def _note_ssd_read(tracer, args):
    tracer.totals["ssd.bytes_read"] += args[1]


# ----------------------------------------------------------------------
# Installing wrappers on live instances


def attach_array(tracer, array):
    """Wrap one array's layer entry points (call again after recover)."""
    for relation in array.tables:
        tracer.wrap_iter(relation, "scan", "pyramid.scan",
                         before=_sample_relation(relation))
        tracer.wrap(relation, "get", "pyramid.get")
    tracer.wrap(array, "write", "core.write")
    tracer.wrap(array, "read", "core.read")
    tracer.wrap(array, "run_gc", "core.gc", after=_note_gc)
    tracer.wrap(array, "scrub", "core.scrub")
    tracer.wrap(array.pipeline, "commit_raw_write", "core.commit")
    tracer.wrap(array.pipeline, "drain", "core.drain")
    datapath = array.datapath
    tracer.wrap(datapath.deduper, "find_matches", "dedup.find_matches",
                after=_note_dedup)
    tracer.wrap(datapath.compressor, "compress", "compression.compress",
                after=_note_compress)
    tracer.wrap(array.segwriter, "append_data", "layout.append")
    tracer.wrap(array.segwriter, "flush", "layout.flush")
    tracer.wrap(array.segreader, "read_payload", "layout.read_payload")
    tracer.wrap(array.codec, "encode_stripes", "erasure.encode",
                before=_note_encode)
    tracer.wrap(array.codec, "reconstruct", "erasure.reconstruct")
    for drive in array.drives.values():
        tracer.wrap(drive, "write", "ssd.write", before=_note_ssd_write)
        tracer.wrap(drive, "read", "ssd.read", before=_note_ssd_read)
    tracer.wrap(array.medium_table, "ranges_of", "mediums.ranges_of")


def attach_cluster(tracer, cluster):
    """Wrap the cluster verbs and every member's array."""
    tracer.wrap(cluster, "write", "cluster.write")
    tracer.wrap(cluster, "read", "cluster.read")
    tracer.wrap(cluster, "advance", "cluster.advance")
    for node in cluster.nodes.values():
        attach_array(tracer, node.array)


def attach_frontend(tracer, frontend):
    """Wrap the service front end's dispatch loop."""
    tracer.wrap(frontend, "run", "service.run")
    tracer.wrap(frontend, "drain", "service.drain")


def patch_parse_cblock(tracer):
    """Time cblock decompression at the module that imports it.

    ``parse_cblock`` is a module-level function, so the wrapper is
    installed on ``repro.core.datapath`` (once per process).
    """
    tracer.wrap(datapath_module, "parse_cblock", "compression.decompress")
