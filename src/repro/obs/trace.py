"""Deterministic per-I/O tracing on the simulated clock.

A client operation opens a root span (``io.write``, ``io.read``);
pipeline stages open child spans (``nvram-commit``, ``dedup``,
``compress``, ``segio-append``, ``segio.flush``, ``rs-encode``,
``cblock-read``, ``segread.reconstruct``); background services get
their own roots (``gc.run``, ``scrub.run``, ``recovery``, ``rebuild``).
Point events (``fault``) share the span tree, which is what makes the
fault-correlation report a pure join.

Determinism contract: span ids are a per-:class:`Observability`
sequence, timestamps are :class:`~repro.sim.clock.SimClock` readings,
and simulated durations travel as explicit ``lat`` attributes (the sim
clock does not advance *inside* a pipeline stage — stages report the
latency their device models charged). Nothing wall-clock ever enters a
record, so the same seed emits byte-identical JSONL.

Cost contract: every instrumented site is guarded by
``obs is not None and obs.tracing`` — one attribute test and one flag
test, no allocation — when tracing is off. Every span and event takes
the next id from the buffer's ``next_id``, which is how the golden test
proves the disabled hot path allocates nothing.
"""


class Span:
    """One open span; finished spans become plain trace records."""

    __slots__ = ("span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, span_id, parent_id, name, start, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def set(self, **attrs):
        """Attach attributes (e.g. the simulated latency) before end."""
        self.attrs.update(attrs)


class TraceBuffer:
    """The mutable trace state: finished records, open stack, id counter.

    Split out of :class:`Observability` so several instances can share
    one buffer while keeping separate metric registries — the cluster
    layer gives every array node its own ``Observability`` (per-node
    metrics scoping) but threads one ``TraceBuffer`` through the
    client, the metadata manager, and every node, so a single trace
    follows an I/O across the client→MDM→node hop and through a
    failover. Span ids come from the shared counter, which keeps the
    interleaved multi-node trace deterministic.
    """

    __slots__ = ("records", "stack", "next_id")

    def __init__(self):
        #: Finished spans and fired events, in completion order.
        self.records = []
        self.stack = []
        self.next_id = 1

    def reset(self):
        self.records.clear()
        self.stack.clear()
        self.next_id = 1


class Observability:
    """Trace collector + metrics registry for one simulated system.

    One instance follows a system across controller failovers (pass it
    back through ``PurityArray.recover``), so a chaos run's whole
    timeline lands in a single trace. Passing an existing ``buffer``
    (see :class:`TraceBuffer`) joins this instance onto another's
    trace while keeping its metrics registry private — the per-node
    scoping the cluster layer relies on.
    """

    def __init__(self, clock, registry=None, buffer=None):
        from repro.obs.metrics import MetricsRegistry

        self.clock = clock
        #: The single flag every instrumented site checks.
        self.tracing = False
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.buffer = buffer if buffer is not None else TraceBuffer()

    @property
    def records(self):
        """Finished spans and fired events, in completion order."""
        return self.buffer.records

    # -- switches -------------------------------------------------------

    def enable_tracing(self):
        self.tracing = True
        return self

    def disable_tracing(self):
        self.tracing = False
        return self

    def reset(self):
        """Drop collected records and restart span numbering."""
        self.buffer.reset()

    # -- spans ----------------------------------------------------------

    @property
    def current_span_id(self):
        stack = self.buffer.stack
        return stack[-1].span_id if stack else 0

    def begin(self, name, **attrs):
        """Open a child of the current span; returns the :class:`Span`.

        Callers must pair with :meth:`end` (use ``try/finally`` where
        injected crashes can unwind through the stage).
        """
        buffer = self.buffer
        span = Span(buffer.next_id, self.current_span_id, name,
                    self.clock.now, attrs)
        buffer.next_id += 1
        buffer.stack.append(span)
        return span

    def end(self, span, **attrs):
        """Close ``span``; abandoned inner spans (crash unwinds that
        skipped their ``end``) are discarded, keeping replay exact."""
        if attrs:
            span.attrs.update(attrs)
        stack = self.buffer.stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        self.buffer.records.append({
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": self.clock.now,
            "attrs": span.attrs,
        })

    def event(self, name, **attrs):
        """Record a point event (fault firings, crashes) in the tree."""
        buffer = self.buffer
        record = {
            "type": "event",
            "id": buffer.next_id,
            "parent": self.current_span_id,
            "name": name,
            "time": self.clock.now,
            "attrs": attrs,
        }
        buffer.next_id += 1
        buffer.records.append(record)
        return record

    # -- views ----------------------------------------------------------

    def spans(self, name=None):
        """Finished span records, optionally filtered by name."""
        return [
            record for record in self.records
            if record["type"] == "span" and (name is None or record["name"] == name)
        ]

    def events(self, name=None):
        return [
            record for record in self.records
            if record["type"] == "event" and (name is None or record["name"] == name)
        ]


#: Shared always-off instance for components constructed standalone
#: (unit tests); real arrays wire their own Observability in.
class _NullClock:
    now = 0.0


NULL_OBS = Observability(_NullClock())
