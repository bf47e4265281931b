"""Unit tests for the span/event trace collector."""

import pytest

from repro.obs.trace import NULL_OBS, Observability
from repro.sim.clock import SimClock


@pytest.fixture
def obs():
    return Observability(SimClock()).enable_tracing()


def test_span_nesting_and_record_shape(obs):
    root = obs.begin("io.write", volume="v0")
    child = obs.begin("compress")
    obs.clock.advance(0.5)
    obs.end(child, lat=0.001)
    obs.end(root, lat=0.002)
    records = obs.records
    assert [r["name"] for r in records] == ["compress", "io.write"]
    compress, write = records
    assert compress["parent"] == write["id"]
    assert write["parent"] == 0
    assert compress["start"] == 0.0
    assert compress["end"] == 0.5
    assert compress["attrs"] == {"lat": 0.001}
    assert write["attrs"] == {"volume": "v0", "lat": 0.002}


def test_events_attach_to_current_span(obs):
    root = obs.begin("io.write")
    obs.event("fault", kind="drive-fail", target="ssd3")
    obs.end(root)
    fault = obs.events("fault")[0]
    assert fault["parent"] == obs.spans("io.write")[0]["id"]
    assert fault["attrs"]["target"] == "ssd3"
    # Events outside any span parent to the root sentinel.
    orphan = obs.event("fault", kind="stall")
    assert orphan["parent"] == 0


def test_end_discards_abandoned_children(obs):
    # A crash unwound past the inner spans: ending the outer span must
    # pop (and discard) the orphans so the stack never corrupts.
    outer = obs.begin("io.write")
    obs.begin("dedup")
    obs.begin("compress")
    obs.end(outer, crashed=True)
    assert [r["name"] for r in obs.records] == ["io.write"]
    assert obs.current_span_id == 0
    # The collector keeps working afterwards.
    span = obs.begin("io.read")
    obs.end(span)
    assert obs.spans("io.read")


def test_span_ids_are_sequential_and_reset(obs):
    first = obs.begin("a")
    obs.end(first)
    second = obs.begin("b")
    obs.end(second)
    assert second.span_id == first.span_id + 1
    obs.reset()
    assert obs.records == []
    again = obs.begin("c")
    obs.end(again)
    assert again.span_id == first.span_id


def test_tracing_bumps_buffer_ids(obs):
    span = obs.begin("io.write")
    obs.end(span)
    obs.event("fault")
    assert obs.buffer.next_id == 3
    assert [record["type"] for record in obs.records] == ["span", "event"]


def test_null_obs_is_off():
    assert NULL_OBS.tracing is False


def test_filters(obs):
    a = obs.begin("gc.run")
    obs.end(a)
    b = obs.begin("scrub.run")
    obs.end(b)
    assert len(obs.spans()) == 2
    assert [r["name"] for r in obs.spans("gc.run")] == ["gc.run"]
    assert obs.events() == []
