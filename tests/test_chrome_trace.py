"""Chrome Trace Event format validation (satellite of the observatory).

A generic validator for the subset of the Trace Event format the tracer
emits — complete ("X") duration events on one thread — applied to both
synthetic span trees and a real instrumented join.
"""

from __future__ import annotations

import json

from repro.join.api import spatial_join
from repro.obs import Observability
from repro.obs.tracer import Tracer

from tests.conftest import make_squares


def validate_trace(trace: dict) -> list[dict]:
    """Assert Trace Event schema invariants; return the X events.

    - the document is JSON-serializable with a ``traceEvents`` list;
    - every event has ``ph`` "X", numeric ``ts``/``dur`` (microseconds,
      non-negative) and integer ``pid``/``tid``;
    - within each tid, X events are properly nested: sorted by start
      time, a later event either starts at-or-after the previous one's
      end or lies entirely inside it (no partial overlap — the matched
      begin/end pair property, phrased for complete events).
    """
    json.dumps(trace)
    x_events = trace["traceEvents"]
    assert isinstance(x_events, list)
    assert all(event["ph"] == "X" for event in x_events)

    for event in x_events:
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float))
        assert event["dur"] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["name"], str) and event["name"]

    by_tid: dict[int, list[dict]] = {}
    for event in x_events:
        by_tid.setdefault(event["tid"], []).append(event)
    for tid, lane in by_tid.items():
        lane.sort(key=lambda event: (event["ts"], -event["dur"]))
        open_stack: list[tuple[float, float]] = []
        for event in lane:
            start, end = event["ts"], event["ts"] + event["dur"]
            while open_stack and start >= open_stack[-1][1] - 1e-6:
                open_stack.pop()
            if open_stack:
                # Strictly inside the innermost open event: nesting.
                assert end <= open_stack[-1][1] + 1e-6, (
                    f"tid {tid}: event {event['name']!r} partially "
                    f"overlaps its predecessor"
                )
            open_stack.append((start, end))
    return x_events


class TestSyntheticTraces:
    def test_nested_spans_validate(self):
        tracer = Tracer()
        with tracer.span("partition", kind="phase"):
            with tracer.span("partition:A", side="A"):
                pass
            with tracer.span("partition:B", side="B"):
                pass
        x_events = validate_trace(tracer.to_chrome_trace())
        assert [event["name"] for event in x_events] == [
            "partition", "partition:A", "partition:B",
        ]

    def test_unsharded_trace_has_no_metadata_events(self):
        # Regression guard: traces keep the historical shape (X events
        # only, single tid).
        tracer = Tracer()
        with tracer.span("sort", kind="phase"):
            pass
        events = tracer.to_chrome_trace()["traceEvents"]
        assert all(event["ph"] == "X" for event in events)
        assert {event["tid"] for event in events} == {1}

    def test_shard_named_spans_stay_on_the_one_thread(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("shard:cell-0"):
                pass
        events = validate_trace(tracer.to_chrome_trace())
        assert {event["tid"] for event in events} == {1}


class TestJoinRunTrace:
    def test_instrumented_join_trace_validates(self):
        dataset_a = make_squares(120, side=0.01, seed=1, name="A")
        dataset_b = make_squares(150, side=0.02, seed=2, name="B")
        obs = Observability()
        spatial_join(dataset_a, dataset_b, obs=obs)
        x_events = validate_trace(obs.tracer.to_chrome_trace())
        root = next(e for e in x_events if e["name"] == "spatial_join")
        assert {"partition", "sort", "join"} <= {e["name"] for e in x_events}
        for event in x_events:
            assert event["ts"] >= root["ts"] - 1.0
            assert event["ts"] + event["dur"] <= root["ts"] + root["dur"] + 1.0
