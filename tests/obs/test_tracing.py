"""Spans: nesting, attributes, simulator-clock-only timestamps, and
byte-identical traces for identical seeds."""

import dataclasses
import pathlib

from repro.obs.tracing import MAX_FINISHED_SPANS, Tracer
from repro.sim.core import Simulator


def sim_tracer():
    simulator = Simulator()
    return simulator, Tracer(lambda: simulator.now)


class TestSpanNesting:
    def test_child_links_to_parent(self):
        _sim, tracer = sim_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.span.parent_id == outer.span.span_id
            assert [span.name for span in tracer._stack] == ["outer"]
        assert not tracer._stack
        names = [span.name for span in tracer.finished]
        assert names == ["inner", "outer"]  # finish order: children first

    def test_siblings_share_parent(self):
        _sim, tracer = sim_tracer()
        with tracer.span("root") as root:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.span.parent_id == root.span.span_id
        assert second.span.parent_id == root.span.span_id
        assert root.span.parent_id is None

    def test_span_ids_are_sequential(self):
        _sim, tracer = sim_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [span.span_id for span in tracer.finished] == [2, 1, 3]

    def test_exception_marks_span_and_unwinds(self):
        _sim, tracer = sim_tracer()
        try:
            with tracer.span("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert not tracer._stack
        (span,) = tracer.finished
        assert span.attributes["error"] == "ValueError"


class TestSimulatorClock:
    def test_span_measures_virtual_time(self):
        simulator, tracer = sim_tracer()

        def workload():
            with tracer.span("timed"):
                yield simulator.timeout(1.5)
                yield simulator.timeout(0.5)

        simulator.run_process(workload())
        (span,) = tracer.finished
        assert span.start == 0.0
        assert span.end == 2.0

    def test_attributes_stringify(self):
        _sim, tracer = sim_tracer()
        with tracer.span("s", count=3, extra=7):
            pass
        (span,) = tracer.finished
        assert span.attributes == {"count": "3", "extra": "7"}

    def test_identical_runs_produce_identical_traces(self):
        def run():
            simulator, tracer = sim_tracer()

            def workload():
                for index in range(3):
                    with tracer.span("op", round=index):
                        yield simulator.timeout(0.25)

            simulator.run_process(workload())
            return [dataclasses.asdict(span) for span in tracer.finished]

        assert run() == run()


class TestRetention:
    def test_keeps_the_newest_spans_up_to_the_cap(self):
        _sim, tracer = sim_tracer()
        longest = 0
        for _ in range(5 * MAX_FINISHED_SPANS):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            longest = max(longest, len(tracer.finished))
        total = 10 * MAX_FINISHED_SPANS
        assert len(tracer.finished) == longest == MAX_FINISHED_SPANS
        # Finish order is inner (even id), then its outer (odd id).
        everything = [i for k in range(1, total, 2) for i in (k + 1, k)]
        kept = [span.span_id for span in tracer.finished]
        assert kept == everything[-len(kept):]
        for span in tracer.finished:
            if span.name == "inner":
                assert span.parent_id == span.span_id - 1
            else:
                assert span.parent_id is None


def test_obs_sources_never_touch_the_wall_clock():
    """The acceptance criterion: no wall-clock access in repro.obs.

    Enforced through the SRC101 AST rule rather than a substring scan,
    so comments or string literals mentioning ``time.time`` cannot
    produce false positives — only real imports and calls count.
    """
    from repro.analysis.engine import analyze_sources

    obs_dir = (pathlib.Path(__file__).resolve().parents[2]
               / "src" / "repro" / "obs")
    findings = [finding for finding in analyze_sources(obs_dir)
                if finding.code == "SRC101"]
    assert findings == [], "\n".join(
        f"{finding.location}: {finding.message}" for finding in findings)
