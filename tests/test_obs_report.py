"""Trace reports: the top-k table ranks span families by self time."""

import pytest

from repro.obs.report import render_report, top_spans


def _span(span_id, name, start, duration, parent=None, pid=1):
    return {
        "name": name, "span_id": span_id, "parent_id": parent, "pid": pid,
        "start": start, "duration": duration, "attrs": {},
    }


def _nested_trace():
    """A run whose leaf solve holds almost all of the wall time."""
    return [
        _span("a", "mc.run", 0.0, 10.0),
        _span("b", "runtime.job", 0.5, 9.0, parent="a"),
        _span("c", "solver.solve", 1.0, 8.0, parent="b"),
    ]


class TestTopSpans:
    def test_child_with_largest_self_time_ranks_first(self):
        rows = top_spans(_nested_trace())
        assert [row["name"] for row in rows] == [
            "solver.solve", "mc.run", "runtime.job",
        ]
        by_name = {row["name"]: row for row in rows}
        assert by_name["solver.solve"]["self"] == pytest.approx(8.0)
        assert by_name["runtime.job"]["self"] == pytest.approx(1.0)
        # Total time is kept as a column: the root still spans it all.
        assert by_name["mc.run"]["total"] == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            _span("a", "runtime.execute", 0.0, 4.0),
            _span("b", "runtime.chunk", 0.0, 3.0, parent="a"),
            _span("c", "runtime.chunk", 1.0, 2.5, parent="a"),
        ]
        by_name = {row["name"]: row for row in top_spans(spans)}
        assert by_name["runtime.execute"]["self"] == pytest.approx(0.5)
        assert by_name["runtime.chunk"]["self"] == pytest.approx(5.5)

    def test_children_clipped_to_the_parent_interval(self):
        spans = [
            _span("a", "runtime.chunk", 0.0, 2.0),
            _span("b", "runtime.job", 1.5, 1.0, parent="a", pid=2),
        ]
        by_name = {row["name"]: row for row in top_spans(spans)}
        assert by_name["runtime.chunk"]["self"] == pytest.approx(1.5)

    def test_report_names_the_ranking_and_both_columns(self):
        text = render_report(_nested_trace())
        assert "span families by self time" in text
        header = next(line for line in text.splitlines()
                      if line.startswith("span "))
        assert header.split()[:4] == ["span", "count", "self", "total"]
        table = text.split("by self time:")[1]
        assert table.index("solver.solve") < table.index("mc.run")
