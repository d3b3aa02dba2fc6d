"""Tests for ``repro explain`` and ``repro fleet --explain`` CLI wiring."""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.obs.blame import EXPLAIN_SCHEMA


def _run(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestExplainCli:
    def test_text_report_renders(self):
        status, text = _run("explain")
        assert status == 0
        assert "== explain: chaos.waves" in text
        assert "== blame (all requests) ==" in text
        assert "p99 cohort" in text
        assert "== slowest" in text

    def test_json_stdout_is_schema_tagged_and_stable(self):
        status1, first = _run("explain", "--json", "-")
        status2, second = _run("explain", "--json", "-")
        assert status1 == status2 == 0
        assert first == second
        data = json.loads(first[first.index("{"):])
        assert data["schema"] == EXPLAIN_SCHEMA
        assert data["lifecycle_problems"] == []
        agg = data["aggregate"]
        assert sum(agg["blame_ns"].values()) == agg["total_latency_ns"]

    def test_json_file_output(self, tmp_path):
        path = tmp_path / "explain.json"
        status, _ = _run("explain", "--json", str(path))
        assert status == 0
        data = json.loads(path.read_text())
        assert data["schema"] == EXPLAIN_SCHEMA
        assert data["requests"], "per-request waterfalls must serialize"

    def test_trace_out_carries_blame_bars(self, tmp_path):
        path = tmp_path / "trace.json"
        status, _ = _run("explain", "--trace-out", str(path))
        assert status == 0
        trace = json.loads(path.read_text())
        bars = [e for e in trace["traceEvents"]
                if e.get("cat") == "sim.blame"]
        assert bars, "critical-path bars must overlay the request lanes"
        assert {b["args"]["phase"] for b in bars} & {"queue_wait", "decode"}

    def test_top_flag_bounds_exemplars(self):
        status, text = _run("explain", "--top", "1")
        assert status == 0
        assert "== slowest 1 requests ==" in text

    def test_unknown_scenario_exits_2(self):
        status, text = _run("explain", "--scenario", "nope")
        assert status == 2
        assert "error:" in text


class TestFleetExplainCli:
    ARGS = ("fleet", "--devices", "6", "--qps", "8",
            "--horizon-seconds", "5", "--seed", "3", "--no-capacity-plan",
            "--faults", "dev#0:crash@1:2,dev#1:drop@2", "--hedge")

    def test_explain_section_rendered_and_serialized(self, tmp_path):
        path = tmp_path / "fleet.json"
        status, text = _run(*self.ARGS, "--explain", "--json", str(path))
        assert status == 0
        assert "== blame (critical path," in text
        data = json.loads(path.read_text())
        explain = data["explain"]
        assert explain["schema"] == EXPLAIN_SCHEMA
        assert explain["aggregate"]["n_requests"] == \
            data["requests"]["offered"]

    def test_without_flag_no_explain_key(self, tmp_path):
        path = tmp_path / "fleet.json"
        status, text = _run(*self.ARGS, "--json", str(path))
        assert status == 0
        assert "== blame" not in text
        assert "explain" not in json.loads(path.read_text())
