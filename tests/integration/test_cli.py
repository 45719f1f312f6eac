"""Tests for the command-line interface."""

import pytest

from repro.cli import main

P2 = """
program P2
var x := 0, y := 4
do
     la: x < y -> x := x + 1
  [] lb: x < y -> skip
od
"""

SPIN = """
program Spin
var x := 0
do
  go: true -> skip
od
"""


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.gcl"
    path.write_text(P2)
    return str(path)


@pytest.fixture
def spin_file(tmp_path):
    path = tmp_path / "spin.gcl"
    path.write_text(SPIN)
    return str(path)


class TestShow:
    def test_round_trips_program(self, p2_file, capsys):
        assert main(["show", p2_file]) == 0
        out = capsys.readouterr().out
        assert "program P2" in out
        assert "la: x < y" in out


class TestExplore:
    def test_reports_counts(self, p2_file, capsys):
        assert main(["explore", p2_file]) == 0
        out = capsys.readouterr().out
        assert "5 states" in out
        assert "terminal states: 1" in out


class TestDecide:
    def test_fairly_terminating_returns_zero(self, p2_file, capsys):
        assert main(["decide", p2_file]) == 0
        assert "fairly terminates" in capsys.readouterr().out

    def test_counterexample_returns_one(self, spin_file, capsys):
        assert main(["decide", spin_file]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_bounded_note(self, tmp_path, capsys):
        path = tmp_path / "up.gcl"
        path.write_text("program Up var x := 0 do a: true -> x := x + 1 od")
        assert main(["decide", str(path), "--max-states", "10"]) == 0
        assert "explored" in capsys.readouterr().out


class TestDecideStream:
    def test_fairly_terminating_matches_materialized(self, p2_file, capsys):
        assert main(["decide", p2_file, "--stream"]) == 0
        out = capsys.readouterr().out
        assert "fairly terminates" in out
        assert "engine:" in out
        assert "verdict at" in out

    def test_counterexample_returns_one(self, spin_file, capsys):
        assert main(["decide", spin_file, "--stream"]) == 1
        assert "counterexample" in capsys.readouterr().out


class TestCheckStream:
    @pytest.fixture
    def p2_assert_file(self, tmp_path):
        path = tmp_path / "p2.assert"
        path.write_text("la\nT: max(y - x, 0)\n")
        return str(path)

    def test_stream_passes(self, p2_file, p2_assert_file, capsys):
        code = main(
            ["check", p2_file, "--assertion", p2_assert_file, "--stream"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "verdict at" in out

    def test_fail_fast_stops_early(self, p2_file, tmp_path, capsys):
        # Dropping the la hypothesis breaks (V_A) on lb self-loops.
        bad = tmp_path / "bad.assert"
        bad.write_text("T: max(y - x, 0)\n")
        code = main(
            ["check", p2_file, "--assertion", str(bad), "--fail-fast"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "stopped early" in out


class TestCheck:
    def test_second_run_hits_the_graph_cache(self, p2_file, tmp_path, capsys):
        # The bad assertion fails (V_A) on the lb self-loops, so the
        # verdict line carries violation counts worth comparing.
        bad = tmp_path / "bad.assert"
        bad.write_text("T: max(y - x, 0)\n")
        cache = str(tmp_path / "cache")
        argv = [
            "check", p2_file, "--assertion", str(bad), "--cache-dir", cache
        ]

        def run():
            assert main(argv) == 1
            lines = capsys.readouterr().out.splitlines()
            cache_lines = [l for l in lines if l.startswith("graph cache:")]
            verdict = next(l for l in lines if l.startswith("P2 with"))
            return cache_lines, verdict

        cold_cache, cold_verdict = run()
        warm_cache, warm_verdict = run()
        assert cold_cache == [f"graph cache: miss ({cache})"]
        assert warm_cache == [f"graph cache: hit ({cache})"]
        assert warm_verdict == cold_verdict


class TestSynthesize:
    def test_success(self, p2_file, capsys):
        assert main(["synthesize", p2_file, "--stacks"]) == 0
        out = capsys.readouterr().out
        assert "synthesised and verified" in out
        assert "(la: 0 / T:" in out

    def test_failure_reports_witness(self, spin_file, capsys):
        assert main(["synthesize", spin_file]) == 1
        assert "does not fairly terminate" in capsys.readouterr().out

    def test_incomplete_exploration_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "up.gcl"
        path.write_text("program Up var x := 0 do a: true -> x := x + 1 od")
        assert main(["synthesize", str(path), "--max-states", "5"]) == 2


class TestSimulate:
    def test_fair_run(self, p2_file, capsys):
        assert main(["simulate", p2_file]) == 0
        out = capsys.readouterr().out
        assert "terminated" in out
        assert "la: executed 4 times" in out

    def test_starved_run(self, p2_file, capsys):
        assert main(["simulate", p2_file, "--steps", "50", "--starve", "la"]) == 0
        out = capsys.readouterr().out
        assert "still running" in out
        assert "la: executed 0 times" in out


class TestCompare:
    def test_reports_all_methods(self, p2_file, capsys):
        assert main(["compare", p2_file]) == 0
        out = capsys.readouterr().out
        assert "stack assertions" in out
        assert "helpful directions" in out
        assert "explicit scheduler" in out

    def test_incomplete_exploration_rejected(self, tmp_path):
        path = tmp_path / "up.gcl"
        path.write_text("program Up var x := 0 do a: true -> x := x + 1 od")
        assert main(["compare", str(path), "--max-states", "5"]) == 2


class TestNotions:
    def test_hierarchy_reported(self, p2_file, capsys):
        assert main(["notions", p2_file]) == 0
        out = capsys.readouterr().out
        assert "weak fairness" in out
        assert "strong fairness" in out
        assert "impartiality" in out
        # P2 terminates under all three.
        assert "does NOT terminate" not in out

    def test_spin_fails_all(self, spin_file, capsys):
        assert main(["notions", spin_file]) == 0
        out = capsys.readouterr().out
        assert out.count("does NOT terminate") == 3


class TestResponse:
    def test_holding_property(self, p2_file, capsys):
        # In P2, x == 2 always eventually leads to x == 4 under fairness.
        code = main(
            [
                "response",
                p2_file,
                "--trigger",
                "x == 2",
                "--response",
                "x == 4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "holds under strong fairness" in out
        assert "response measure synthesised and verified" in out

    def test_failing_property(self, spin_file, capsys):
        code = main(
            ["response", spin_file, "--trigger", "true", "--response", "false"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILS" in out
        assert "counterexample" in out


class TestSynthesizeProfile:
    def test_profile_flag(self, p2_file, capsys):
        assert main(["synthesize", p2_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stack heights" in out
        assert "active on la" in out


class TestTree:
    def test_reports_construction_stats(self, p2_file, capsys):
        assert main(["tree", p2_file, "--max-depth", "5"]) == 0
        out = capsys.readouterr().out
        assert "case 1" in out
        assert "longest chain" in out
        assert "PASS" in out

BOOM = """
program Boom
var x := 0
do
     a: x < 3 -> x := x + 1
  [] b: x == 2 -> x := 5 div (x - 2)
od
"""


class TestEventStream:
    def test_events_out_writes_a_validating_stream(self, p2_file, tmp_path):
        from repro.telemetry.schema import validate_event_stream

        out = tmp_path / "events.ndjson"
        assert main(["decide", p2_file, "--events-out", str(out)]) == 0
        parsed = validate_event_stream(out.read_text())
        names = [event["event"] for event in parsed]
        assert names[0] == "run.start"
        assert names[-1] == "run.end"
        assert "explore.summary" in names
        assert "decide.verdict" in names
        assert "phase.begin" in names and "phase.end" in names
        start = parsed[0]["data"]
        assert start["command"] == "decide"
        assert start["file"] == p2_file
        end = parsed[-1]["data"]
        assert end["exit_code"] == 0
        assert end["crashed"] is False
        assert end["seconds"] >= 0.0

    def test_streaming_decide_emits_stage_events(self, p2_file, tmp_path):
        from repro.telemetry.schema import validate_event_stream

        out = tmp_path / "events.ndjson"
        code = main(["decide", p2_file, "--stream", "--events-out", str(out)])
        assert code == 0
        names = [e["event"] for e in validate_event_stream(out.read_text())]
        assert "stream.stage" in names

    def test_check_emits_a_verify_verdict(self, p2_file, tmp_path):
        from repro.telemetry.schema import validate_event_stream

        assertion = tmp_path / "p2.assert"
        assertion.write_text("la\nT: max(y - x, 0)\n")
        out = tmp_path / "events.ndjson"
        code = main([
            "check", p2_file, "--assertion", str(assertion),
            "--events-out", str(out),
        ])
        assert code == 0
        parsed = validate_event_stream(out.read_text())
        verdicts = [e for e in parsed if e["event"] == "verify.verdict"]
        assert verdicts
        assert verdicts[-1]["data"]["ok"] is True
        assert verdicts[-1]["data"]["violations"] == 0

    def test_run_end_present_even_on_nonzero_exit(self, spin_file, tmp_path):
        from repro.telemetry.schema import validate_event_stream

        out = tmp_path / "events.ndjson"
        assert main(["decide", spin_file, "--events-out", str(out)]) == 1
        parsed = validate_event_stream(out.read_text())
        assert parsed[-1]["event"] == "run.end"
        assert parsed[-1]["data"]["exit_code"] == 1


class TestPostmortem:
    @pytest.fixture
    def boom_file(self, tmp_path):
        path = tmp_path / "boom.gcl"
        path.write_text(BOOM)
        return str(path)

    def test_crash_dumps_a_validating_postmortem(
        self, boom_file, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro.gcl.errors import EvalError
        from repro.telemetry.schema import validate_postmortem

        monkeypatch.chdir(tmp_path)
        with pytest.raises(EvalError, match="division by zero"):
            main(["decide", boom_file])
        err = capsys.readouterr().err
        assert "postmortem written:" in err
        dumps = list(tmp_path.glob("postmortem-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text())
        validate_postmortem(document)
        assert document["command"] == "decide"
        assert document["error"]["type"] == "EvalError"
        assert "division by zero" in document["error"]["message"]
        assert any(
            "EvalError" in line for line in document["error"]["traceback"]
        )
        # The flight-recorder tail made it into the dump, gap-free, and
        # the run got as far as starting: the crash context is readable.
        seqs = [event["seq"] for event in document["events"]]
        assert seqs and seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert document["events"][0]["event"] == "run.start"

    def test_healthy_runs_write_no_postmortem(
        self, p2_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["decide", p2_file]) == 0
        assert list(tmp_path.glob("postmortem-*.json")) == []


class TestExpose:
    def test_expose_serves_during_the_run(self, p2_file, capsys):
        assert main(["decide", p2_file, "--expose", "0"]) == 0
        err = capsys.readouterr().err
        assert "expose: serving /metrics /events /healthz on http://" in err
