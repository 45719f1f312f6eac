"""Tests of the verdict benchmark at smoke sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from inputs import WORKLOADS, Expected, paper_program, renaming, workload, write_inputs
from oracle import FAILED, OK, WRONG, judge, judge_counts

from repro.engine.reference import check_measure_reference
from repro.gcl.program import parse_program
from repro.measures.assertfile import parse_assertion_file
from repro.measures.verification import check_measure
from repro.ts.explore import explore
from repro.workloads import distributed_ring, grid_hypercube, p1, p2, p3_bounded, p4_bounded

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def context(tmp_path):
    def make(name: str, seed: int = 7) -> run.Context:
        ctx = run.Context(
            load=workload(name, "smoke"), seed=seed, work=tmp_path,
            env=run.child_env(ROOT), shm_before=run.shm_segments(),
        )
        run.setup(ctx, tmp_path / "inputs")
        return ctx

    return make


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracle_accepts_a_correct_pass(context, name):
    ctx = context(name)
    result = run.run_pass(ctx)
    assert [(op.command, op.key, op.judgement.status) for op in result.ops] == [
        (command, spec.key, OK) for command in ("decide", "synthesize", "check")
        for spec in ctx.load.programs
    ], [op.judgement.reason for op in result.ops]
    assert ctx.shm_leaks == 0
    checks = [op for op in result.ops if op.command == "check"]
    assert sum(op.judgement.transitions_checked for op in checks) == sum(
        spec.expected.transitions for spec in ctx.load.programs
    )


RING = Expected(states=192, transitions=336, terminates=False, violations=192)
TRACEBACK = (
    "postmortem written: ./postmortem-1.json\nTraceback (most recent call last):\n"
    '  File "synthesis.py", line 385, in _synthesize_inner\n'
    "TypeError: cannot pickle memoryview objects\n"
)


def test_crash_with_exit_1_is_a_failure_not_a_no_verdict():
    verdict = judge("synthesize", "Ring", RING, 1, "graph cache: hit (d)\n", TRACEBACK)
    assert verdict.status == FAILED
    assert "memoryview" in verdict.reason
    # Exit 1 with neither a traceback nor the expected line is no verdict.
    assert judge("synthesize", "Ring", RING, 1, "", "").status == FAILED
    # A postmortem on disk fails the operation even when the output looks right.
    good = "Ring does not fairly terminate: region\n  ⟨t=0⟩ -pass0-> ⟨t=1⟩\n"
    assert judge("synthesize", "Ring", RING, 1, good, "").status == OK
    assert judge("synthesize", "Ring", RING, 1, good, "", postmortems=1).status == FAILED


def test_crashed_operation_is_charged_and_counted():
    child = run.Child(code=1, wall_s=0.4, peak_rss_kb=99_000, stdout="", stderr=TRACEBACK,
                      timed_out=False, postmortems=1)
    crashed = run.Op("synthesize", "ring", child, judge("synthesize", "Ring", RING, 1, "", TRACEBACK))
    fine = run.Child(code=0, wall_s=0.5, peak_rss_kb=50_000, stdout="", stderr="",
                     timed_out=False, postmortems=0)
    decided = run.Op("decide", "ring", fine, run.Judgement(OK))
    result = run.Pass([decided, crashed])
    assert result.command_s("synthesize") == pytest.approx(0.4 + run.TIMEOUT_S)
    assert result.command_s("decide") == pytest.approx(0.5)
    assert result.pass_s() == pytest.approx(0.9 + run.TIMEOUT_S)
    assert result.peak_rss_mb() == pytest.approx(50_000 / 1024)
    assert run.end_to_end([result])["success_rate"][0] == 0.5


def test_wrong_answers_are_wrong():
    yes = "Ring: fairly terminates [192 states]\n"
    assert judge("decide", "Ring", RING, 0, yes, "").status == WRONG
    no_lasso = "Ring: admits a fair infinite computation [192 states]\n"
    assert judge("decide", "Ring", RING, 1, no_lasso, "").status == WRONG
    miscount = "Ring with r.assert: FAIL (191 violations): 336 transitions checked (complete)\n"
    assert judge("check", "Ring", RING, 1, miscount, "").status == WRONG
    right = "Ring with r.assert: FAIL (192 violations): 336 transitions checked (complete); x\n"
    assert judge("check", "Ring", RING, 1, right, "").status == OK
    assert judge("check", "Ring", RING, 0, right, "").status == WRONG
    counts = {"states": 192, "transitions_checked": 336, "violations": 192}
    assert judge_counts("check", RING, counts, None) == OK
    assert judge_counts("check", RING, dict(counts, violations=0), None) == WRONG
    assert judge_counts("synthesize", RING, {"states": 192}, "TypeError: x") == FAILED


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(trace):
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    result = run.run(ROOT, "ring", 3, 0.1, bool(trace), scale="smoke")
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name in declared:
        assert NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _counts(text: str):
    graph = explore(parse_program(text))
    return len(graph), len(graph.transitions)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeded_renaming_keeps_counts_and_verdicts(name):
    for spec in workload(name, "smoke").programs:
        plain, _ = spec.render()
        texts = set()
        for seed in (1, 2):
            gcl, assertion = spec.render(*renaming(spec, random.Random(seed)))
            texts.add(gcl)
            graph = explore(parse_program(gcl))
            assert (len(graph), len(graph.transitions)) == _counts(plain) == (
                spec.expected.states, spec.expected.transitions)
            checked = check_measure(graph, parse_assertion_file(assertion).compile())
            assert len(checked.violations) == spec.expected.violations
        assert plain not in texts and len(texts) == 2


def test_write_inputs_is_deterministic(tmp_path):
    load = workload("paper", "smoke")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_inputs(tmp_path / "a", load, 5)
    second = write_inputs(tmp_path / "b", load, 5)
    for key in first:
        for one, two in zip(first[key], second[key]):
            assert one.read_text() == two.read_text()


def test_templates_are_the_paper_programs_and_reference_counts():
    """The templates render the ``repro.workloads`` programs, the assertion
    files under ``examples/assertions``, and the counts the
    ``repro.engine.reference`` oracle checks."""
    built = {
        "p1": p1(10), "p2": p2(10), "p3b": p3_bounded(), "p4b": p4_bounded(),
    }
    for key, program in built.items():
        spec = paper_program(key, 10 if key in ("p1", "p2") else 3)
        gcl, assertion = spec.render()
        graph = explore(parse_program(gcl))
        reference = check_measure_reference(graph, parse_assertion_file(assertion).compile())
        assert (len(graph), reference.transitions_checked, reference.ok) == (
            spec.expected.states, spec.expected.transitions, True)
        assert (len(explore(program)), len(explore(program).transitions)) == (
            spec.expected.states, spec.expected.transitions)
        example = ROOT / "examples" / "assertions" / f"{key[:2]}.assert"
        if example.exists():
            lines = [l.split("#")[0].strip() for l in example.read_text().splitlines()]
            assert [l for l in lines if l] == assertion.splitlines()
    for spec, program in (
        (workload("cube", "smoke").programs[0], grid_hypercube(3, 3)),
        (workload("ring", "smoke").programs[0], distributed_ring(3, 3)),
    ):
        graph = explore(program)
        assert (len(graph), len(graph.transitions)) == (
            spec.expected.states, spec.expected.transitions)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        [sys.executable, *argv[1:], "--workload", "paper", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
