"""Differential tests: streaming verification vs the materialized checker.

``check_measure_streaming`` verifies each transition as exploration reaches
it; run to completion its result must be *bit-identical* to
``check_measure`` on the materialized graph — same witnesses (state
objects, stacks, levels, reasons), same violations, same counts — for every
workload family, bounded or not, at every job count.  With
``max_violations`` it must stop early and report a prefix of the
materialized violation list.
"""

import pytest

from repro.measures import (
    StackAssertion,
    check_measure,
    check_measure_streaming,
)
from repro.measures.annotate import annotate
from repro.ts import explore
from repro.workloads import (
    counter_grid,
    distractor_loop,
    modulus_chain,
    p2,
    p2_assertion,
    p3_bounded,
    p3_assertion,
    p4_bounded,
    p4_bounded_assertion,
)

JOB_COUNTS = (None, 2, 4)

ANNOTATED = [
    ("p2", p2, p2_assertion),
    ("p3_bounded", p3_bounded, p3_assertion),
    ("p4_bounded", p4_bounded, p4_bounded_assertion),
]


@pytest.fixture
def force_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")


def _assert_identical(streaming, materialized):
    assert streaming.witnesses == materialized.witnesses
    assert streaming.violations == materialized.violations
    assert streaming.transitions_checked == materialized.transitions_checked
    assert streaming.complete == materialized.complete
    assert streaming.order_well_founded == materialized.order_well_founded
    assert streaming.ok == materialized.ok


class TestDifferential:
    @pytest.mark.parametrize("name,make,make_assertion", ANNOTATED)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_paper_annotations(
        self, force_parallel, name, make, make_assertion, jobs
    ):
        program, assignment = make(), make_assertion().compile()
        materialized = check_measure(explore(program), assignment)
        streaming = check_measure_streaming(program, assignment, n_jobs=jobs)
        _assert_identical(streaming, materialized)
        assert not streaming.stopped_early
        assert streaming.states_explored == len(explore(program))

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_synthesized_measure(self, force_parallel, jobs):
        from repro.completeness.synthesis import synthesize_measure

        program = counter_grid(5, 5)
        graph = explore(program)
        assignment = synthesize_measure(graph).assignment()
        materialized = check_measure(graph, assignment)
        streaming = check_measure_streaming(program, assignment, n_jobs=jobs)
        _assert_identical(streaming, materialized)
        assert materialized.ok

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_bounded_exploration(self, force_parallel, jobs):
        program, assignment = p2(), p2_assertion().compile()
        graph = explore(program, max_states=5)
        materialized = check_measure(graph, assignment)
        streaming = check_measure_streaming(
            program, assignment, max_states=5, n_jobs=jobs
        )
        _assert_identical(streaming, materialized)
        assert not streaming.complete


class TestFailFast:
    def _violating(self):
        # The P2 program with a deliberately weakened assertion: dropping
        # the la hypothesis leaves lb-steps with no active level.
        program = p2(distance=6)
        assertion = StackAssertion.parse(["T: max(y - x, 0)"])
        return program, assertion.compile()

    def test_violations_are_a_prefix(self):
        program, assignment = self._violating()
        materialized = check_measure(explore(program), assignment)
        assert not materialized.ok
        streaming = check_measure_streaming(
            program, assignment, max_violations=1
        )
        assert streaming.stopped_early
        assert streaming.violations == materialized.violations[:1]
        assert streaming.states_explored < len(explore(program))

    def test_collects_up_to_max_violations(self):
        program, assignment = self._violating()
        materialized = check_measure(explore(program), assignment)
        limit = min(2, len(materialized.violations))
        streaming = check_measure_streaming(
            program, assignment, max_violations=limit
        )
        assert streaming.violations == materialized.violations[:limit]

    def test_unlimited_matches_materialized(self):
        program, assignment = self._violating()
        materialized = check_measure(explore(program), assignment)
        streaming = check_measure_streaming(program, assignment)
        _assert_identical(streaming, materialized)
        assert not streaming.stopped_early


class TestAnnotatedProgram:
    def test_check_streaming_matches_check(self):
        proof = annotate(p2(), p2_assertion())
        materialized = proof.check()
        streaming = proof.check_streaming()
        _assert_identical(streaming, materialized)

    def test_distractors_family(self):
        from repro.completeness.synthesis import synthesize_measure

        program = distractor_loop(3, 3)
        graph = explore(program)
        assignment = synthesize_measure(graph).assignment()
        _assert_identical(
            check_measure_streaming(program, assignment),
            check_measure(graph, assignment),
        )

    def test_modulus_chain_family(self):
        from repro.completeness.synthesis import synthesize_measure

        program = modulus_chain(2, fuel=3)
        graph = explore(program)
        assignment = synthesize_measure(graph).assignment()
        _assert_identical(
            check_measure_streaming(program, assignment),
            check_measure(graph, assignment),
        )
