"""Tests for measure profiling."""

from repro.analysis import profile_measure
from repro.completeness import synthesize_measure
from repro.engine.reference import check_measure_reference
from repro.measures import StackAssertion, annotate, check_measure
from repro.ts import explore
from repro.workloads import distributed_ring, nested_rings, p2, p2_assertion


class TestProfileMeasure:
    def test_p2_annotation_profile(self):
        program = p2(4)
        graph = explore(program)
        assignment = p2_assertion().compile()
        check = check_measure(graph, assignment)
        profile = profile_measure(graph, assignment, check)
        assert profile.states == 5
        assert profile.height_histogram == {2: 5}
        assert profile.max_height == 2
        # The la-hypothesis is bare everywhere; T carries 0..4.
        assert profile.subjects["la"].bare == 5
        assert profile.subjects["T"].min_value == 0
        assert profile.subjects["T"].max_value == 4
        assert profile.active_by_command == {"la": {0: 4}, "lb": {1: 4}}

    def test_word_column_tally_matches_decoded_witnesses(self):
        # On the ring, violating and witnessed eids interleave over two
        # levels: the word-column tally must equal the histogram over a
        # plain list of decoded witnesses.
        graph = explore(distributed_ring(3, 2))
        assignment = StackAssertion.parse(["pass0", "T: w0 + w1 + w2"]).compile()
        column = profile_measure(
            graph, assignment, check_measure(graph, assignment)
        )
        listed = profile_measure(
            graph, assignment, check_measure_reference(graph, assignment)
        )
        assert column.active_by_command == listed.active_by_command
        assert len(column.active_by_command) > 1
        assert column.describe() == listed.describe()

    def test_synthesised_rings_profile(self):
        graph = explore(nested_rings(2))
        synthesis = synthesize_measure(graph)
        profile = profile_measure(graph, synthesis.assignment())
        assert profile.max_height == 4
        assert "exit_2" in profile.subjects
        assert profile.active_by_command == {}  # no check supplied

    def test_describe_renders(self):
        program = p2(3)
        graph = explore(program)
        assignment = p2_assertion().compile()
        profile = profile_measure(graph, assignment)
        text = profile.describe()
        assert "stack heights" in text
        assert "la" in text

    def test_level_distribution_tracked(self):
        graph = explore(nested_rings(1))
        synthesis = synthesize_measure(graph)
        profile = profile_measure(graph, synthesis.assignment())
        t_profile = profile.subjects["T"]
        assert t_profile.levels == {0: t_profile.occurrences}
