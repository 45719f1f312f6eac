"""Tests for automatic measure synthesis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.completeness import (
    NotFairlyTerminatingError,
    synthesize_measure,
)
from repro.fairness import STRONG_FAIRNESS, check_fair_termination
from repro.measures import check_measure
from repro.ts import ExplicitSystem, explore
from repro.workloads import (
    counter_grid,
    dining_philosophers,
    distractor_loop,
    distributed_ring,
    modulus_chain,
    mutual_exclusion,
    nested_rings,
    p2,
    p4_bounded,
    random_system,
    token_ring,
)


def synthesize_and_verify(graph):
    synthesis = synthesize_measure(graph)
    result = check_measure(graph, synthesis.assignment())
    result.raise_if_failed()
    return synthesis, result


class TestOnKnownPrograms:
    @pytest.mark.parametrize(
        "system",
        [
            p2(6),
            p4_bounded(2, 10, 5),
            counter_grid(3, 3),
            distractor_loop(4, 3),
            modulus_chain(2),
            dining_philosophers(3),
            mutual_exclusion(2, 2),
            token_ring(5),
        ],
        ids=[
            "p2",
            "p4b",
            "grid",
            "distractors",
            "chain",
            "philosophers",
            "mutex",
            "ring",
        ],
    )
    def test_synthesis_verifies(self, system):
        graph = explore(system)
        synthesis, result = synthesize_and_verify(graph)
        assert result.is_fair_termination_measure

    def test_stack_height_bound(self):
        for system in [p2(4), p4_bounded(2, 6, 3), nested_rings(4)]:
            graph = explore(system)
            synthesis, _ = synthesize_and_verify(graph)
            assert synthesis.max_stack_height() <= len(system.commands()) + 1

    def test_nested_rings_heights_grow_linearly(self):
        heights = []
        for depth in (0, 1, 2, 3, 4):
            graph = explore(nested_rings(depth))
            synthesis, _ = synthesize_and_verify(graph)
            heights.append(synthesis.max_stack_height())
        assert heights == [2, 3, 4, 5, 6]  # depth + 2

    def test_distractor_count_does_not_deepen_stack(self):
        for distractors in (1, 3, 6):
            graph = explore(distractor_loop(3, distractors))
            synthesis, _ = synthesize_and_verify(graph)
            assert synthesis.max_stack_height() == 2

    def test_region_tree_reported(self):
        graph = explore(nested_rings(2))
        synthesis, _ = synthesize_and_verify(graph)
        assert synthesis.region_count() >= 3
        root = synthesis.regions[0]
        assert root.helpful == "exit_2"
        assert root.children[0].helpful == "exit_1"


class TestFailures:
    def test_spin_raises_with_witness(self):
        spin = ExplicitSystem(("go",), [0], [(0, "go", 0)])
        graph = explore(spin)
        with pytest.raises(NotFairlyTerminatingError) as info:
            synthesize_measure(graph)
        witness = info.value.witness
        assert witness is not None
        assert STRONG_FAIRNESS.is_fair(
            witness.lasso, spin.enabled, spin.commands()
        )

    def test_incomplete_graph_rejected(self):
        from repro.gcl import parse_program

        up = parse_program("program Up var x := 0 do a: true -> x := x + 1 od")
        graph = explore(up, max_states=5)
        with pytest.raises(ValueError):
            synthesize_measure(graph)


class TestWarmStoreParallel:
    """Graphs loaded from the graph store adopt their transition columns
    as mmap-backed ``memoryview`` casts; parallel synthesis pickles the
    packed graph to its workers, so it must ship those columns too."""

    @staticmethod
    def _warm(make, tmp_path):
        from repro.engine.graphstore import (
            exploration_cache_key,
            explore_with_cache,
            load_cached_graph,
        )

        explore_with_cache(make(), cache_dir=tmp_path)
        program = make()
        graph = load_cached_graph(
            program, tmp_path, exploration_cache_key(program)
        )
        assert isinstance(graph.transition_columns[0], memoryview)
        return graph

    def test_parallel_stacks_match_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        graph = self._warm(lambda: p4_bounded(3, 20), tmp_path)
        serial = synthesize_measure(graph)
        parallel = synthesize_measure(graph, n_jobs=2)
        assert len(serial.regions) >= 2  # the pool path actually runs
        assert parallel.stacks == serial.stacks
        assert parallel.stacks == synthesize_measure(
            explore(p4_bounded(3, 20))
        ).stacks

    def test_parallel_error_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        graph = self._warm(lambda: distributed_ring(3, 2), tmp_path)
        with pytest.raises(NotFairlyTerminatingError) as serial:
            synthesize_measure(graph)
        with pytest.raises(NotFairlyTerminatingError) as parallel:
            synthesize_measure(graph, n_jobs=2)
        assert str(parallel.value) == str(serial.value)
        assert parallel.value.witness.lasso == serial.value.witness.lasso


class TestRandomisedRoundTrip:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_synthesis_agrees_with_checker(self, seed):
        """Soundness and completeness over the random family: synthesis
        succeeds (and its output verifies) exactly when the independent
        fair-cycle decision says the system fairly terminates."""
        graph = explore(random_system(seed, states=10, commands=3, extra_edges=9))
        verdict = check_fair_termination(graph)
        if verdict.fairly_terminates:
            synthesis = synthesize_measure(graph)
            result = check_measure(graph, synthesis.assignment())
            assert result.is_fair_termination_measure
        else:
            with pytest.raises(NotFairlyTerminatingError):
                synthesize_measure(graph)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_synthesised_heights_respect_bound(self, seed):
        graph = explore(random_system(seed, states=9, commands=4, extra_edges=8))
        if not check_fair_termination(graph).fairly_terminates:
            return
        synthesis = synthesize_measure(graph)
        assert synthesis.max_stack_height() <= 5
