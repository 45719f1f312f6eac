"""The columnar verification plane (DESIGN §6h).

Three layers of evidence that the packed-column engine is an *engine
swap*, never a semantics change:

* **codec round-trips** — ``encode_stacks``/``decode_stack`` lose nothing
  the level search observes, across empty (T-only), max-height, stray-
  subject and bare-value stacks;
* **kernel parity** — ``check_chunk_columns`` agrees with
  ``find_active_level_general`` edge by edge, witness levels, reasons and
  failure buckets included;
* **engine differentials** — ``check_measure`` (columnar; serial and
  pool-sharded via ``REPRO_FORCE_PARALLEL=1``), the tuple engine
  ``_check_tuple`` called directly, and the seed oracle
  ``check_measure_reference`` return identical results on the paper
  examples P1–P4 and on violating families, witnesses and violation
  renderings compared string by string.

The lazy witness column itself (``WitnessColumn``) is tested on the ring
family, where violating and witnessed eids interleave.
"""

import pytest

from repro.engine.reference import check_measure_reference
from repro.measures import StackAssertion, Stack, TERMINATION, Hypothesis
from repro.measures import check_measure, check_measure_streaming
from repro.measures.columns import (
    BARE_VALUE,
    T_SUBJECT,
    check_chunk_columns,
    encode_stacks,
)
from repro.measures.verification import (
    WitnessColumn,
    _check_tuple,
    _stacks_of,
    find_active_level_general,
)
from repro.ts import explore
from repro.wf import NATURALS, FiniteOrder
from repro.workloads import (
    distributed_ring,
    grid_hypercube,
    p1,
    p1_assertion,
    p2,
    p2_assertion,
    p3_bounded,
    p3_assertion,
    p4_bounded,
    p4_assertion,
)


def _result_observables(result, with_witnesses=True):
    """Everything the tuple and columnar engines must agree on."""
    observed = {
        "ok": result.ok,
        "checked": result.transitions_checked,
        "complete": result.complete,
        "well_founded": result.order_well_founded,
        "summary": result.summary(),
        "violations": [str(v) for v in result.violations],
    }
    if with_witnesses:
        observed["witnesses"] = [
            (str(w.transition), w.level, w.subject, w.reason)
            for w in result.witnesses
        ]
    return observed


def tuple_engine(graph, assignment, requirements=None):
    """The per-transition tuple engine, bypassing the dispatch."""
    return _check_tuple(
        graph, _stacks_of(graph, assignment), assignment.order, requirements
    )


@pytest.fixture
def plane(monkeypatch):
    """``check_measure`` with the pool forced on or off per call."""

    def run(graph, assignment, n_jobs=None, force=False, **kw):
        if force:
            monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        else:
            monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        return check_measure(graph, assignment, n_jobs=n_jobs, **kw)

    return run


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------


class TestCodecRoundTrip:
    def _table(self, program):
        return explore(program).analyses.commands

    def test_paper_assignments_round_trip(self):
        for program, assertion in (
            (p2(6), p2_assertion()),
            (p3_bounded(3, 120), p3_assertion()),
            (p4_bounded(2, 2, 40), p4_assertion()),
        ):
            graph = explore(program)
            assignment = assertion.compile()
            stacks = [assignment(s) for s in graph.states]
            commands = graph.analyses.commands
            columns, reason = encode_stacks(
                stacks, commands, assignment.order
            )
            assert reason is None
            assert columns.n_states == len(stacks)
            for index, stack in enumerate(stacks):
                assert columns.decode_stack(index, commands) == stack

    def test_empty_stack_is_t_only(self):
        # The paper's minimal annotation: height 1, nothing above T.  A
        # bare (value-less) hypothesis can only live above level 0 — the
        # T-hypothesis always carries a measure value.
        graph = explore(p1(5))
        commands = graph.analyses.commands
        stacks = [
            Stack([Hypothesis(TERMINATION, i)]) for i in range(len(graph))
        ]
        columns, reason = encode_stacks(stacks, commands, NATURALS)
        assert reason is None
        assert columns.subject[columns.offsets[0]] == T_SUBJECT
        bare = Stack(
            [Hypothesis(TERMINATION, 1), Hypothesis("inc", None)]
        )
        bare_cols, bare_reason = encode_stacks(
            [bare], commands, NATURALS
        )
        assert bare_reason is None
        assert bare_cols.value_id[bare_cols.offsets[0] + 1] == BARE_VALUE
        assert bare_cols.decode_stack(0, commands) == bare
        for index in range(len(graph)):
            assert columns.decode_stack(index, commands) == stacks[index]

    def test_max_height_stack_with_strays(self):
        # One hypothesis per command plus subjects the table has never
        # seen: the full height the duplicate-subject invariant admits.
        graph = explore(p2(4))
        commands = graph.analyses.commands
        entries = [Hypothesis(TERMINATION, 3)]
        entries += [
            Hypothesis(label, k) for k, label in enumerate(commands.labels)
        ]
        entries += [Hypothesis(f"ghost{j}", None) for j in range(3)]
        stack = Stack(entries)
        columns, reason = encode_stacks(
            [stack] * len(graph), commands, NATURALS
        )
        assert reason is None
        decoded = columns.decode_stack(0, commands)
        assert decoded == stack
        # Stray subjects encode above the command-id range, so they can
        # never collide with an enabled bit or the executed command.
        lo, hi = columns.offsets[0], columns.offsets[1]
        stray_ids = [
            columns.subject[r]
            for r in range(lo, hi)
            if columns.subject[r] >= len(commands.labels)
        ]
        assert len(stray_ids) == 3

    def test_rank_is_order_isomorphic_on_naturals(self):
        graph = explore(p2(4))
        commands = graph.analyses.commands
        stacks = [
            Stack([Hypothesis(TERMINATION, v)]) for v in (0, 7, 3, 7, 10)
        ]
        columns, reason = encode_stacks(stacks, commands, NATURALS)
        assert reason is None
        rank_of = {
            v: columns.rank[columns.offsets[i]]
            for i, v in enumerate((0, 7, 3, 7, 10))
        }
        for a in rank_of:
            for b in rank_of:
                assert (rank_of[a] > rank_of[b]) == NATURALS.gt(a, b)

    def test_non_integer_total_order_uses_dominance_ranks(self):
        graph = explore(p2(4))
        commands = graph.analyses.commands
        order = FiniteOrder(
            ["low", "mid", "high"],
            [("high", "mid"), ("mid", "low")],
        )
        stacks = [
            Stack([Hypothesis(TERMINATION, v)])
            for v in ("high", "low", "mid")
        ]
        columns, reason = encode_stacks(stacks, commands, order)
        assert reason is None
        ranks = [columns.rank[columns.offsets[i]] for i in range(3)]
        for i, a in enumerate(("high", "low", "mid")):
            for j, b in enumerate(("high", "low", "mid")):
                assert (ranks[i] > ranks[j]) == order.gt(a, b)

    def test_partial_order_falls_back(self):
        # x ≻ z with y incomparable to both: any integer ranking gives x
        # and y different ranks, faking an x ≻ y the order does not have.
        # (A pure antichain *is* representable — all ranks equal — so the
        # refusal must come from the exactness audit, not mere partiality.)
        order = FiniteOrder(["x", "y", "z"], [("x", "z")])
        graph = explore(p2(4))
        commands = graph.analyses.commands
        stacks = [
            Stack([Hypothesis(TERMINATION, v)]) for v in ("x", "y", "z")
        ]
        columns, reason = encode_stacks(stacks, commands, order)
        assert columns is None
        assert reason == "rank"

    def test_t_command_label_falls_back(self):
        # A command literally named "T" would collide with the level-0
        # T-subject sentinel in the V_NonI comparison: refuse to encode.
        from repro.ts import ExplicitSystem

        system = ExplicitSystem(
            commands=["T", "a"],
            initial=["s"],
            transitions=[("s", "T", "s2"), ("s", "a", "s2")],
        )
        graph = explore(system)
        commands = graph.analyses.commands
        stacks = [Stack([Hypothesis(TERMINATION, 1)])] * len(graph)
        columns, reason = encode_stacks(stacks, commands, NATURALS)
        assert columns is None
        assert reason == "t_label"


# ---------------------------------------------------------------------------
# Kernel vs the object-level level search
# ---------------------------------------------------------------------------


class TestKernelParity:
    def _check_both(self, program, assertion):
        graph = explore(program)
        assignment = assertion.compile()
        stacks = [assignment(s) for s in graph.states]
        analyses = graph.analyses
        commands = analyses.commands
        columns, reason = encode_stacks(stacks, commands, assignment.order)
        assert reason is None
        src, cmd, dst = graph.transition_columns
        masks = analyses.enabled_masks
        m = len(src)
        words, violating, _counts = check_chunk_columns(
            columns.offsets, columns.subject, columns.value_id,
            columns.rank, src, cmd, dst, masks, 0, m,
            columns.n_commands,
        )
        violating = set(violating)
        for eid in range(m):
            s, t = src[eid], dst[eid]
            data, failures = find_active_level_general(
                stacks[s],
                stacks[t],
                commands.singleton(cmd[eid]),
                commands.labels_of_mask(masks[s] | masks[t]),
                assignment.order,
            )
            if data is None:
                assert eid in violating, (eid, failures)
                assert words[eid] == -1
            else:
                assert eid not in violating
                word = words[eid]
                assert word >> 1 == data.level
                assert ("decrease" if word & 1 else "enabled") == data.reason

    def test_passing_and_failing_families(self):
        self._check_both(p2(5), p2_assertion())
        self._check_both(p4_bounded(2, 2, 30), p4_assertion())
        # A failing annotation: x0 alone cannot witness the other axes.
        self._check_both(
            grid_hypercube(3, 3), StackAssertion.parse(["T: x0"])
        )


# ---------------------------------------------------------------------------
# Whole-engine differentials
# ---------------------------------------------------------------------------


class TestEngineDifferential:
    FAMILIES = ()

    @staticmethod
    def _families():
        dims = 3
        total = " + ".join(f"x{i}" for i in range(dims))
        return [
            (p1(8), p1_assertion()),
            (p2(6), p2_assertion()),
            (p3_bounded(3, 120), p3_assertion()),
            (p4_bounded(2, 2, 40), p4_assertion()),
            # Violating: x1/x2 decrements never decrease x0.
            (grid_hypercube(dims, 3), StackAssertion.parse(["T: x0"])),
            (grid_hypercube(dims, 3), StackAssertion.parse([f"T: {total}"])),
        ]

    def test_columnar_matches_tuple_engine(self, plane):
        for program, assertion in self._families():
            graph = explore(program)
            assignment = assertion.compile()
            baseline = _result_observables(tuple_engine(graph, assignment))
            assert baseline == _result_observables(
                check_measure_reference(graph, assignment)
            )
            assert _result_observables(plane(graph, assignment)) == baseline

    def test_columnar_sharded_matches_tuple_engine(self, plane):
        for program, assertion in self._families():
            graph = explore(program)
            assignment = assertion.compile()
            baseline = _result_observables(
                check_measure_reference(graph, assignment)
            )
            sharded = _result_observables(
                plane(graph, assignment, n_jobs=2, force=True)
            )
            assert sharded == baseline

    def test_plane_engages_on_the_smallest_check(self, plane):
        from repro.telemetry import core as telemetry

        graph = explore(p1(5))
        assignment = p1_assertion().compile()
        telemetry.reset()
        telemetry.enable()
        try:
            plane(graph, assignment)
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
            telemetry.disable()
        assert counters.get("verify.plane.engaged") == 1
        assert counters.get("verify.plane.rows") == len(graph.transitions) == 5

    def test_generalized_requirements_fall_back(self, plane):
        from repro.fairness.generalized import command_requirements
        from repro.telemetry import core as telemetry

        graph = explore(p2(6))
        assignment = p2_assertion().compile()
        requirements = command_requirements(graph.system)
        baseline = _result_observables(
            tuple_engine(graph, assignment, requirements=requirements)
        )
        assert baseline == _result_observables(
            check_measure_reference(
                graph, assignment, requirements=requirements
            )
        )
        telemetry.reset()
        telemetry.enable()
        try:
            checked = plane(graph, assignment, requirements=requirements)
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
            telemetry.disable()
        assert _result_observables(checked) == baseline
        assert counters.get("verify.plane.fallback.requirements") == 1
        assert "verify.plane.engaged" not in counters


# ---------------------------------------------------------------------------
# The lazy witness column
# ---------------------------------------------------------------------------


class TestWitnessColumn:
    """On the ring, ``pass`` edges leave ``T`` unchanged: a bare ``pass0``
    hypothesis witnesses some of them at level 1 and the rest violate,
    so witnessed and violating eids interleave over two levels."""

    @staticmethod
    def _ring():
        program = distributed_ring(3, 2)
        assertion = StackAssertion.parse(["pass0", "T: w0 + w1 + w2"])
        return program, assertion.compile()

    def test_sequence_protocol_matches_reference(self):
        program, assignment = self._ring()
        graph = explore(program)
        column = check_measure(graph, assignment).witnesses
        reference = check_measure_reference(graph, assignment).witnesses
        assert isinstance(column, WitnessColumn)
        assert 0 < len(column) == len(reference) < len(graph.transitions)
        assert list(column) == reference
        assert column == reference and reference == column
        for index in (0, 1, len(reference) // 2, len(reference) - 1):
            assert column[index] == reference[index]
        for index in (-1, -2, -len(reference)):
            assert column[index] == reference[index]
        assert column[3:9] == reference[3:9]
        for index in (len(reference), -len(reference) - 1):
            with pytest.raises(IndexError):
                column[index]
        assert column != reference[:-1]

    def test_active_levels_keep_first_seen_order(self):
        program, assignment = self._ring()
        result = check_measure(explore(program), assignment)
        histogram = {}
        for witness in result.witnesses:
            histogram[witness.level] = histogram.get(witness.level, 0) + 1
        assert set(histogram) == {0, 1}
        assert list(result.active_levels().items()) == list(histogram.items())

    def test_fail_fast_stream_is_a_prefix(self):
        # The stop lands on the first violation, so the first
        # ``transitions_checked`` eids hold exactly one violating eid and
        # every other one is a witness of the materialized run.
        program, assignment = self._ring()
        materialized = check_measure(explore(program), assignment)
        streaming = check_measure_streaming(
            program, assignment, max_violations=1
        )
        assert streaming.stopped_early
        assert streaming.violations == materialized.violations[:1]
        witnessed = streaming.transitions_checked - 1
        assert witnessed > 0
        assert len(streaming.witnesses) == witnessed
        assert streaming.witnesses == list(materialized.witnesses)[:witnessed]

    def test_bounded_stream_matches_materialized(self):
        program, assignment = self._ring()
        materialized = check_measure(
            explore(program, max_states=5), assignment
        )
        streaming = check_measure_streaming(program, assignment, max_states=5)
        assert not streaming.complete
        assert streaming.witnesses == materialized.witnesses
        assert streaming.active_levels() == materialized.active_levels()
        assert streaming.summary() == materialized.summary()


# ---------------------------------------------------------------------------
# Streaming mask priming
# ---------------------------------------------------------------------------


class TestStreamingMaskPrimes:
    def test_streaming_verdict_unchanged_and_primed(self, monkeypatch):
        from repro.measures import check_measure_streaming
        from repro.telemetry import core as telemetry

        program = grid_hypercube(3, 3)
        assignment = StackAssertion.parse(["T: x0"]).compile()
        graph = explore(program)
        baseline = _result_observables(check_measure(graph, assignment))

        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        telemetry.reset()
        telemetry.enable()
        try:
            streamed = check_measure_streaming(
                program, assignment, n_jobs=2
            )
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
            telemetry.disable()
        assert _result_observables(streamed) == baseline
        # The value-plane rounds primed the verifier's enabled sets; the
        # serial re-derivation stayed on the bench.
        assert counters.get("stream.mask_primes", 0) > 0
        assert counters.get("stream.mask_derived_serially", 0) == 0
