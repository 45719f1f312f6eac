"""Value-plane round exploration, bit-identical to serial BFS.

**Why this is possible at all.**  The serial explorer
(:func:`repro.ts.explore.explore`) pops its queue in first-discovery order,
so states are expanded in ascending intern-index order, level by level: the
states discovered in BFS round ``r`` occupy a contiguous index range and
are all expanded — with identical budget/depth bookkeeping — before any
state of round ``r + 1``.  Expansion itself is a *pure* function of the
state.  So exploration factors into

1. an embarrassingly parallel part — computing ``(enabled, posts)`` for
   every state of the current round — and
2. a cheap, inherently serial part — interning successors, assigning
   indices, recording transitions, and applying ``max_states`` /
   ``max_depth`` / ``strict`` accounting.

This module batches (1) and replays (2) verbatim for systems that expose a
*value plane* (:meth:`~repro.ts.system.TransitionSystem.value_plane`):
states travel as flat int64 rows.  Each round runs the batched guard/body
kernels over the pending rows — in-process for narrow rounds, or
hash-sharded over the persistent pool (:mod:`repro.engine.parallel`) with
the hot columns published once through shared memory
(:mod:`repro.engine.shm`), so a worker task is just an index array.  The
coordinator merges the results **in pending order, posts order** — exactly
the order the serial loop would have seen them.  State indices, transition
order, enabled masks, frontier sets, observer events and
:class:`ExplorationLimitError` behaviour are therefore bit-identical to the
serial path; the differential tests in ``tests/engine/test_shard.py``
enforce this for 1/2/4 jobs on complete and bounded exploration of every
workload family.  Systems without a plane explore serially.

Workers receive the plane once as its pickled spec
(:meth:`~repro.gcl.program.ProgramValuePlane.spec`) and cache the rebuilt
instance process-locally.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.engine import shm
from repro.engine.interning import StateInterner
from repro.engine.parallel import _FORCE_ENV, parallel_map, resolve_jobs
from repro.telemetry import core as telemetry
from repro.telemetry import events

#: Rounds with fewer pending states than this are expanded in-process: the
#: per-round pool round-trip (publish columns, index arrays out, flat
#: result arrays back) costs more than expanding a narrow BFS level
#: locally.  ``REPRO_FORCE_PARALLEL=1`` overrides, so tests can push
#: single-state rounds through the pool.
SHARD_ROUND_CUTOFF = 2048

#: Worker-process cache of rebuilt planes, keyed by spec digest.  Workers
#: are long-lived (the pool persists), so a multi-round exploration — or a
#: sequence of explorations of the same system — unpickles the spec once.
_WORKER_SYSTEMS: Dict[str, object] = {}


def _shard_system(digest: str, spec: bytes):
    system = _WORKER_SYSTEMS.get(digest)
    if system is None:
        system = pickle.loads(spec)
        _WORKER_SYSTEMS[digest] = system
    return system


def _round_dispatch(jobs: int, pending_count: int) -> Tuple[int, str]:
    """Adaptive per-round dispatch (mirrors :func:`effective_jobs`).

    Narrow BFS levels, single-core machines and serial requests stay
    in-process — the "``--jobs N`` never loses" guarantee applies per
    round, since level widths vary wildly within one exploration.
    Returns ``(workers, reason)``; the reason labels the telemetry
    counter recording why a round fell back to serial.
    """
    if jobs <= 1 or pending_count == 0:
        return 1, "serial_request"
    if os.environ.get(_FORCE_ENV) == "1":
        return jobs, "forced"
    if (os.cpu_count() or 1) <= 1:
        return 1, "single_core"
    if pending_count < SHARD_ROUND_CUTOFF:
        return 1, "narrow_round"
    return jobs, "parallel"


def _prepare_value_rounds(system, plane):
    """Validate that ``system`` can explore through ``plane``.

    Returns ``(plane_spec, initial_states, labels, label_ids, kmap)`` or
    ``None`` to fall back to serial exploration.  ``kmap`` translates plane
    command indices to coordinator label-table ids (the identity for
    programs, where both sides are declaration order — but checked, never
    assumed).
    """
    plane_spec = plane.spec()
    if plane_spec is None:
        return None
    initial = list(system.initial_states())
    names = plane.names
    for state in initial:
        if getattr(state, "names", None) != names:
            return None
    labels: List[str] = list(system.commands())
    label_ids: Dict[str, int] = {label: k for k, label in enumerate(labels)}
    try:
        kmap = [label_ids[label] for label in plane.labels]
    except KeyError:
        return None
    return plane_spec, initial, labels, label_ids, kmap


def explore_sharded(
    system,
    plane,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    strict: bool = False,
    n_jobs: Optional[int] = None,
    observer=None,
):
    """Round-based BFS over ``plane`` (shm when parallel); bit-identical
    to serial.

    Called by :func:`repro.ts.explore.explore` when ``n_jobs > 1`` and the
    system has a value plane; not normally invoked directly.  A plane that
    cannot drive this system (:func:`_prepare_value_rounds` refuses) falls
    back to the serial explorer.  ``observer`` callbacks fire during the
    serial merge — in exactly the serial explorer's event order — and a
    :class:`StopExploration` raised by one cancels the round loop, so no
    further round is dispatched to the worker pool.
    """
    from repro.ts.explore import (
        StopExploration,
        _explore_serial,
        _finish_graph,
        _stop_counters,
    )

    prepared = _prepare_value_rounds(system, plane)
    if prepared is None:
        return _explore_serial(system, max_states, max_depth, strict, observer)
    jobs = resolve_jobs(n_jobs)
    plane_spec, initial, labels, label_ids, kmap = prepared
    digest = hashlib.sha256(plane_spec).hexdigest()
    width = plane.width

    interner = StateInterner()
    states = interner.states
    values_index: Dict[tuple, int] = {}
    value_rows: List[tuple] = []
    for state in initial:
        row = plane.encode(state)
        if row not in values_index:
            index, _ = interner.intern(state)
            values_index[row] = index
            value_rows.append(row)
    initial_count = len(states)
    if initial_count == 0:
        raise ValueError("system has no initial states")

    src = array("q")
    cmd = array("q")
    dst = array("q")
    emask_of: List[int] = [-1] * initial_count
    expanded = bytearray(initial_count)
    frontier: Set[int] = set()
    truncated = False
    stopped = False

    pending: List[int] = list(range(initial_count))
    round_depth = 0
    traced = telemetry.enabled()
    progress = telemetry.progress_reporter()
    round_events = events.round_ticker()
    mask_labels: Dict[int, frozenset] = {}
    mask_memo: Dict[int, int] = {}
    # Streaming verifiers under command fairness ask for per-round
    # enabled-mask deltas (see ``_StreamingVerifier.wants_enabled_masks``):
    # workers batch guards-only masks for their successor rows and the
    # merge primes the observer, replacing its serial re-derivation.
    want_masks = (
        observer is not None
        and getattr(observer, "wants_enabled_masks", False)
        and getattr(plane, "enabled_batch", None) is not None
    )

    arena = None
    shm_ok = True
    values_col: Optional[array] = None  # flat mirror, built at first sync

    if observer is not None:
        try:
            for idx in range(initial_count):
                observer.on_state(idx, states[idx], 0)
        except StopExploration:
            stopped = True
            pending = []

    try:
        while pending:
            if max_depth is not None and round_depth > max_depth:
                frontier.update(pending)
                truncated = True
                break

            workers, dispatch = _round_dispatch(jobs, len(pending))
            if workers > 1 and shm_ok and arena is None:
                try:
                    arena = shm.ShmArena(digest.encode("utf-8"))
                except shm.ShmUnavailable:
                    # No shared memory here (platform/sandbox): every
                    # round runs the batched kernels in-process instead.
                    shm_ok = False
                    if traced:
                        telemetry.count("shm.unavailable")
            if workers > 1 and arena is None:
                workers, dispatch = 1, "shm_unavailable"
            if traced:
                telemetry.count("shard.rounds")
                telemetry.count("shard.values_rounds")
                telemetry.count(
                    "shard.parallel_rounds" if workers > 1 else "shard.serial_rounds"
                )
                if workers <= 1:
                    telemetry.count(f"shard.serial_round.{dispatch}")
                telemetry.observe("shard.round_pending", len(pending))
            if progress is not None:
                progress.maybe(len(states), len(pending), round_depth)
            round_events.tick(
                round_depth, len(pending), len(states), workers, dispatch
            )
            round_span = telemetry.span(
                "shard_round",
                round=round_depth,
                pending=len(pending),
                workers=workers,
            )
            with round_span:
                if workers > 1:
                    if values_col is None:
                        values_col = array(
                            "q", [v for row in value_rows for v in row]
                        )
                    round_results, row_masks = _expand_round_values_parallel(
                        digest,
                        plane_spec,
                        arena,
                        width,
                        values_col,
                        value_rows,
                        (src, cmd, dst, emask_of, pending[0]),
                        pending,
                        workers,
                        want_masks,
                    )
                else:
                    round_results = _expand_round_values_serial(
                        plane, value_rows, pending
                    )
                    row_masks = (
                        _round_row_masks(plane, round_results, values_index)
                        if want_masks
                        else None
                    )
                merge_started = time.perf_counter() if traced else 0.0

                next_pending, truncated, stopped = _merge_round_values(
                    pending,
                    round_results,
                    interner,
                    values_index,
                    value_rows,
                    values_col,
                    plane,
                    labels,
                    kmap,
                    mask_memo,
                    src,
                    cmd,
                    dst,
                    emask_of,
                    expanded,
                    frontier,
                    truncated,
                    max_states,
                    observer,
                    round_depth + 1,
                    mask_labels,
                    row_masks,
                )
                if traced:
                    telemetry.observe(
                        "shard.merge_s", time.perf_counter() - merge_started
                    )
            if stopped:
                break
            pending = next_pending
            round_depth += 1
    finally:
        # The leak contract: the arena dies with the exploration — normal
        # return, StopExploration, limit errors and observer exceptions
        # all pass through here (worker death never owns a segment).
        if arena is not None:
            arena.close()

    if stopped:
        _stop_counters(len(states))
    if progress is not None:
        progress.close()
    return _finish_graph(
        system=system,
        interner=interner,
        labels=labels,
        label_ids=label_ids,
        src=src,
        cmd=cmd,
        dst=dst,
        emask_of=emask_of,
        expanded=expanded,
        frontier=frontier,
        initial_count=initial_count,
        truncated=truncated,
        strict=strict,
        max_states=max_states,
        max_depth=max_depth,
    )


def _merge_round_values(
    pending,
    round_results,
    interner,
    values_index,
    value_rows,
    values_col,
    plane,
    labels,
    kmap,
    mask_memo,
    src,
    cmd,
    dst,
    emask_of,
    expanded,
    frontier,
    truncated,
    max_states,
    observer=None,
    successor_depth=0,
    mask_labels=None,
    row_masks=None,
):
    """The serial merge of one round's expansion results.

    Replays the serial explorer's interning/budget bookkeeping statement
    for statement (the bit-identity argument lives here): same budget
    checks, same observer events, same :class:`StopExploration` revert
    rule — only the successor lookup changes (value tuple instead of state
    object; a state object is built exactly once, when a row is genuinely
    new).  Returns ``(next_pending, truncated, stopped)``.

    ``row_masks`` (optional) maps successor value rows to guards-only
    plane masks from this round's batch; when present and the observer
    accepts primes, every state touched this round gets its enabled set
    handed over before any flush could demand it serially.  Guards are
    pure, so priming never changes a verdict — only which code derives
    the mask.
    """
    from repro.ts.explore import StopExploration

    states = interner.states
    next_pending: List[int] = []
    # The loop below runs once per transition of the whole graph; bind
    # every repeated attribute lookup to a local first (the difference is
    # measurable at 10⁶ states).
    lookup = values_index.get
    src_append = src.append
    cmd_append = cmd.append
    dst_append = dst.append
    emask_append = emask_of.append
    expanded_append = expanded.append
    pending_append = next_pending.append
    rows_append = value_rows.append
    make_state = plane.make_state
    intern = interner.intern
    mask_of = mask_memo.get
    tracked = observer is not None
    unbudgeted = max_states is None

    prime = (
        getattr(observer, "prime_enabled", None)
        if tracked and row_masks is not None
        else None
    )
    if prime is not None:

        def enabled_set_of(plane_mask):
            mask = mask_of(plane_mask)
            if mask is None:
                mask = 0
                for b in range(plane_mask.bit_length()):
                    if (plane_mask >> b) & 1:
                        mask |= 1 << kmap[b]
                mask_memo[plane_mask] = mask
            enabled_set = mask_labels.get(mask)
            if enabled_set is None:
                mask_labels[mask] = enabled_set = frozenset(
                    labels[b]
                    for b in range(mask.bit_length())
                    if (mask >> b) & 1
                )
            return enabled_set

        # This round's sources: their masks arrived with the expansion
        # results, so transitions between same-round states never fall
        # back to serial derivation whichever source flushes first.
        for p, (p_mask, _) in zip(pending, round_results):
            prime(p, enabled_set_of(p_mask))

    i = -1
    finalized = -1
    try:
        for i, (plane_mask, posts) in zip(pending, round_results):
            expanded[i] = 1
            mask = mask_of(plane_mask)
            if mask is None:
                mask = 0
                for b in range(plane_mask.bit_length()):
                    if (plane_mask >> b) & 1:
                        mask |= 1 << kmap[b]
                mask_memo[plane_mask] = mask
            emask_of[i] = mask
            at_budget = not unbudgeted and len(states) >= max_states
            for plane_cmd, row in posts:
                j = lookup(row)
                if at_budget:
                    if j is None:
                        frontier.add(i)
                        truncated = True
                        break
                else:
                    if j is None:
                        target = make_state(row)
                        j, _ = intern(target)
                        values_index[row] = j
                        rows_append(row)
                        if values_col is not None:
                            values_col.extend(row)
                        emask_append(-1)
                        expanded_append(0)
                        pending_append(j)
                        if not unbudgeted:
                            at_budget = len(states) >= max_states
                        if tracked:
                            observer.on_state(j, target, successor_depth)
                            if prime is not None:
                                p_mask = row_masks.get(row)
                                if p_mask is not None:
                                    prime(j, enabled_set_of(p_mask))
                k = kmap[plane_cmd]
                src_append(i)
                cmd_append(k)
                dst_append(j)
                if tracked:
                    observer.on_transition(i, labels[k], j)
            else:
                if tracked:
                    enabled_set = mask_labels.get(mask)
                    if enabled_set is None:
                        mask_labels[mask] = enabled_set = frozenset(
                            labels[b]
                            for b in range(mask.bit_length())
                            if (mask >> b) & 1
                        )
                    finalized = i
                    observer.on_expanded(i, enabled_set)
    except StopExploration:
        if i >= 0 and i != finalized and expanded[i]:
            expanded[i] = 0
        return next_pending, truncated, True
    return next_pending, truncated, False


def _round_row_masks(plane, round_results, values_index):
    """Guards-only masks for this round's genuinely-new successor rows.

    Deduplicates the round's post rows, drops already-interned ones (their
    enabled sets are recorded or primed by earlier rounds), and runs one
    :meth:`enabled_batch` over the rest.  Returns a row → plane-mask dict;
    empty when the plane declines (``enabled_batch`` returned ``None``, a
    guard raised somewhere) — the streaming verifier then derives those
    few masks serially, exactly as before priming existed.
    """
    fresh: List[tuple] = []
    seen: Set[tuple] = set()
    for _, posts in round_results:
        for _, row in posts:
            if row not in seen and row not in values_index:
                seen.add(row)
                fresh.append(row)
    if not fresh:
        return {}
    masks = plane.enabled_batch(fresh)
    if masks is None:
        return {}
    if telemetry.enabled():
        telemetry.count("stream.mask_batch_rows", len(fresh))
    return dict(zip(fresh, masks))


def _expand_round_values_serial(plane, value_rows, pending):
    """One round through the batched kernels, in-process, no copies."""
    rows = [value_rows[i] for i in pending]
    if telemetry.enabled():
        telemetry.count("shard.states_expanded", len(rows))
        telemetry.count("batch.calls")
        telemetry.count("batch.rows", len(rows))
        results = plane.expand_batch(rows)
        telemetry.count("shard.posts", sum(len(posts) for _, posts in results))
        return results
    return plane.expand_batch(rows)


def _expand_round_values_parallel(
    digest,
    plane_spec,
    arena,
    width,
    values_col,
    value_rows,
    graph_columns,
    pending,
    workers,
    want_masks=False,
):
    """Fan one round out over the pool through the shared-memory arena.

    Publishes the value table (workers read their rows by index) and
    streams the graph columns built so far — ``src``/``cmd``/``dst`` plus
    the enabled masks of the expanded prefix — into the same arena, so
    the entire hot data plane is attachable.  Each task carries only the
    shard's index array; results come back as flat int arrays.

    With ``want_masks`` each worker also batches guards-only enabled
    masks for its deduplicated successor rows (the round's mask *delta*),
    and the second return value maps row → plane mask for the merge to
    prime a streaming verifier with.  Returns ``(results, row_masks)``
    where ``row_masks`` is ``None`` when masks were not requested.
    """
    shards: List[List[int]] = [[] for _ in range(workers)]
    for i in pending:
        # Shard by row hash; the assignment only decides *where* a state
        # is expanded, never the merge order.
        shards[hash(value_rows[i]) % workers].append(i)
    occupied = [shard for shard in shards if shard]
    if telemetry.enabled():
        for shard in occupied:
            telemetry.observe("shard.shard_size", len(shard))

    arena.sync("values", values_col)
    src, cmd, dst, emask_of, expanded_prefix = graph_columns
    arena.sync("src", src)
    arena.sync("cmd", cmd)
    arena.sync("dst", dst)
    # Masks are final exactly for the expanded prefix (states below this
    # round's first pending index); later entries are still -1 sentinels.
    arena.column("emask").sync(emask_of, length=expanded_prefix)

    name, _ = arena.column("values").manifest()
    tasks = [
        (
            digest,
            plane_spec,
            name,
            arena.tag,
            width,
            array("q", shard).tobytes(),
            want_masks,
        )
        for shard in occupied
    ]
    outs = parallel_map(_expand_shard_values, tasks, n_jobs=workers)

    per_state: Dict[int, tuple] = {}
    row_masks: Optional[Dict[tuple, int]] = {} if want_masks else None
    for shard, (masks, counts, cmds, refs, flat, tmasks) in zip(
        occupied, outs
    ):
        targets = [
            tuple(flat[r * width:(r + 1) * width])
            for r in range(len(flat) // width)
        ]
        if row_masks is not None and len(tmasks) == len(targets):
            # Empty ``tmasks`` (worker's plane declined the batch) simply
            # leaves that shard's rows unprimed — serial fallback covers.
            for r, target in enumerate(targets):
                row_masks[target] = tmasks[r]
        base = 0
        for offset, i in enumerate(shard):
            count = counts[offset]
            per_state[i] = (
                masks[offset],
                [
                    (cmds[base + p], targets[refs[base + p]])
                    for p in range(count)
                ],
            )
            base += count
    return [per_state[i] for i in pending], row_masks


def _expand_shard_values(task):
    """Expand one shard of a value-plane round (runs in a worker process).

    ``task`` is ``(digest, plane_spec, segment, tag, width, index_bytes,
    want_masks)``.  The worker attaches the published value column, reads
    its rows in place, runs the batched kernels, and returns flat arrays:
    ``(masks, post_counts, cmd_ids, target_refs, target_values,
    target_masks)`` with targets deduplicated per shard — cheap to
    pickle, decoded by the coordinator in serial merge order.
    ``target_masks`` carries one guards-only enabled mask per
    deduplicated target when the round wants mask deltas (and the plane
    can batch them); otherwise it is empty.
    """
    digest, plane_spec, segment, tag, width, index_bytes, want_masks = task
    plane = _shard_system(digest, plane_spec)
    indices = array("q")
    indices.frombytes(index_bytes)
    needed = (max(indices) + 1) * width if len(indices) else 0
    view = shm.attach_column(segment, tag, needed)
    base = shm.HEADER_WORDS
    rows = [
        tuple(view[base + i * width: base + (i + 1) * width])
        for i in indices
    ]
    telemetry.count("shard.states_expanded", len(rows))
    telemetry.count("batch.calls")
    telemetry.count("batch.rows", len(rows))
    expansions = plane.expand_batch(rows)

    masks = array("Q", bytes(8 * len(rows)))
    counts = array("q", bytes(8 * len(rows)))
    cmds = array("q")
    refs = array("q")
    flat = array("q")
    ref_of: Dict[tuple, int] = {}
    posts_total = 0
    for offset, (mask, posts) in enumerate(expansions):
        masks[offset] = mask
        counts[offset] = len(posts)
        posts_total += len(posts)
        for k, row in posts:
            ref = ref_of.get(row)
            if ref is None:
                ref = len(ref_of)
                ref_of[row] = ref
                flat.extend(row)
            cmds.append(k)
            refs.append(ref)
    telemetry.count("shard.posts", posts_total)

    tmasks = array("Q")
    if want_masks and ref_of:
        batch = getattr(plane, "enabled_batch", None)
        target_rows = list(ref_of)  # insertion order == ref order
        batched = batch(target_rows) if batch is not None else None
        if batched is not None:
            tmasks.extend(batched)
            telemetry.count("stream.mask_batch_rows", len(target_rows))
    return masks, counts, cmds, refs, flat, tmasks


def graph_digest(graph) -> str:
    """A canonical SHA-256 over everything observable about ``graph``.

    Covers states (in index order), transitions (in transition order, with
    command *labels*, not table ids), per-state enabled sets (sorted), the
    initial count and the frontier — i.e. exactly the bit-identity contract
    of the sharded explorer.  Two graphs digest equal iff the object-level
    fingerprints used by the differential tests are equal.
    """
    h = hashlib.sha256()

    def text(s: str) -> None:
        h.update(s.encode("utf-8"))
        h.update(b"\x00")

    text(f"n={len(graph)};init={len(graph.initial_indices)}")
    for state in graph.states:
        text(repr(state))
    labels = graph.command_table.labels
    src, cmds, dsts = graph.transition_columns
    h.update(src.tobytes())
    h.update(dsts.tobytes())
    for c in cmds:
        text(labels[c])
    table = graph.command_table
    for mask in graph.enabled_masks:
        text(",".join(sorted(table.labels_of_mask(mask))))
    text("frontier=" + ",".join(map(str, sorted(graph.frontier))))
    return h.hexdigest()
