"""Reachability exploration with explicit completeness accounting.

The verification conditions are local, so checking them over a region of the
state space means enumerating that region's transitions.  For finite-state
programs :func:`explore` exhausts the reachable states and the resulting
:class:`ReachableGraph` is *complete*: every judgement made over it is a
theorem about the program.  For infinite-state programs (the paper's
``P1``–``P4`` over unbounded integers) exploration is *bounded* and the graph
records its frontier, so downstream analyses can — and do — say precisely
what was and was not covered, instead of silently truncating.

States are interned (hashed once at discovery, :mod:`repro.engine.interning`)
and every downstream analysis works on integer indices.  Transitions are
streamed straight into flat ``array('q')`` columns during exploration — the
graph never holds per-transition Python objects, so a million-state graph
fits comfortably in RAM; :class:`IndexedTransition` values are materialized
lazily as views when object-level callers ask for them.  Per-state enabled
sets are stored as command bitmasks over an interned label table, shared
with the cached engine analyses (:attr:`ReachableGraph.analyses`).

``explore(..., n_jobs=N)`` with ``N > 1`` dispatches to the value-plane
round explorer (:mod:`repro.engine.shard`) when the system has a value
plane (:meth:`TransitionSystem.value_plane`); every other system explores
serially.  Results are bit-identical to the serial path by construction
and by differential test.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.engine.interning import StateInterner
from repro.engine.packed import CommandTable, PackedGraph
from repro.telemetry import core as telemetry
from repro.telemetry import events
from repro.ts.system import CommandLabel, State, Transition, TransitionSystem


class ExplorationLimitError(RuntimeError):
    """Raised by :func:`explore` with ``strict=True`` when a bound is hit."""


class StopExploration(Exception):
    """Raised by an :class:`ExplorationObserver` callback to stop exploring.

    The explorer catches it, abandons the state whose expansion was in
    flight (it becomes frontier, so its partially-observed transitions are
    dropped exactly like a budget-truncated source) and returns the graph
    built so far.  In the sharded explorer the signal also cancels the
    round loop, so no further round is dispatched to the worker pool.
    Stopping never sets the ``strict`` truncation flag — it is a consumer
    verdict, not a bound.
    """


class ExplorationObserver:
    """Streaming hooks into exploration (serial and sharded).

    Subclass and override any of the callbacks; the default implementations
    do nothing.  The event stream is **bit-identical between the serial and
    sharded explorers** — the sharded coordinator replays the serial
    merge order — and follows the contract:

    * ``on_state`` fires once per state, at intern time, in index order
      (initial states first, at depth 0);
    * ``on_transition`` fires when a transition is *recorded*, in
      transition order.  A source's transitions are contiguous;
    * ``on_expanded`` fires after a source's expansion completed without
      truncation — exactly the sources whose transitions survive into the
      final graph.  A source that hit the state budget mid-expansion gets
      no ``on_expanded``; consumers buffering its transitions must discard
      them (they are dropped from the graph too).

    Any callback may raise :class:`StopExploration` to end exploration
    early.  Observer callbacks run in the coordinator process only — they
    never ship to pool workers.
    """

    __slots__ = ()

    def on_state(self, index: int, state: State, depth: int) -> None:
        """A state was discovered and interned at ``index``."""

    def on_transition(
        self, source: int, command: CommandLabel, target: int
    ) -> None:
        """A transition was recorded (both endpoints already interned)."""

    def on_expanded(self, index: int, enabled: frozenset) -> None:
        """``index`` finished expanding; ``enabled`` is its command set.

        Every ``on_transition`` with this source has already fired, and all
        of them are final (they will appear in the returned graph)."""


@dataclass(frozen=True)
class IndexedTransition:
    """A transition in index form: ``source``/``target`` are state indices."""

    source: int
    command: CommandLabel
    target: int


#: Graphs at or below this many states memoize the per-state transition
#: tuples handed out by ``outgoing``/``incoming`` (repeat callers get the
#: same tuple back, as the old eager representation did).  Above it the
#: tuples are rebuilt per call so object views never pin O(m) dataclasses
#: on a million-state graph.
VIEW_MEMO_LIMIT = 1 << 17


class TransitionView(Sequence):
    """Lazy sequence of :class:`IndexedTransition` over the packed columns.

    Supports ``len``/iteration/indexing/slicing like the tuple it replaces;
    each access materializes fresh dataclass views from the ``(src, cmd,
    dst)`` arrays instead of keeping ``m`` objects alive.  Graphs small
    enough to afford the objects (≤ :data:`VIEW_MEMO_LIMIT` transitions)
    memoize the materialized tuple on first full iteration, so consumers
    that re-scan the transition list repeatedly (the seed reference
    algorithms do) pay the object construction once, as they did when the
    graph stored a tuple; million-state graphs stay lazy.
    """

    __slots__ = ("_src", "_cmd", "_dst", "_labels", "_items")

    def __init__(
        self, src: array, cmd: array, dst: array, labels: Tuple[str, ...]
    ) -> None:
        self._src = src
        self._cmd = cmd
        self._dst = dst
        self._labels = labels
        self._items: Tuple[IndexedTransition, ...] | None = None

    def __len__(self) -> int:
        return len(self._src)

    def __getitem__(self, item):
        if self._items is not None:
            return self._items[item]
        if isinstance(item, slice):
            indices = range(len(self._src))[item]
            return tuple(self._make(eid) for eid in indices)
        # range() handles negative indices and raises IndexError uniformly.
        return self._make(range(len(self._src))[item])

    def _make(self, eid: int) -> IndexedTransition:
        return IndexedTransition(
            self._src[eid], self._labels[self._cmd[eid]], self._dst[eid]
        )

    def __iter__(self) -> Iterator[IndexedTransition]:
        if self._items is None and len(self._src) <= VIEW_MEMO_LIMIT:
            self._items = tuple(
                self._make(eid) for eid in range(len(self._src))
            )
        if self._items is not None:
            return iter(self._items)
        labels = self._labels
        return (
            IndexedTransition(s, labels[c], d)
            for s, c, d in zip(self._src, self._cmd, self._dst)
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, TransitionView):
            if len(self) != len(other):
                return False
            return all(a == b for a, b in zip(self, other))
        if isinstance(other, (tuple, list)):
            if len(self) != len(other):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable-adjacent view; compare by content only

    def __repr__(self) -> str:
        return f"<TransitionView of {len(self)} transitions>"


class ReachableGraph:
    """The explored region of a transition system.

    States are indexed ``0..n-1`` in discovery (BFS) order; index ``0..k-1``
    are the initial states.  The graph stores transitions as three parallel
    integer columns (CSR-indexed on demand) and per-state enabled-command
    bitmasks over an interned :class:`CommandTable`, plus:

    * :attr:`complete` — whether exploration exhausted all reachable states;
    * :attr:`frontier` — indices of states whose successors were *not*
      expanded (non-empty exactly when incomplete).

    All verification-condition checking, fair-cycle detection, SCC analysis
    and synthesis run over this structure.  Index-native callers should use
    :attr:`analyses` (which shares the graph's own packed arrays and masks
    — construction is O(1)) instead of round-tripping through
    :class:`State` objects.
    """

    def __init__(
        self,
        system: TransitionSystem,
        states: Sequence[State],
        labels: Sequence[str],
        src: array,
        cmd: array,
        dst: array,
        enabled_masks: Sequence[int],
        initial_count: int,
        frontier: Iterable[int],
        index: Dict[State, int] | None,
    ) -> None:
        """Adopt already-packed exploration output.

        Used by the explorers (list-of-states + interner index) and by the
        graph store's mmap warm path, which hands in lazy mmap-backed
        sequences: a non-list/tuple ``states`` sequence is adopted as-is
        (states materialize on access), ``src``/``cmd``/``dst``/
        ``enabled_masks`` may be ``memoryview`` casts over a mapping, and
        ``index=None`` defers building the ``State → index`` map until an
        object-level lookup first needs it.
        """
        if isinstance(states, list):
            states = tuple(states)
        self._system = system
        self._states = states
        self._index = index  # None until an object-level lookup needs it
        self._table = CommandTable(list(labels))
        self._src = src
        self._cmd = cmd
        self._dst = dst
        # ``array('Q')`` when every mask fits 64 bits (the common case);
        # already-packed masks (``array('Q')`` or an mmap-backed
        # ``memoryview`` cast) are adopted without copying; a plain list
        # of (big) ints otherwise.
        if isinstance(enabled_masks, memoryview) or (
            isinstance(enabled_masks, array)
            and enabled_masks.typecode == "Q"
        ):
            self._enabled_masks: Sequence[int] = enabled_masks
        elif len(labels) <= 64:
            self._enabled_masks = array("Q", enabled_masks)
        else:
            self._enabled_masks = list(enabled_masks)
        self._initial_count = initial_count
        self._frontier = frozenset(frontier)
        #: ``column key → (path, words, typecode)`` for columns whose bytes
        #: already live in a single on-disk chunk (filled by the graph
        #: store's mmap-warm loader).  Consumers that ship columns to
        #: workers — the verification plane — adopt these by path instead
        #: of copying them through shared memory.
        self.column_files: Dict[str, tuple] = {}
        self._packed: PackedGraph | None = None
        self._in_start: array | None = None
        self._in_eid: array | None = None
        memoize = len(states) <= VIEW_MEMO_LIMIT
        self._out_memo: Dict[int, tuple] | None = {} if memoize else None
        self._in_memo: Dict[int, tuple] | None = {} if memoize else None
        self._view: TransitionView | None = None
        self._analyses = None
        self._scc_cache = None  # full-graph SccDecomposition, set by decompose()

    # -- basic queries -------------------------------------------------

    @property
    def system(self) -> TransitionSystem:
        """The underlying transition system."""
        return self._system

    @property
    def states(self) -> Sequence[State]:
        """All explored states, in discovery order (a tuple for explorer
        output; a lazy mmap-backed column view for store-loaded graphs)."""
        return self._states

    @property
    def transitions(self) -> TransitionView:
        """All explored transitions (between expanded states), as a lazy
        sequence view over the packed columns.  The view instance is
        shared across accesses so its iteration memo survives."""
        if self._view is None:
            self._view = TransitionView(
                self._src, self._cmd, self._dst, self._table.labels
            )
        return self._view

    @property
    def initial_indices(self) -> range:
        """Indices of the initial states."""
        return range(self._initial_count)

    @property
    def frontier(self) -> frozenset:
        """Indices of discovered-but-unexpanded states."""
        return self._frontier

    @property
    def complete(self) -> bool:
        """Whether the whole reachable state space was explored."""
        return not self._frontier

    def __len__(self) -> int:
        return len(self._states)

    def _ensure_index(self) -> Dict[State, int]:
        """The ``State → index`` map, built on first object-level lookup.

        Graphs loaded from the mmap-backed store adopt their states as a
        lazy column view; materializing a million state objects to build
        this dict is deferred until something actually asks."""
        if self._index is None:
            index = {s: i for i, s in enumerate(self._states)}
            if len(index) != len(self._states):
                raise ValueError("duplicate states in exploration result")
            self._index = index
        return self._index

    def index_of(self, state: State) -> int:
        """The index of ``state``; raises ``KeyError`` if unexplored."""
        return self._ensure_index()[state]

    def state_of(self, index: int) -> State:
        """The state at ``index``."""
        return self._states[index]

    def contains(self, state: State) -> bool:
        """Whether ``state`` was discovered."""
        return state in self._ensure_index()

    def enabled_at(self, index: int) -> frozenset:
        """Enabled commands of the state at ``index`` (cached per mask)."""
        return self._table.labels_of_mask(self._enabled_masks[index])

    def outgoing(self, index: int) -> Sequence[IndexedTransition]:
        """Outgoing transitions of the state at ``index``."""
        memo = self._out_memo
        if memo is not None:
            cached = memo.get(index)
            if cached is not None:
                return cached
        packed = self.packed
        labels = self._table.labels
        cmd = self._cmd
        dst = self._dst
        result = tuple(
            IndexedTransition(index, labels[cmd[e]], dst[e])
            for e in packed.out_eids(index)
        )
        if memo is not None:
            memo[index] = result
        return result

    def incoming(self, index: int) -> Sequence[IndexedTransition]:
        """Incoming transitions of the state at ``index``."""
        memo = self._in_memo
        if memo is not None:
            cached = memo.get(index)
            if cached is not None:
                return cached
        if self._in_start is None:
            self._build_incoming_csr()
        labels = self._table.labels
        src = self._src
        cmd = self._cmd
        result = tuple(
            IndexedTransition(src[e], labels[cmd[e]], index)
            for e in self._in_eid[self._in_start[index] : self._in_start[index + 1]]
        )
        if memo is not None:
            memo[index] = result
        return result

    def _build_incoming_csr(self) -> None:
        n = len(self._states)
        dst = self._dst
        counts = [0] * (n + 1)
        for d in dst:
            counts[d + 1] += 1
        for i in range(n):
            counts[i + 1] += counts[i]
        in_start = array("q", counts)
        in_eid = array("q", bytes(8 * len(dst)))
        cursor = list(in_start[:n])
        for eid in range(len(dst)):
            d = dst[eid]
            in_eid[cursor[d]] = eid
            cursor[d] += 1
        self._in_start = in_start
        self._in_eid = in_eid

    def is_terminal(self, index: int) -> bool:
        """Whether the state at ``index`` enables no command."""
        return not self._enabled_masks[index]

    def terminal_indices(self) -> List[int]:
        """Indices of all terminal (no command enabled) states."""
        masks = self._enabled_masks
        return [i for i in range(len(self._states)) if not masks[i]]

    def to_transition(self, t: IndexedTransition) -> Transition:
        """Convert an indexed transition back to state form."""
        return Transition(self._states[t.source], t.command, self._states[t.target])

    # -- engine view -----------------------------------------------------

    @property
    def command_table(self) -> CommandTable:
        """The graph's interned command-label table."""
        return self._table

    @property
    def packed(self) -> PackedGraph:
        """The CSR adjacency over the graph's own transition columns.

        Indexed lazily on first use (a single counting sort); the columns
        themselves were filled during exploration, so no per-transition
        objects are ever rebuilt.
        """
        if self._packed is None:
            self._packed = PackedGraph.from_columns(
                len(self._states), self._src, self._cmd, self._dst
            )
        return self._packed

    @property
    def enabled_masks(self) -> Sequence[int]:
        """Per-state enabled-command bitmasks over :attr:`command_table`."""
        return self._enabled_masks

    @property
    def transition_columns(self) -> Tuple[array, array, array]:
        """The raw ``(src, cmd_id, dst)`` columns, in transition order."""
        return self._src, self._cmd, self._dst

    @property
    def analyses(self):
        """Cached :class:`repro.engine.analysis.GraphAnalyses` for this graph.

        Shares the graph's own command table, packed arrays and enabled
        bitmasks — construction does no per-transition work — and adds the
        memoized full-graph SCC decomposition plus region-query helpers.
        """
        if self._analyses is None:
            from repro.engine.analysis import GraphAnalyses

            self._analyses = GraphAnalyses(self)
        return self._analyses

    # -- derived facts ---------------------------------------------------

    def commands_executed_within(self, indices: Iterable[int]) -> frozenset:
        """Commands executed on transitions staying inside ``indices``.

        ``indices`` may be any iterable; passing a ``set``/``frozenset``
        skips re-materialisation, and the answer is assembled from cached
        bitmasks rather than per-call frozenset churn.
        """
        analyses = self.analyses
        return analyses.labels_of_mask(analyses.executed_mask_within(indices))

    def commands_enabled_within(self, indices: Iterable[int]) -> frozenset:
        """Commands enabled at some state of ``indices``."""
        analyses = self.analyses
        return analyses.labels_of_mask(analyses.enabled_mask_within(indices))

    def describe(self) -> str:
        """One-line summary used by reports."""
        status = "complete" if self.complete else f"bounded (frontier {len(self._frontier)})"
        return (
            f"{len(self._states)} states, {len(self._src)} transitions, "
            f"{status}"
        )


def explore(
    system: TransitionSystem,
    max_states: int | None = None,
    max_depth: int | None = None,
    strict: bool = False,
    n_jobs: int | None = None,
    observer: ExplorationObserver | None = None,
) -> ReachableGraph:
    """Breadth-first exploration of the reachable states of ``system``.

    Parameters
    ----------
    max_states:
        Stop expanding after this many states have been discovered.
    max_depth:
        Do not expand states deeper than this many transitions from the
        initial states.
    strict:
        If true, raise :class:`ExplorationLimitError` when a bound truncates
        exploration instead of returning an incomplete graph.
    n_jobs:
        With ``n_jobs > 1`` (or ``-1`` for all cores) and a system with a
        value plane (:meth:`TransitionSystem.value_plane`), exploration
        runs in batched BFS rounds, hash-sharded across the persistent
        worker pool when a round is wide enough; the result is
        bit-identical to the serial path.  Systems without a plane explore
        serially.
    observer:
        An :class:`ExplorationObserver` receiving streaming callbacks on
        state discovery, transition emission and state completion, with
        :class:`StopExploration` as the early-exit control signal.  The
        event stream is identical under serial and sharded exploration.
    """
    system.validate_commands()
    if not telemetry.enabled():
        graph = _explore_dispatch(
            system, max_states, max_depth, strict, n_jobs, observer
        )
        _emit_explore_summary(system, graph)
        return graph
    # Telemetry wrapper: one span around the whole exploration, totals
    # counted once at the end (never inside the BFS loop), and the
    # system's successor-cache counters unified into the registry as the
    # delta this exploration contributed.
    cache_stats = getattr(system, "successor_cache_stats", None)
    before = cache_stats() if cache_stats is not None else None
    with telemetry.span(
        "explore", system=getattr(system, "name", type(system).__name__)
    ) as sp:
        try:
            graph = _explore_dispatch(
                system, max_states, max_depth, strict, n_jobs, observer
            )
        except ExplorationLimitError:
            telemetry.count("explore.strict_aborts")
            raise
        telemetry.count("explore.runs")
        telemetry.count("explore.states", len(graph))
        telemetry.count("explore.transitions", len(graph.transition_columns[0]))
        telemetry.count("explore.frontier_states", len(graph.frontier))
        if not graph.complete:
            telemetry.count("explore.truncated")
        if before is not None:
            hits, misses = cache_stats()
            telemetry.count("succache.hit", hits - before[0])
            telemetry.count("succache.miss", misses - before[1])
        sp.set("states", len(graph))
        sp.set("complete", graph.complete)
    _emit_explore_summary(system, graph)
    return graph


def _emit_explore_summary(system: TransitionSystem, graph: ReachableGraph) -> None:
    """One ``explore.summary`` event per finished exploration — a phase
    boundary, so it goes to the always-on flight recorder unconditionally."""
    events.emit(
        events.EXPLORE_SUMMARY,
        system=getattr(system, "name", type(system).__name__),
        states=len(graph),
        transitions=len(graph.transition_columns[0]),
        frontier=len(graph.frontier),
        complete=graph.complete,
    )


def _explore_dispatch(
    system: TransitionSystem,
    max_states: int | None,
    max_depth: int | None,
    strict: bool,
    n_jobs: int | None,
    observer: ExplorationObserver | None = None,
) -> ReachableGraph:
    """Serial-vs-value-rounds dispatch (the pre-telemetry body of
    ``explore``): value-plane systems asked for ``n_jobs > 1`` take the
    batched rounds, everything else the serial BFS."""
    if n_jobs is not None:
        from repro.engine.parallel import resolve_jobs

        plane = system.value_plane() if resolve_jobs(n_jobs) > 1 else None
        if plane is not None:
            from repro.engine.shard import explore_sharded

            return explore_sharded(
                system,
                plane,
                max_states=max_states,
                max_depth=max_depth,
                strict=strict,
                n_jobs=n_jobs,
                observer=observer,
            )
    return _explore_serial(system, max_states, max_depth, strict, observer)


def _stop_counters(states_discovered: int) -> None:
    """Phase-boundary telemetry for one :class:`StopExploration` signal."""
    telemetry.count("stream.stops")
    telemetry.count("stream.states_at_stop", states_discovered)


def _explore_serial(
    system: TransitionSystem,
    max_states: int | None,
    max_depth: int | None,
    strict: bool,
    observer: ExplorationObserver | None = None,
    expand=None,
    enabled_fn=None,
) -> ReachableGraph:
    """The serial BFS.

    ``expand``/``enabled_fn`` override ``system.expand``/``system.enabled``
    per call — the graph store's incremental re-exploration substitutes a
    replaying expander here while keeping every other statement of the
    loop (interning, budgets, observer stream, frontier semantics)
    untouched, which is what makes its output bit-identical to a stock
    exploration.
    """
    expand_fn = system.expand if expand is None else expand
    interner = StateInterner()
    states = interner.states
    depth = array("q")

    for s in system.initial_states():
        _, is_new = interner.intern(s)
        if is_new:
            depth.append(0)
    initial_count = len(states)
    if initial_count == 0:
        raise ValueError("system has no initial states")

    labels: List[str] = list(system.commands())
    label_ids: Dict[str, int] = {label: k for k, label in enumerate(labels)}
    src = array("q")
    cmd = array("q")
    dst = array("q")
    # Parallel to ``states``: enabled mask (-1 = not yet computed) and an
    # expanded flag.  Flat arrays, not dicts/sets — a million-state run
    # must not allocate a million boxed ints of bookkeeping.
    emask_of = [-1] * initial_count
    expanded = bytearray(initial_count)
    frontier: Set[int] = set()
    queue = deque(range(initial_count))
    truncated = False
    # ``None`` unless live progress was opted into; the disabled-mode cost
    # of the display is the single ``is not None`` test per expansion.
    # Same deal for the event heartbeat: ``None`` unless an event consumer
    # (an NDJSON sink, the exposition server) is attached.  The stride
    # lives here, not inside the ticker: computing the tick arguments
    # (three ``len`` calls) per expansion costs several percent on a
    # million-state family, so only every stride-th expansion builds them.
    progress = telemetry.progress_reporter()
    ticker = events.exploration_ticker()
    tick_stride = events.PROGRESS_STRIDE
    ticks = 0

    i = -1
    finalized = -1
    try:
        if observer is not None:
            for idx in range(initial_count):
                observer.on_state(idx, states[idx], 0)
        while queue:
            i = queue.popleft()
            if expanded[i]:
                continue
            if max_depth is not None and depth[i] > max_depth:
                frontier.add(i)
                truncated = True
                continue
            if progress is not None:
                progress.maybe(len(states), len(queue), depth[i])
            if ticker is not None:
                ticks += 1
                if not ticks % tick_stride:
                    ticker.tick(len(states), len(queue), depth[i])
            expanded[i] = 1
            state = states[i]
            successor_depth = depth[i] + 1
            at_budget = max_states is not None and len(states) >= max_states
            # ``expand`` hands back enabledness and successors from one guard
            # pass (and lets compiled systems answer from their successor
            # cache); unexpanded states get a guards-only query at the end.
            enabled_set, posts = expand_fn(state)
            mask = 0
            for label in enabled_set:
                k = label_ids.get(label)
                if k is None:
                    k = len(labels)
                    label_ids[label] = k
                    labels.append(label)
                mask |= 1 << k
            emask_of[i] = mask
            for command, target in posts:
                if at_budget:
                    # At the state budget only already-interned successors may
                    # be recorded; a genuinely new one is lost, so the source
                    # becomes frontier.
                    j = interner.lookup(target)
                    if j is None:
                        frontier.add(i)
                        truncated = True
                        # The state stays expanded for the transitions already
                        # recorded; mark it frontier because this successor is
                        # lost.
                        break
                else:
                    j, is_new = interner.intern(target)
                    if is_new:
                        depth.append(successor_depth)
                        emask_of.append(-1)
                        expanded.append(0)
                        at_budget = max_states is not None and len(states) >= max_states
                        if observer is not None:
                            observer.on_state(j, target, successor_depth)
                k = label_ids.get(command)
                if k is None:
                    k = len(labels)
                    label_ids[command] = k
                    labels.append(command)
                src.append(i)
                cmd.append(k)
                dst.append(j)
                if not expanded[j]:
                    queue.append(j)
                if observer is not None:
                    observer.on_transition(i, command, j)
            else:
                # The posts loop completed without a budget break: the
                # state's recorded transitions are final.
                if observer is not None:
                    finalized = i
                    observer.on_expanded(i, enabled_set)
    except StopExploration:
        # A state whose expansion was still in flight reverts to frontier,
        # so its partially-observed transitions are dropped by
        # ``_finish_graph`` like any other truncated source; a stop raised
        # from ``on_expanded`` keeps the (final, already consumed)
        # transitions.  ``truncated`` is deliberately not set: stopping is
        # a consumer verdict, not a bound.
        if i >= 0 and i != finalized and expanded[i]:
            expanded[i] = 0
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
        enabled_fn=enabled_fn,
    )


def _finish_graph(
    system: TransitionSystem,
    interner: StateInterner,
    labels: List[str],
    label_ids: Dict[str, int],
    src: array,
    cmd: array,
    dst: array,
    emask_of: List[int],
    expanded: bytearray,
    frontier: Set[int],
    initial_count: int,
    truncated: bool,
    strict: bool,
    max_states: int | None,
    max_depth: int | None,
    enabled_fn=None,
) -> ReachableGraph:
    """Shared tail of the serial and sharded explorers.

    Applies the strict-mode check, completes the frontier with never-expanded
    states, fills in guards-only enabled masks for them, drops transitions
    recorded from partially-expanded frontier sources, and assembles the
    compact graph.  Keeping this in one place is part of the bit-identity
    argument: both explorers feed it the same intermediate state.
    """
    states = interner.states

    if truncated and strict:
        raise ExplorationLimitError(
            f"exploration truncated at {len(states)} states "
            f"(max_states={max_states}, max_depth={max_depth})"
        )

    # States discovered but never expanded (depth cut or budget exhaustion).
    for i in range(len(states)):
        if not expanded[i]:
            frontier.add(i)

    query_enabled = system.enabled if enabled_fn is None else enabled_fn
    for i in range(len(states)):
        if emask_of[i] < 0:
            mask = 0
            for label in query_enabled(states[i]):
                k = label_ids.get(label)
                if k is None:
                    k = len(labels)
                    label_ids[label] = k
                    labels.append(label)
                mask |= 1 << k
            emask_of[i] = mask

    # Keep only transitions whose source was genuinely expanded; a partially
    # expanded frontier state may have recorded a prefix of its successors,
    # which would bias analyses that assume all-or-nothing expansion.
    if frontier:
        ksrc = array("q")
        kcmd = array("q")
        kdst = array("q")
        for eid in range(len(src)):
            s = src[eid]
            if s in frontier:
                continue
            ksrc.append(s)
            kcmd.append(cmd[eid])
            kdst.append(dst[eid])
        src, cmd, dst = ksrc, kcmd, kdst

    return ReachableGraph(
        system=system,
        states=states,
        labels=labels,
        src=src,
        cmd=cmd,
        dst=dst,
        enabled_masks=emask_of,
        initial_count=initial_count,
        frontier=frontier,
        index=interner.index,
    )
