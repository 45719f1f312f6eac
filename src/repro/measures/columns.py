"""Packed stack columns: a whole ``StackAssignment`` as flat ``int64`` rows.

The materialized checker used to build two :class:`Stack` objects and two
frozensets per transition.  This module packs the per-state stacks once
into four parallel columns so the level search
(:func:`repro.measures.verification.find_active_level_general`) becomes
integer arithmetic over column slices:

``offsets``
    ``n_states + 1`` entries; state ``i``'s hypotheses occupy rows
    ``offsets[i]:offsets[i+1]`` (bottom-up, so row ``offsets[i]`` is the
    T-hypothesis).
``subject``
    per row, the hypothesis subject as an integer: ``-1`` for the
    T-hypothesis, the :class:`~repro.engine.packed.CommandTable` id for a
    command subject (so (V_NonI) is ``subject == cmd[eid]`` and the
    enabled half of (V_A) is a bit test against the state's enabled
    mask), and ``n_commands + k`` for the ``k``-th interned stray subject
    (never equal to a command id or an enabled bit — strays can neither
    be invalidated nor enabled under command fairness).
``value_id``
    per row, the measure value interned by ``==`` (``-1`` for a bare
    hypothesis).  Two rows carry equal values iff their ids are equal —
    exactly the entry-wise equality (V_NoC)'s
    :func:`~repro.measures.stack.stacks_equal_below` tests, because
    :class:`~repro.measures.hypotheses.Hypothesis` equality is ``==`` on
    the value.  (Like :meth:`WellFoundedOrder.ge`, this assumes ``≻``
    respects ``==``; every library order does.)
``rank``
    per row, an integer with ``order.gt(a, b)  ⟺  rank(a) > rank(b)``
    for all encoded values — so the decrease half of (V_A) is one
    integer compare.  Ranks come from the identity for
    :class:`~repro.wf.naturals.Naturals` / ``BoundedNaturals`` (where
    ``gt`` *is* ``>``), or from exhaustively verified dominance counts
    for any other order with at most :data:`RANK_CAP` distinct values;
    when neither construction is exact the encode **refuses** (returns a
    fallback reason) and the checker keeps the tuple path.  Exactness is
    all-or-nothing: the columnar kernel never approximates the order.

All four columns are ``array('q')`` and publish through
:class:`repro.engine.shm.ShmArena` unchanged, so pool workers receive a
manifest and an edge range instead of pickled stacks.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.packed import CommandTable
from repro.measures.hypotheses import Hypothesis, TERMINATION
from repro.measures.stack import Stack
from repro.wf.base import WellFoundedOrder
from repro.wf.naturals import BoundedNaturals, Naturals

#: Most distinct measure values for which the dominance-count rank table
#: is attempted (the construction verifies all O(cap²) pairs).
RANK_CAP = 512

#: Ranks must survive the trip through an ``int64`` shared-memory word.
_RANK_LIMIT = 1 << 62

#: Subject sentinel for the T-hypothesis.
T_SUBJECT = -1

#: Value sentinel for a bare hypothesis (no measure attached).
BARE_VALUE = -1


class StackColumns:
    """The packed form of one assignment over one graph's states."""

    __slots__ = (
        "offsets",
        "subject",
        "value_id",
        "rank",
        "values",
        "stray_labels",
        "n_commands",
    )

    def __init__(
        self,
        offsets: array,
        subject: array,
        value_id: array,
        rank: array,
        values: List[object],
        stray_labels: List[str],
        n_commands: int,
    ) -> None:
        self.offsets = offsets
        self.subject = subject
        self.value_id = value_id
        self.rank = rank
        #: Interned measure values, decode-side only (workers never see them).
        self.values = values
        #: Interned non-command, non-T subjects, decode-side only.
        self.stray_labels = stray_labels
        self.n_commands = n_commands

    @property
    def n_states(self) -> int:
        return len(self.offsets) - 1

    def decode_stack(self, index: int, commands: CommandTable) -> Stack:
        """Rebuild state ``index``'s :class:`Stack` (tests and diagnostics).

        Round-trip identity with the encoded stacks is a property test:
        the codec must lose nothing the level search observes.
        """
        lo, hi = self.offsets[index], self.offsets[index + 1]
        entries = []
        for row in range(lo, hi):
            sid = self.subject[row]
            if sid == T_SUBJECT:
                label = TERMINATION
            elif sid < self.n_commands:
                label = commands.label_of(sid)
            else:
                label = self.stray_labels[sid - self.n_commands]
            vid = self.value_id[row]
            value = None if vid == BARE_VALUE else self.values[vid]
            entries.append(Hypothesis(label, value))
        return Stack(entries)


def _rank_table(
    order: WellFoundedOrder, values: Sequence[object]
) -> Optional[List[int]]:
    """Exact integer ranks for ``values`` under ``order``, or ``None``.

    Naturals-like orders rank by the value itself (``gt`` is literally
    ``>`` there).  Otherwise a dominance count ``r(a) = |{b : a ≻ b}|``
    is computed and verified against ``gt`` on **every** ordered pair —
    the table is used only if ``gt(a, b) ⟺ r(a) > r(b)`` holds
    exhaustively, so a partial order that the counts cannot linearise
    falls back rather than mis-deciding a single (V_A) test.
    """
    if isinstance(order, (Naturals, BoundedNaturals)):
        ranks: List[int] = []
        for value in values:
            if not isinstance(value, int) or not -_RANK_LIMIT < value < _RANK_LIMIT:
                return None
            ranks.append(value)
        return ranks
    k = len(values)
    if k > RANK_CAP:
        return None
    try:
        dominates = [
            [order.gt(a, b) for b in values] for a in values
        ]
    except Exception:
        return None
    ranks = [sum(row) for row in dominates]
    for i in range(k):
        for j in range(k):
            if dominates[i][j] != (ranks[i] > ranks[j]):
                return None
    return ranks


def encode_stacks(
    stacks: Sequence[Stack],
    commands: CommandTable,
    order: WellFoundedOrder,
) -> Tuple[Optional[StackColumns], Optional[str]]:
    """Pack ``stacks`` into columns; ``(columns, None)`` or ``(None, reason)``.

    Fallback reasons (telemetry counter suffixes):

    * ``command_width`` — more than 63 commands; enabled masks would not
      fit the signed shm word the kernel bit-tests.
    * ``t_label`` — a command is literally labelled ``"T"``; the sentinel
      encoding could not tell it from the T-hypothesis under (V_NonI).
    * ``rank`` — no exact integer ranking of the measure values exists
      (order too large, partial beyond dominance counts, or values
      outside the ``int64`` range).
    """
    n_commands = len(commands)
    if n_commands > 63:
        return None, "command_width"
    command_ids = {label: k for k, label in enumerate(commands.labels)}
    if TERMINATION in command_ids:
        return None, "t_label"

    offsets = array("q", [0])
    subject = array("q")
    value_id = array("q")
    values: List[object] = []
    value_ids: Dict[object, int] = {}
    stray_labels: List[str] = []
    stray_ids: Dict[str, int] = {}

    total = 0
    for stack in stacks:
        for hypothesis in stack:
            label = hypothesis.subject
            if label == TERMINATION:
                sid = T_SUBJECT
            else:
                sid = command_ids.get(label)
                if sid is None:
                    sid = stray_ids.get(label)
                    if sid is None:
                        sid = n_commands + len(stray_labels)
                        stray_ids[label] = sid
                        stray_labels.append(label)
            subject.append(sid)
            value = hypothesis.value
            if value is None:
                value_id.append(BARE_VALUE)
            else:
                vid = value_ids.get(value)
                if vid is None:
                    vid = len(values)
                    value_ids[value] = vid
                    values.append(value)
                value_id.append(vid)
        total += stack.height
        offsets.append(total)

    ranks = _rank_table(order, values)
    if ranks is None:
        return None, "rank"
    rank = array("q", (0 if vid == BARE_VALUE else ranks[vid] for vid in value_id))
    columns = StackColumns(
        offsets, subject, value_id, rank, values, stray_labels, n_commands
    )
    return columns, None


#: Aggregate outcome counters of one kernel run, in this order:
#: ``(transitions, witnessed, violations, active_enabled, active_decrease,
#: failed_v_noc, failed_v_noni, failed_v_a, failed_other)`` — the exact
#: totals :func:`repro.measures.verification._count_outcome` would have
#: produced transition by transition.
PlaneCounts = Tuple[int, int, int, int, int, int, int, int, int]


def check_chunk_columns(
    soff,
    ssub,
    sval,
    srank,
    src,
    cmd,
    dst,
    emask,
    lo: int,
    hi: int,
    n_commands: int,
) -> Tuple[array, List[int], PlaneCounts]:
    """The batched level search over transitions ``lo..hi-1``.

    All column arguments are flat int sequences (local arrays, shm views
    or mmapped graph-store chunks — the kernel never knows).  Returns
    ``(witness_words, violations, counts)``:

    * ``witness_words[e - lo]`` is ``(level << 1) | reason`` (reason 0 =
      enabled, 1 = decrease) for a witnessed transition and ``-1``
      otherwise.
    * ``violations`` — absolute eids of unwitnessed transitions, in eid
      order; the caller re-runs the object-level search on just these to
      materialize bit-identical failure details.
    * ``counts`` — :data:`PlaneCounts` telemetry totals, accumulated
      branch-for-branch with the tuple path (V_A failures before a
      witness included).

    The level-by-level control flow mirrors
    :func:`~repro.measures.verification.find_active_level_general`
    exactly: subject change, (V_NoC) and (V_NonI) break the search;
    (V_A) failures record and continue; the first witnessing level
    returns.  The (V_NoC) prefix test is incremental — entries at levels
    below the current one were already compared, so one ``value_id``
    equality per surviving level suffices.
    """
    words = array("q", bytes(8 * (hi - lo)))
    violations: List[int] = []
    transitions = hi - lo
    witnessed = 0
    n_enabled = 0
    n_decrease = 0
    f_noc = 0
    f_noni = 0
    f_a = 0
    f_other = 0

    for eid in range(lo, hi):
        s = src[eid]
        t = dst[eid]
        sb = soff[s]
        tb = soff[t]
        max_level = min(soff[s + 1] - sb, soff[t + 1] - tb)
        executed = cmd[eid]
        union = emask[s] | emask[t]
        word = -1
        prefix_equal = True
        for level in range(max_level):
            bsub = ssub[sb + level]
            if bsub != ssub[tb + level]:
                f_noc += 1  # "changes subject" counts as (V_NoC)
                break
            if not prefix_equal:
                f_noc += 1
                break
            if bsub == executed:
                f_noni += 1
                break
            if 0 <= bsub < n_commands and (union >> bsub) & 1:
                word = (level << 1) | 0
                n_enabled += 1
                break
            bval = sval[sb + level]
            aval = sval[tb + level]
            if bval != BARE_VALUE and aval != BARE_VALUE:
                if srank[sb + level] > srank[tb + level]:
                    word = (level << 1) | 1
                    n_decrease += 1
                    break
                f_a += 1
            else:
                f_a += 1
            if bval != aval:
                prefix_equal = False
        words[eid - lo] = word
        if word >= 0:
            witnessed += 1
        else:
            if max_level == 0:
                f_other += 1  # "empty stack overlap"
            violations.append(eid)

    counts = (
        transitions,
        witnessed,
        len(violations),
        n_enabled,
        n_decrease,
        f_noc,
        f_noni,
        f_a,
        f_other,
    )
    return words, violations, counts
