"""Packed transition storage: flat int arrays instead of object graphs.

A transition is three small integers — ``(source, command_id, target)`` —
and the engine stores exactly that, in three parallel ``array('q')``
columns indexed by *transition id* (the position in the graph's original
transition order, which all deterministic guarantees are phrased in).
Adjacency is CSR: ``out_start[i]:out_start[i+1]`` slices ``out_eid`` into
the transition ids leaving state ``i``, in original transition order (the
counting sort below is stable), so iteration order matches the object API
exactly.

Command labels are interned to bit positions by :class:`CommandTable`;
per-state and per-region command sets then become plain ints, and the set
algebra of the fairness analyses (``enabled − executed`` etc.) becomes
bitwise arithmetic.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence, Tuple


class CommandTable:
    """Interns command labels to dense ids (= bit positions)."""

    __slots__ = ("_labels", "_ids", "_singletons", "_mask_cache")

    def __init__(self, labels: Sequence[str]) -> None:
        self._labels: Tuple[str, ...] = tuple(labels)
        self._ids: Dict[str, int] = {label: i for i, label in enumerate(self._labels)}
        if len(self._ids) != len(self._labels):
            raise ValueError(f"duplicate command labels in {self._labels!r}")
        self._singletons: Tuple[frozenset, ...] = tuple(
            frozenset({label}) for label in self._labels
        )
        self._mask_cache: Dict[int, frozenset] = {0: frozenset()}

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> Tuple[str, ...]:
        return self._labels

    def id_of(self, label: str) -> int:
        return self._ids[label]

    def label_of(self, command_id: int) -> str:
        return self._labels[command_id]

    def singleton(self, command_id: int) -> frozenset:
        """The cached one-element frozenset ``{label}`` for ``command_id``."""
        return self._singletons[command_id]

    def mask_of(self, labels: Iterable[str]) -> int:
        """The bitmask with the bit of every label in ``labels`` set."""
        mask = 0
        ids = self._ids
        for label in labels:
            mask |= 1 << ids[label]
        return mask

    def labels_of_mask(self, mask: int) -> frozenset:
        """The frozenset of labels whose bits are set in ``mask`` (cached).

        Distinct masks are few (bounded by the distinct command sets the
        analyses ever form), so caching turns the per-transition
        ``enabled(p) ∪ enabled(p')`` unions of the checker into a dict hit.
        """
        cached = self._mask_cache.get(mask)
        if cached is not None:
            return cached
        labels = self._labels
        result = frozenset(
            labels[i] for i in range(len(labels)) if mask & (1 << i)
        )
        self._mask_cache[mask] = result
        return result


def _as_array(column):
    """``column`` as a picklable ``array('q')`` (memoryviews are copied)."""
    if isinstance(column, memoryview):
        copy = array("q")
        copy.frombytes(column.cast("B"))
        return copy
    return column


class PackedGraph:
    """CSR view of an indexed transition list.

    ``src``/``cmd``/``dst`` are parallel columns over transition ids;
    ``out_start``/``out_eid`` give, per source state, the ids of its
    outgoing transitions in original order.  The structure is plain data
    (arrays of ints), so parallel workers can receive sub-problems without
    dragging unpicklable systems or closures along.  Columns adopted from
    the graph store's mmap warm path are ``memoryview`` casts, which cannot
    pickle; :meth:`__reduce__` ships every column as an ``array('q')``
    copy instead (one bulk byte copy per column).
    """

    __slots__ = ("n", "src", "cmd", "dst", "out_start", "out_eid")

    def __init__(
        self,
        n: int,
        src: array,
        cmd: array,
        dst: array,
        out_start: array,
        out_eid: array,
    ) -> None:
        self.n = n
        self.src = src
        self.cmd = cmd
        self.dst = dst
        self.out_start = out_start
        self.out_eid = out_eid

    @staticmethod
    def build(
        n: int,
        triples: Iterable[Tuple[int, int, int]],
    ) -> "PackedGraph":
        """Pack ``(source, command_id, target)`` triples for ``n`` states."""
        src = array("q")
        cmd = array("q")
        dst = array("q")
        for s, c, t in triples:
            src.append(s)
            cmd.append(c)
            dst.append(t)
        return PackedGraph.from_columns(n, src, cmd, dst)

    @staticmethod
    def from_columns(
        n: int,
        src: array,
        cmd: array,
        dst: array,
    ) -> "PackedGraph":
        """CSR-index already-materialized transition columns for ``n`` states.

        The columns are adopted, not copied — the explorer streams straight
        into them and hands them over, so a million-transition graph never
        exists as per-transition Python objects.
        """
        m = len(src)
        counts = [0] * (n + 1)
        for s in src:
            counts[s + 1] += 1
        for i in range(n):
            counts[i + 1] += counts[i]
        out_start = array("q", counts)
        out_eid = array("q", bytes(8 * m))
        cursor = list(out_start[:n])
        for eid in range(m):
            s = src[eid]
            out_eid[cursor[s]] = eid
            cursor[s] += 1
        return PackedGraph(n, src, cmd, dst, out_start, out_eid)

    def __reduce__(self):
        return (
            PackedGraph,
            (
                self.n,
                _as_array(self.src),
                _as_array(self.cmd),
                _as_array(self.dst),
                _as_array(self.out_start),
                _as_array(self.out_eid),
            ),
        )

    def __len__(self) -> int:
        return len(self.src)

    def out_eids(self, state: int) -> Sequence[int]:
        """Transition ids leaving ``state``, in original transition order."""
        return self.out_eid[self.out_start[state] : self.out_start[state + 1]]

    def successors(self, state: int) -> List[int]:
        """Target indices of ``state``'s outgoing transitions, in order."""
        dst = self.dst
        return [dst[e] for e in self.out_eids(state)]
