"""Profiles of measures and graphs, for reports and the CLI.

A :class:`MeasureProfile` condenses a stack assignment over an explored
graph into the quantities the experiments talk about: stack-height
distribution, hypothesis usage, measure-value ranges per subject, and —
when a check result is supplied — the active-level histogram split by
executed command (the §4.2 view).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.measures.assignment import StackAssignment
from repro.measures.verification import MeasureCheckResult, WitnessColumn
from repro.ts.explore import ReachableGraph


@dataclass
class SubjectProfile:
    """Usage statistics of one hypothesis subject across all stacks."""

    subject: str
    occurrences: int = 0
    levels: Dict[int, int] = field(default_factory=dict)
    bare: int = 0
    values_seen: int = 0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None

    def note(self, level: int, value: Optional[Any]) -> None:
        """Record one occurrence at ``level`` carrying ``value``."""
        self.occurrences += 1
        self.levels[level] = self.levels.get(level, 0) + 1
        if value is None:
            self.bare += 1
            return
        self.values_seen += 1
        try:
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value
        except TypeError:
            # Values from partial orders need not be comparable; ranges are
            # best-effort.
            pass


@dataclass
class MeasureProfile:
    """The condensed description of a measure over a graph."""

    states: int
    height_histogram: Dict[int, int]
    subjects: Dict[str, SubjectProfile]
    active_by_command: Dict[str, Dict[int, int]]

    @property
    def max_height(self) -> int:
        """The tallest stack."""
        return max(self.height_histogram) if self.height_histogram else 0

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.states} states; stack heights "
            + " ".join(
                f"{h}:{c}" for h, c in sorted(self.height_histogram.items())
            )
        ]
        for name in sorted(self.subjects):
            profile = self.subjects[name]
            parts = [f"{profile.occurrences} stacks"]
            if profile.bare:
                parts.append(f"{profile.bare} bare")
            if profile.values_seen and profile.min_value is not None:
                parts.append(f"values {profile.min_value}..{profile.max_value}")
            lines.append(f"  {name}: " + ", ".join(parts))
        for command in sorted(self.active_by_command):
            histogram = self.active_by_command[command]
            rendered = " ".join(
                f"{level}:{count}" for level, count in sorted(histogram.items())
            )
            lines.append(f"  active on {command}: {rendered}")
        return "\n".join(lines)


def profile_measure(
    graph: ReachableGraph,
    assignment: StackAssignment,
    check: Optional[MeasureCheckResult] = None,
) -> MeasureProfile:
    """Profile ``assignment`` over ``graph`` (optionally with check data)."""
    heights: Dict[int, int] = {}
    subjects: Dict[str, SubjectProfile] = {}
    for index in range(len(graph)):
        stack = assignment(graph.state_of(index))
        heights[stack.height] = heights.get(stack.height, 0) + 1
        for level, hypothesis in enumerate(stack):
            profile = subjects.setdefault(
                hypothesis.subject, SubjectProfile(subject=hypothesis.subject)
            )
            profile.note(level, hypothesis.value)

    active_by_command: Dict[str, Dict[int, int]] = {}
    if check is not None:
        witnesses = check.witnesses
        if isinstance(witnesses, WitnessColumn):
            # Straight from the word column and the graph's command
            # column: no witness is decoded.
            labels = witnesses.graph.command_table.labels
            cmd = witnesses.graph.transition_columns[1]
            tallies = (
                (labels[k], word >> 1, count)
                for (k, word), count in Counter(zip(cmd, witnesses.words)).items()
                if word >= 0
            )
        else:
            tallies = ((w.transition.command, w.level, 1) for w in witnesses)
        for command, level, count in tallies:
            histogram = active_by_command.setdefault(command, {})
            histogram[level] = histogram.get(level, 0) + count

    return MeasureProfile(
        states=len(graph),
        height_histogram=heights,
        subjects=subjects,
        active_by_command=active_by_command,
    )
