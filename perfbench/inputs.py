"""Workload inputs and their independently known answers.

Every program is a template whose variables and command labels are fields
(``{x}``, ``{la}``).  :func:`write_inputs` fills them with names drawn from the
workload seed and shuffles the guarded commands, so each seed yields
different GCL text with the same reachable graph up to renaming: the
closed-form counts and the verdicts below hold for every seed.

The expected answers never come from the engine under test:

* ``cube`` and ``ring`` use closed forms;
* the paper programs and ``nested`` use :func:`p_family_counts`, a
  breadth-first search over a direct Python model of P1–P4b, together
  with the paper's verdicts (P1–P4b fairly terminate and P1'–P4' verify).
  The benchmark's tests check these counts against the
  ``repro.engine.reference`` oracle.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

COMMANDS = ("decide", "synthesize", "check")


@dataclass(frozen=True)
class Expected:
    """What a correct run must report for one program."""

    states: int
    transitions: int
    terminates: bool
    #: Violations ``check`` must report for the workload's assertion.
    violations: int


@dataclass(frozen=True)
class ProgramSpec:
    """A GCL program template plus its stack assertion and known answer.

    ``guard``/``body``/``assertion`` strings name variables and labels as
    ``str.format`` fields; :meth:`render` fills them.
    """

    key: str
    name: str
    variables: Tuple[Tuple[str, int], ...]
    #: ``(label, guard, body)`` per guarded command.
    commands: Tuple[Tuple[str, str, str], ...]
    assertion: Tuple[str, ...]
    expected: Expected

    def fields(self) -> List[str]:
        return [name for name, _ in self.variables] + [c[0] for c in self.commands]

    def render(
        self, names: Optional[Dict[str, str]] = None, order: Optional[Sequence[int]] = None
    ) -> Tuple[str, str]:
        """``(gcl_text, assertion_text)`` under the renaming ``names`` and the
        command order ``order`` (identity when omitted)."""
        names = names or {field: field for field in self.fields()}
        order = range(len(self.commands)) if order is None else order
        declarations = ", ".join(
            f"{names[var]} := {value}" for var, value in self.variables
        )
        lines = []
        for index in order:
            label, guard, body = self.commands[index]
            lines.append(
                f"{names[label]}: {guard.format(**names)} -> {body.format(**names)}"
            )
        gcl = (
            f"program {self.name}\nvar {declarations}\ndo\n     "
            + "\n  [] ".join(lines)
            + "\nod\n"
        )
        assertion = "".join(line.format(**names) + "\n" for line in self.assertion)
        return gcl, assertion


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Tuple[ProgramSpec, ...]
    #: ``--jobs`` passed to every command (``None``: serial, flag omitted).
    jobs: Optional[int]
    #: Whether commands read a graph store filled during set-up.
    warm_store: bool


# --- the paper's programs (repro.workloads.paper, written out here) --------

_P1_TEXT = (("la", "{x} < {y}", "{x} := {x} + 1"),)
_P2_TEXT = _P1_TEXT + (("lb", "{x} < {y}", "skip"),)


def _p3b_commands(modulus: int) -> Tuple[Tuple[str, str, str], ...]:
    return (
        ("la", f"{{x}} < {{y}} and {{z}} mod {modulus} == 0", "{x} := {x} + 1"),
        ("lb", "{x} < {y} and {z} > 0", "{z} := {z} - 1"),
    )


_T = "T: max({y} - {x}, 0)"


def p_family_counts(
    distance: int, z0: int = 0, modulus: int = 1, variant: str = "p1"
) -> Tuple[int, int]:
    """``(states, transitions)`` of P1/P2/P3b/P4b by a search over a direct
    model of the paper's programs (x, z; y is constant)."""
    if variant not in ("p1", "p2", "p3b", "p4b"):
        raise ValueError(f"unknown paper program {variant!r}")

    def successors(x: int, z: int) -> List[Tuple[int, int]]:
        if x >= distance:
            return []
        if variant == "p1":
            return [(x + 1, z)]
        if variant == "p2":
            return [(x + 1, z), (x, z)]
        out = []
        if z % modulus == 0:
            out.append((x + 1, z))
        if z > 0:
            out.append((x, z - 1))
        if variant == "p4b":
            out.append((x, z))
        return out

    seen = {(0, z0)}
    frontier = [(0, z0)]
    transitions = 0
    while frontier:
        following = []
        for state in frontier:
            for target in successors(*state):
                transitions += 1
                if target not in seen:
                    seen.add(target)
                    following.append(target)
        frontier = following
    return len(seen), transitions


def paper_program(variant: str, distance: int, z0: int = 240, modulus: int = 117) -> ProgramSpec:
    """P1/P2 (``distance``) or P3b/P4b (``distance``, ``z0``, ``modulus``)
    with the paper's annotation P1'–P4'."""
    if variant in ("p1", "p2"):
        variables: Tuple[Tuple[str, int], ...] = (("x", 0), ("y", distance))
        commands = _P1_TEXT if variant == "p1" else _P2_TEXT
        assertion = (_T,) if variant == "p1" else ("{la}", _T)
        states, transitions = p_family_counts(distance, variant=variant)
    else:
        variables = (("x", 0), ("y", distance), ("z", z0))
        commands = _p3b_commands(modulus)
        assertion = (f"{{la}}: {{z}} mod {modulus}", _T)
        if variant == "p4b":
            commands = commands + (("lc", "{x} < {y}", "skip"),)
            assertion = ("{lb}",) + assertion
        states, transitions = p_family_counts(distance, z0, modulus, variant)
    return ProgramSpec(
        key=variant,
        name={"p1": "P1", "p2": "P2", "p3b": "P3b", "p4b": "P4b"}[variant],
        variables=variables,
        commands=commands,
        assertion=assertion,
        expected=Expected(states, transitions, terminates=True, violations=0),
    )


def cube_program(dims: int, side: int) -> ProgramSpec:
    """``repro.workloads.grid_hypercube(dims, side)`` with ``T: x0 + … ``."""
    variables = tuple((f"x{i}", side) for i in range(dims))
    commands = tuple(
        (f"dec{i}", f"{{x{i}}} > 0", f"{{x{i}}} := {{x{i}}} - 1") for i in range(dims)
    )
    measure = " + ".join(f"{{x{i}}}" for i in range(dims))
    return ProgramSpec(
        key="cube",
        name="Hypercube",
        variables=variables,
        commands=commands,
        assertion=(f"T: {measure}",),
        expected=Expected(
            states=(side + 1) ** dims,
            transitions=dims * side * (side + 1) ** (dims - 1),
            terminates=True,
            violations=0,
        ),
    )


def ring_program(stations: int, work: int) -> ProgramSpec:
    """``repro.workloads.distributed_ring(stations, work)`` with the wrong-by-
    design ``T: w0 + … `` — ``pass`` edges leave it unchanged, so exactly
    one edge per state (every state has one ``pass``) violates (V_A)."""
    variables = (("t", 0),) + tuple((f"w{i}", work) for i in range(stations))
    commands: List[Tuple[str, str, str]] = []
    for i in range(stations):
        commands.append(
            (f"work{i}", f"{{t}} == {i} and {{w{i}}} > 0", f"{{w{i}}} := {{w{i}}} - 1")
        )
        commands.append((f"pass{i}", f"{{t}} == {i}", f"{{t}} := {(i + 1) % stations}"))
    measure = " + ".join(f"{{w{i}}}" for i in range(stations))
    states = stations * (work + 1) ** stations
    work_edges = stations * work * (work + 1) ** (stations - 1)
    return ProgramSpec(
        key="ring",
        name="Ring",
        variables=variables,
        commands=tuple(commands),
        assertion=(f"T: {measure}",),
        expected=Expected(
            states=states,
            transitions=states + work_edges,
            terminates=False,
            violations=states,
        ),
    )


def workload(name: str, scale: str = "full") -> Workload:
    """The named workload; ``scale="smoke"`` shrinks every program for tests."""
    full = scale == "full"
    if name == "paper":
        programs = (
            paper_program("p1", 10),
            paper_program("p2", 10),
            paper_program("p3b", 3) if full else paper_program("p3b", 2, 120),
            paper_program("p4b", 3) if full else paper_program("p4b", 2, 120),
        )
        return Workload(name, programs, jobs=None, warm_store=False)
    if name == "cube":
        spec = cube_program(5, 6) if full else cube_program(3, 3)
        return Workload(name, (spec,), jobs=None, warm_store=False)
    if name == "nested":
        spec = paper_program("p4b", 8, 1000) if full else paper_program("p4b", 3, 240)
        return Workload(name, (spec,), jobs=None, warm_store=False)
    if name == "ring":
        spec = ring_program(3, 15) if full else ring_program(3, 3)
        return Workload(name, (spec,), jobs=2, warm_store=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper", "cube", "nested", "ring")

_ALPHABET = string.ascii_lowercase + string.digits


def renaming(spec: ProgramSpec, rng: random.Random) -> Tuple[Dict[str, str], List[int]]:
    """A seeded α-renaming of ``spec``'s variables and labels (fixed-length
    names with an underscore, so never a GCL keyword, ``max``/``min`` or the
    assertion subject ``T``) and a shuffled command order."""
    names: Dict[str, str] = {}
    used = set()
    variables = {name for name, _ in spec.variables}
    for field in spec.fields():
        prefix = "v_" if field in variables else "c_"
        while True:
            candidate = prefix + "".join(rng.choice(_ALPHABET) for _ in range(4))
            if candidate not in used:
                break
        used.add(candidate)
        names[field] = candidate
    order = list(range(len(spec.commands)))
    rng.shuffle(order)
    return names, order


def write_inputs(directory: Path, load: Workload, seed: int) -> Dict[str, Tuple[Path, Path]]:
    """Write every program of ``load`` under ``directory`` as renamed for
    ``seed``; returns ``{key: (gcl_path, assertion_path)}``."""
    rng = random.Random(f"{load.name}:{seed}")
    paths = {}
    for spec in load.programs:
        gcl, assertion = spec.render(*renaming(spec, rng))
        gcl_path = directory / f"{spec.key}.gcl"
        assertion_path = directory / f"{spec.key}.assert"
        gcl_path.write_text(gcl, encoding="utf-8")
        assertion_path.write_text(assertion, encoding="utf-8")
        paths[spec.key] = (gcl_path, assertion_path)
    return paths
