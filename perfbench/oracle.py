"""The verdict oracle: judges one CLI child by its output, not its exit code.

``repro-fair`` exits 1 both for a "does not fairly terminate" answer and for
a crash, so the exit code alone cannot tell a verdict from a failure.  The
oracle parses the verdict line and its counts and compares them with the
program's :class:`~inputs.Expected` answer:

* ``ok``     — the verdict, the counts and the counterexample presence match
  and the exit code agrees with the verdict;
* ``failed`` — no verdict: a traceback, a postmortem file, a timeout or a
  missing verdict line (the operation produced nothing to judge);
* ``wrong``  — a verdict that contradicts the known answer.

``failed`` and ``wrong`` both count as failed operations; only ``wrong``
makes a run incorrect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from inputs import Expected

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass(frozen=True)
class Judgement:
    status: str
    reason: str = ""
    #: Transitions the child reported checking (``check`` only).
    transitions_checked: int = 0


def _line(pattern: str, lines: List[str]) -> Optional[re.Match]:
    compiled = re.compile(pattern)
    for line in lines:
        match = compiled.match(line)
        if match:
            return match
    return None


def _has_lasso(lines: List[str], header: str) -> bool:
    """A counterexample is the line after ``header``, rendered as states."""
    for position, line in enumerate(lines[:-1]):
        if line.startswith(header):
            return "⟨" in lines[position + 1] and "-> " in lines[position + 1]
    return False


def judge(
    command: str,
    name: str,
    expected: Expected,
    code: int,
    stdout: str,
    stderr: str,
    timed_out: bool = False,
    postmortems: int = 0,
) -> Judgement:
    """Judge one ``repro-fair <command>`` run of program ``name``."""
    if timed_out:
        return Judgement(FAILED, "timed out")
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Judgement(FAILED, f"crashed: {last}")
    if postmortems:
        return Judgement(FAILED, f"wrote {postmortems} postmortem file(s)")
    lines = stdout.splitlines()
    quoted = re.escape(name)
    if command == "decide":
        return _judge_decide(quoted, expected, code, lines)
    if command == "synthesize":
        return _judge_synthesize(quoted, expected, code, lines)
    if command == "check":
        return _judge_check(quoted, expected, code, lines)
    raise ValueError(f"unknown command {command!r}")


def _verdict(terminates: bool, expected: Expected, code: int, want_code: int) -> Optional[Judgement]:
    if terminates != expected.terminates:
        return Judgement(WRONG, f"verdict terminates={terminates}, expected {expected.terminates}")
    if code != want_code:
        return Judgement(WRONG, f"exit {code} with a terminates={terminates} verdict")
    return None


def _judge_decide(name: str, expected: Expected, code: int, lines: List[str]) -> Judgement:
    match = _line(
        rf"^{name}: (fairly terminates|admits a fair infinite computation) \[(\d+) states\]$",
        lines,
    )
    if match is None:
        return Judgement(FAILED, f"no decide verdict line (exit {code})")
    terminates = match.group(1) == "fairly terminates"
    bad = _verdict(terminates, expected, code, 0 if terminates else 1)
    if bad:
        return bad
    if int(match.group(2)) != expected.states:
        return Judgement(WRONG, f"{match.group(2)} states, expected {expected.states}")
    if not terminates and not _has_lasso(lines, "fair infinite computation (counterexample):"):
        return Judgement(WRONG, "no counterexample lasso")
    return Judgement(OK)


def _judge_synthesize(name: str, expected: Expected, code: int, lines: List[str]) -> Judgement:
    yes = _line(
        rf"^{name}: fair termination measure synthesised and verified "
        rf"\((\d+) transitions, max stack height \d+\)$",
        lines,
    )
    no = _line(rf"^{name} does not fairly terminate: ", lines)
    if (yes is None) == (no is None):
        return Judgement(FAILED, f"no synthesize verdict line (exit {code})")
    terminates = yes is not None
    bad = _verdict(terminates, expected, code, 0 if terminates else 1)
    if bad:
        return bad
    if terminates and int(yes.group(1)) != expected.transitions:
        return Judgement(WRONG, f"{yes.group(1)} transitions, expected {expected.transitions}")
    if not terminates and not _has_lasso(lines, no.group(0)):
        return Judgement(WRONG, "no counterexample lasso")
    return Judgement(OK)


def _judge_check(name: str, expected: Expected, code: int, lines: List[str]) -> Judgement:
    match = _line(
        rf"^{name} with .+: (PASS|FAIL \((\d+) violations\)): "
        rf"(\d+) transitions checked \(complete\)",
        lines,
    )
    if match is None:
        return Judgement(FAILED, f"no check verdict line (exit {code})")
    violations = int(match.group(2) or 0)
    transitions = int(match.group(3))
    if code != (0 if violations == 0 else 1):
        return Judgement(WRONG, f"exit {code} with {violations} violations")
    if violations != expected.violations:
        return Judgement(WRONG, f"{violations} violations, expected {expected.violations}")
    if transitions != expected.transitions:
        return Judgement(WRONG, f"{transitions} transitions, expected {expected.transitions}")
    return Judgement(OK, transitions_checked=transitions)


def judge_counts(command: str, expected: Expected, counts: dict, error: Optional[str]) -> str:
    """The oracle for a traced chain (``tracer.py``): its counts against the
    known answer; an exception that ended the chain is a failure."""
    if error:
        return FAILED
    checks = [counts.get("states") == expected.states]
    if command in ("decide", "synthesize"):
        checks.append(counts.get("terminates") == expected.terminates)
    if command == "synthesize" and expected.terminates:
        checks.append(counts.get("synth_transitions_checked") == expected.transitions)
    if command == "check":
        checks.append(counts.get("transitions_checked") == expected.transitions)
        checks.append(counts.get("violations") == expected.violations)
    return OK if all(checks) else WRONG
