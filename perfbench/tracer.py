"""Traced pass: one CLI command's chain of layer calls, timed span by span.

Run as a fresh child process, like the CLI, so every chain starts from cold
in-process caches::

    python perfbench/tracer.py chain --command decide --program P.gcl \
        [--assertion P.assert] [--jobs N] [--cache-dir D] [--spans 0|1]
    python perfbench/tracer.py store|load --program P.gcl [--jobs N] --cache-dir D

``chain`` makes the calls ``repro-fair <command>`` makes, through the
stable public surface only, each inside a span (name, start, end, parent).
Spans on the CLI's path have ``path: true``; ``repro-fair <command>`` wall
minus their sum is the CLI's own overhead.  ``measures.assertion_eval`` is
an off-path probe that applies the compiled assertion to every state after
the chain ends.  ``--spans 0`` records nothing and reports only the chain's
wall, which is how the tracing overhead is measured.  ``store``/``load``
time a cold graph-store fill and a warm hit of the same key.

The last stdout line is one JSON object: ``spans``, ``counts`` (including
``chain_s``) and ``error`` (the exception that ended the chain, if any).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.completeness.synthesis import NotFairlyTerminatingError, synthesize_measure
from repro.engine.graphstore import explore_with_cache
from repro.fairness.checker import check_fair_termination
from repro.gcl.program import parse_program
from repro.measures.assertfile import load_assertion_file
from repro.measures.verification import check_measure
from repro.ts.explore import explore


class Tracer:
    """In-memory span recorder; with ``enabled=False`` it records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, path: bool = True) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "path": path,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _lasso_len(witness) -> int:
    return 0 if witness is None else len(witness.lasso.stem) + len(witness.lasso.cycle)


def _graph(tracer: Tracer, program, jobs: Optional[int], cache_dir: Optional[str], counts):
    """Explore as ``repro-fair decide|synthesize`` does: a warm store hit
    when the command is given ``--cache-dir``, else plain exploration."""
    if cache_dir is not None:
        with tracer.span("engine.graphstore.load"):
            graph, hit = explore_with_cache(program, cache_dir=cache_dir, n_jobs=jobs)
        counts["cache_hit"] = hit
    else:
        with tracer.span("ts.explore"):
            graph = explore(program, n_jobs=jobs)
    return graph


def run_chain(tracer: Tracer, args: argparse.Namespace, counts: Dict[str, object]) -> None:
    """The command's calls; ``counts["chain_s"]`` is the wall of the
    on-path part, also when a call raises."""
    with open(args.program, "r", encoding="utf-8") as handle:
        text = handle.read()
    started = time.perf_counter()
    try:
        graph, assignment = _chain(tracer, args, text, counts)
    finally:
        counts["chain_s"] = time.perf_counter() - started
    if assignment is not None:
        with tracer.span("measures.assertion_eval", path=False):
            for state in graph.states:
                assignment(state)


def _chain(tracer: Tracer, args: argparse.Namespace, text: str, counts: Dict[str, object]):
    assignment = None
    with tracer.span(f"cli.{args.command}"):
        with tracer.span("gcl.parse"):
            program = parse_program(text)
        counts["commands"] = len(program.commands())
        if args.command == "decide":
            graph = _graph(tracer, program, args.jobs, args.cache_dir, counts)
            with tracer.span("fairness.decide"):
                result = check_fair_termination(graph)
            counts.update(
                states=len(graph),
                terminates=result.fairly_terminates,
                lasso_len=_lasso_len(result.witness),
            )
        elif args.command == "synthesize":
            graph = _graph(tracer, program, args.jobs, args.cache_dir, counts)
            counts["states"] = len(graph)
            try:
                with tracer.span("completeness.synthesize"):
                    synthesis = synthesize_measure(graph, n_jobs=args.jobs)
            except NotFairlyTerminatingError as error:
                counts.update(terminates=False, lasso_len=_lasso_len(error.witness))
            else:
                counts.update(
                    terminates=True,
                    regions=synthesis.region_count(),
                    max_stack_height=synthesis.max_stack_height(),
                )
                with tracer.span("measures.verify_synth"):
                    check = check_measure(graph, synthesis.assignment(), n_jobs=args.jobs)
                counts["synth_transitions_checked"] = check.transitions_checked
                counts["synth_violations"] = len(check.violations)
        elif args.command == "check":
            with tracer.span("measures.assertion_load"):
                assignment = load_assertion_file(args.assertion).compile()
            # ``repro-fair check`` explores without --jobs or --cache-dir.
            with tracer.span("ts.explore"):
                graph = explore(program)
            counts.update(states=len(graph), transitions=len(graph.transitions))
            with tracer.span("measures.verify_check"):
                result = check_measure(graph, assignment, n_jobs=args.jobs)
            counts.update(
                transitions_checked=result.transitions_checked,
                violations=len(result.violations),
            )
        else:
            raise ValueError(f"unknown command {args.command!r}")
    return graph, assignment


def run_store(tracer: Tracer, args: argparse.Namespace, counts: Dict[str, object]) -> None:
    with open(args.program, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    started = time.perf_counter()
    with tracer.span(f"engine.graphstore.{args.mode}"):
        _, hit = explore_with_cache(program, cache_dir=args.cache_dir, n_jobs=args.jobs)
    counts.update(chain_s=time.perf_counter() - started, cache_hit=hit)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("chain", "store", "load"))
    parser.add_argument("--command", choices=("decide", "synthesize", "check"))
    parser.add_argument("--program", required=True)
    parser.add_argument("--assertion")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--spans", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    tracer = Tracer(enabled=bool(args.spans))
    counts: Dict[str, object] = {}
    error = None
    try:
        (run_chain if args.mode == "chain" else run_store)(tracer, args, counts)
    except Exception as exc:  # reported to the parent, which counts the failure
        error = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"spans": tracer.spans, "counts": counts, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
