"""E17 — streaming pipeline: time-to-verdict and peak memory vs materialized.

The streaming PR lets verification and the fair-termination decision run
*during* exploration instead of after it (DESIGN §6e): ``check`` verifies
each transition as its source state is expanded (memory stays proportional
to the frontier, ``--fail-fast`` stops at the first violation) and
``decide`` hunts for a fair lasso over the freshly closed SCCs of staged
bounded explorations, exiting as soon as one is found.  This bench
measures both claims at million-state scale:

* **time-to-verdict, violating family** — ``hypercube_trap(6, 9)``
  (1 000 002 states, fair two-state trap at depth 1): materialized
  ``explore`` + ``check_fair_termination`` vs
  ``check_fair_termination_streaming``, each in a *fresh child process*
  (clean successor caches and RSS baselines), median over
  ``MIN_REPEATS`` runs.  Both must return the same verdict
  (``fairly_terminates=False``, decisive).
* **peak RSS, non-violating check** — ``grid_hypercube(6, 9)``
  (1 000 000 states) under the coordinate-sum assertion: materialized
  ``check_measure`` over the full graph vs ``check_measure_streaming``,
  one fresh child each (both keep their 8-byte-per-transition witness
  word column); the streaming child must peak below the materialized
  one.  Run to
  completion the two must agree on every result field.

Gates (full scale only, recorded in the verdict): streaming time-to-verdict
≥ 5× faster than materialized on the violating family, and streaming check
peak RSS strictly below the materialized baseline.  ``ENGINE_BENCH_SMOKE=1``
substitutes hundreds-of-states instances for CI, exercising every code path
without measuring anything.  Rows land in ``BENCH_stream.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from common import MIN_REPEATS, peak_rss_kb, record_table

from repro.analysis import Table

SMOKE = os.environ.get("ENGINE_BENCH_SMOKE") == "1"
REPEATS = MIN_REPEATS
MIN_SPEEDUP = 5.0
CORES = os.cpu_count() or 1
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

# (dims, side) instances: the trap family carries the time-to-verdict gate,
# the plain hypercube the RSS gate; smoke sizes walk the same code paths.
TRAP_SHAPE = (4, 4) if SMOKE else (6, 9)  # 627 / 1 000 002 states
CUBE_SHAPE = (4, 3) if SMOKE else (6, 9)  # 256 / 1 000 000 states


# ---------------------------------------------------------------------------
# Child-process measurement (module-level: must pickle across fork/spawn)
# ---------------------------------------------------------------------------


def _cube_assignment():
    from repro.measures import StackAssertion
    from repro.workloads import grid_hypercube

    dims, side = CUBE_SHAPE
    system = grid_hypercube(dims, side)
    total = " + ".join(f"x{i}" for i in range(dims))
    assertion = StackAssertion.parse([f"T: {total}"])
    return system, assertion.compile()


def _child_decide_materialized():
    from repro.fairness import check_fair_termination
    from repro.ts import explore
    from repro.workloads import hypercube_trap

    system = hypercube_trap(*TRAP_SHAPE)
    start = time.perf_counter()
    graph = explore(system)
    result = check_fair_termination(graph)
    return {
        "seconds": time.perf_counter() - start,
        "fairly_terminates": result.fairly_terminates,
        "decisive": result.decisive,
        "states": result.states_explored,
        "peak_rss_kb": peak_rss_kb(),
    }


def _child_decide_streaming():
    from repro.fairness import check_fair_termination_streaming
    from repro.workloads import hypercube_trap

    system = hypercube_trap(*TRAP_SHAPE)
    start = time.perf_counter()
    result = check_fair_termination_streaming(system)
    return {
        "seconds": time.perf_counter() - start,
        "fairly_terminates": result.fairly_terminates,
        "decisive": result.decisive,
        "states": result.states_explored,
        "peak_rss_kb": peak_rss_kb(),
    }


def _child_check_materialized():
    from repro.measures import check_measure
    from repro.ts import explore

    system, assignment = _cube_assignment()
    start = time.perf_counter()
    graph = explore(system)
    result = check_measure(graph, assignment)
    return {
        "seconds": time.perf_counter() - start,
        "ok": result.ok,
        "complete": result.complete,
        "transitions_checked": result.transitions_checked,
        "violations": len(result.violations),
        "peak_rss_kb": peak_rss_kb(),
    }


def _child_check_streaming():
    from repro.measures import check_measure_streaming

    system, assignment = _cube_assignment()
    start = time.perf_counter()
    result = check_measure_streaming(system, assignment)
    return {
        "seconds": time.perf_counter() - start,
        "ok": result.ok,
        "complete": result.complete,
        "transitions_checked": result.transitions_checked,
        "violations": len(result.violations),
        "peak_rss_kb": peak_rss_kb(),
    }


def _in_fresh_child(fn):
    """Run ``fn()`` in a brand-new single-worker process (clean RSS
    high-water mark, empty successor cache); falls back to in-process
    execution where pools are unavailable — the JSON records which."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn).result(), True
    except (ImportError, OSError, RuntimeError, PermissionError):
        return fn(), False


def _measure(fn, repeats):
    runs = []
    isolated = True
    for _ in range(repeats):
        result, in_child = _in_fresh_child(fn)
        isolated = isolated and in_child
        runs.append(result)
    summary = dict(runs[0])
    summary["seconds"] = statistics.median(run["seconds"] for run in runs)
    summary["isolated"] = isolated
    return summary


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def test_e17_streaming():
    scale = "smoke" if SMOKE else "full"
    table = Table(
        f"E17 — streaming vs materialized pipeline ({scale} sizes, "
        f"{CORES} cores)",
        ["measurement", "materialized", "streaming", "ratio"],
    )

    # -- time-to-verdict on the violating trap family ----------------------
    mat_decide = _measure(_child_decide_materialized, REPEATS)
    stream_decide = _measure(_child_decide_streaming, REPEATS)
    for run in (mat_decide, stream_decide):
        assert run["fairly_terminates"] is False, run
        assert run["decisive"] is True, run
    speedup = (
        mat_decide["seconds"] / stream_decide["seconds"]
        if stream_decide["seconds"] > 0
        else float("inf")
    )
    table.add(
        f"decide trap{TRAP_SHAPE} time-to-verdict",
        f"{mat_decide['seconds']:.3f}s ({mat_decide['states']} states)",
        f"{stream_decide['seconds']:.3f}s ({stream_decide['states']} states)",
        f"{speedup:.1f}x faster",
    )

    # -- peak RSS on the non-violating check ------------------------------
    mat_check = _measure(_child_check_materialized, 1)
    stream_check = _measure(_child_check_streaming, 1)
    for key in ("ok", "complete", "transitions_checked", "violations"):
        assert mat_check[key] == stream_check[key], (
            f"streaming check diverges from materialized on {key}: "
            f"{stream_check[key]!r} != {mat_check[key]!r}"
        )
    assert mat_check["ok"] is True
    rss_ratio = (
        stream_check["peak_rss_kb"] / mat_check["peak_rss_kb"]
        if mat_check["peak_rss_kb"] and stream_check["peak_rss_kb"]
        else None
    )
    table.add(
        f"check cube{CUBE_SHAPE} peak RSS",
        f"{mat_check['peak_rss_kb']} kB",
        f"{stream_check['peak_rss_kb']} kB",
        f"{rss_ratio:.2f}" if rss_ratio is not None else "n/a",
    )
    record_table(table)

    # Gates apply at full scale only; the smoke instances are too small for
    # either the early exit or the frontier-sized memory bound to register.
    speedup_gate = not SMOKE
    rss_gate = not SMOKE and rss_ratio is not None
    OUTPUT.write_text(json.dumps({
        "experiment": "E17",
        "scale": scale,
        "cores": CORES,
        "repeats": REPEATS,
        "trap_shape": list(TRAP_SHAPE),
        "cube_shape": list(CUBE_SHAPE),
        "verdict": {
            "scale": scale,
            "verdicts_identical": True,
            "speedup_gate_applies": speedup_gate,
            "speedup_gate_reason": None if speedup_gate else "smoke scale",
            "min_speedup_required": MIN_SPEEDUP if speedup_gate else None,
            "rss_gate_applies": rss_gate,
            "rss_gate_reason": (
                None if rss_gate else
                ("smoke scale" if SMOKE else "RSS unavailable")
            ),
        },
        "rows": [
            {
                "measurement": "decide_time_to_verdict",
                "workload": f"hypercube_trap{TRAP_SHAPE}",
                "materialized_seconds": mat_decide["seconds"],
                "streaming_seconds": stream_decide["seconds"],
                "materialized_states": mat_decide["states"],
                "streaming_states": stream_decide["states"],
                "speedup": speedup,
                "child_isolated": (
                    mat_decide["isolated"] and stream_decide["isolated"]
                ),
            },
            {
                "measurement": "check_peak_rss",
                "workload": f"grid_hypercube{CUBE_SHAPE}",
                "materialized_peak_rss_kb": mat_check["peak_rss_kb"],
                "streaming_peak_rss_kb": stream_check["peak_rss_kb"],
                "materialized_seconds": mat_check["seconds"],
                "streaming_seconds": stream_check["seconds"],
                "transitions_checked": mat_check["transitions_checked"],
                "rss_ratio": rss_ratio,
                "child_isolated": (
                    mat_check["isolated"] and stream_check["isolated"]
                ),
            },
        ],
    }, indent=2) + "\n")

    if speedup_gate:
        assert speedup >= MIN_SPEEDUP, (
            f"streaming time-to-verdict is only {speedup:.2f}x materialized "
            f"on hypercube_trap{TRAP_SHAPE} (need {MIN_SPEEDUP}x)"
        )
    if rss_gate:
        assert rss_ratio < 1.0, (
            f"streaming check peak RSS is {rss_ratio:.2f}x the materialized "
            f"baseline on grid_hypercube{CUBE_SHAPE} (must be < 1.0x)"
        )
