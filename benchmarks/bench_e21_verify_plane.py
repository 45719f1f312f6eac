"""E21 — columnar verification plane vs the per-transition tuple checker.

The verify-plane PR (DESIGN §6h) packs each state's stack into four flat
int64 columns and checks the paper's verification conditions (V_A),
(V_NonI), (V_NoC) with a batched kernel over the graph's own
``src``/``cmd``/``dst``/``enabled-mask`` columns — integer compares for
rank decreases, one bitmask OR per edge for the enabled union — instead
of building a tuple task per transition.  Parallel fan-out ships only a
shm manifest and an eid range per worker; outcomes come back as compact
columns and only the rare violating edges are re-decoded through the
object-level level search (for its exact diagnostics).

This bench measures the claim at million-state scale, one configuration
per fresh child interpreter (clean caches, own RSS high-water mark):

* ``tuple serial`` — the per-transition tuple engine
  (``verification._check_tuple``, called directly: ``check_measure``
  itself only takes it when the codec cannot encode the stacks).
* ``plane serial`` — ``check_measure`` in-process: the batched kernel.
* ``plane --jobs 4`` — ``check_measure`` with its shared-memory fan-out.

Workloads: ``grid_hypercube(6, 9)`` (10⁶ states, coordinate-sum
assertion, non-violating) and ``hypercube_trap(6, 9)`` (the same
assertion violated on the trap cycle).  Every configuration must produce
a bit-identical result digest — verdict, counts, summary, violation
renderings and the witness word column — and leave ``/dev/shm`` clean.

Gate (full scale only): ``plane serial`` wall time ≥ 2× faster than
``tuple serial`` on the non-violating grid family.  Identity and leak
assertions apply at every scale; ``ENGINE_BENCH_SMOKE=1`` substitutes
hundreds-of-states instances for CI.  Rows land in ``BENCH_verify.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from common import MIN_REPEATS, peak_rss_kb, record_table

from repro.analysis import Table
from repro.engine.shm import SEGMENT_PREFIX

SMOKE = os.environ.get("ENGINE_BENCH_SMOKE") == "1"
SCALE = "smoke" if SMOKE else "full"
REPEATS = MIN_REPEATS
MIN_SPEEDUP = 2.0
CORES = os.cpu_count() or 1
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_verify.json"

#: (dims, side) per family; full sizes are the E17/E18 million-state
#: instances, smoke sizes walk the same code paths in hundreds of states.
GRID_SHAPE = (4, 3) if SMOKE else (6, 9)  # 256 / 1 000 000 states
TRAP_SHAPE = (4, 4) if SMOKE else (6, 9)  # 627 / 1 000 002 states

#: label → (engine, n_jobs).  ``tuple`` calls the tuple engine directly;
#: ``plane`` is ``check_measure``, which puts every encodable check on
#: the columnar kernel.
CONFIGS = {
    "tuple_serial": ("tuple", None),
    "plane_serial": ("plane", None),
    "plane_jobs4": ("plane", 4),
}

#: The configurations timed with the full repeat count (the gate pair).
GATE_COLUMNS = ("tuple_serial", "plane_serial")


def shm_leaks():
    """Names of ``repro-shm*`` segments currently present in ``/dev/shm``."""
    try:
        return sorted(
            p.name for p in pathlib.Path("/dev/shm").glob(f"{SEGMENT_PREFIX}*")
        )
    except OSError:  # pragma: no cover - no tmpfs (non-Linux)
        return []


# ---------------------------------------------------------------------------
# Child-process measurement (module-level: must pickle across fork/spawn)
# ---------------------------------------------------------------------------


def _family(name: str):
    from repro.measures import StackAssertion
    from repro.workloads import grid_hypercube, hypercube_trap

    if name == "grid":
        dims, side = GRID_SHAPE
        system = grid_hypercube(dims, side)
    else:
        dims, side = TRAP_SHAPE
        system = hypercube_trap(dims, side)
    total = " + ".join(f"x{i}" for i in range(dims))
    assertion = StackAssertion.parse([f"T: {total}"])
    return system, assertion.compile()


def _child_check(family: str, engine: str, n_jobs, instrument: bool = False):
    """Explore ``family`` untimed, then time the check alone.

    Both engines' timings include computing the per-state stacks.  The
    digest covers every observable of the result — verdict, counts,
    flags, summary line, the rendering of each violation and the witness
    word column — so two configurations agree iff their checks are
    bit-identical.
    """
    from repro.measures import check_measure
    from repro.measures.verification import _check_tuple, _stacks_of
    from repro.telemetry import core as telemetry
    from repro.ts import explore

    if instrument:
        telemetry.reset()
        telemetry.enable()
    system, assignment = _family(family)
    graph = explore(system)
    start = time.perf_counter()
    if engine == "tuple":
        result = _check_tuple(
            graph, _stacks_of(graph, assignment), assignment.order
        )
    else:
        result = check_measure(graph, assignment, n_jobs=n_jobs)
    seconds = time.perf_counter() - start
    observable = json.dumps({
        "ok": result.ok,
        "transitions_checked": result.transitions_checked,
        "complete": result.complete,
        "order_well_founded": result.order_well_founded,
        "summary": result.summary(),
        "violations": [str(v) for v in result.violations],
        "witness_words": hashlib.sha256(
            result.witnesses.words.tobytes()
        ).hexdigest(),
    }, sort_keys=True)
    counters = {}
    if instrument:
        snapshot = telemetry.registry().snapshot()["counters"]
        counters = {
            name: value
            for name, value in sorted(snapshot.items())
            if name.startswith(("verify.plane", "shm.", "parallel.dispatch"))
        }
    return {
        "seconds": seconds,
        "digest": hashlib.sha256(observable.encode("utf-8")).hexdigest(),
        "transitions": result.transitions_checked,
        "violations": len(result.violations),
        "ok": result.ok,
        "peak_rss_kb": peak_rss_kb(),
        "counters": counters,
        "leaked": shm_leaks(),
    }


def _in_fresh_child(family: str, engine: str, n_jobs, instrument: bool = False):
    """Run one measurement in a brand-new top-level interpreter.

    Fresh subprocess, not a pool child: the parallel configurations spin
    up their own worker pool, and a pool inside a pool worker deadlocks
    under fork.  The in-process fallback (sandboxes that cannot exec) is
    recorded in the JSON.
    """
    here = pathlib.Path(__file__).resolve()
    child_env = dict(os.environ)
    src = str(here.parent.parent / "src")
    child_env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(here), family, engine,
        "none" if n_jobs is None else str(n_jobs),
        "1" if instrument else "0",
    ]
    try:
        proc = subprocess.run(
            command, env=child_env, capture_output=True, text=True,
            timeout=3600,
        )
    except (OSError, subprocess.SubprocessError):
        return _child_check(family, engine, n_jobs, instrument), False
    assert proc.returncode == 0, (
        f"child measurement failed ({family}, {engine}, n_jobs={n_jobs}):\n"
        f"{proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), True


def _measure_config(family: str, label: str, repeats=REPEATS,
                    instrument=False):
    engine, n_jobs = CONFIGS[label]
    runs = []
    isolated = True
    for _ in range(repeats):
        result, in_child = _in_fresh_child(family, engine, n_jobs, instrument)
        isolated = isolated and in_child
        assert not result["leaked"], (
            f"{family}, {label}: leaked shm segments {result['leaked']}"
        )
        runs.append(result)
    digest = runs[0]["digest"]
    assert all(run["digest"] == digest for run in runs), (
        f"{family}, {label}: result digest varies across repeats"
    )
    return {
        "seconds": statistics.median(run["seconds"] for run in runs),
        "digest": digest,
        "transitions": runs[0]["transitions"],
        "violations": runs[0]["violations"],
        "ok": runs[0]["ok"],
        "peak_rss_kb": runs[0]["peak_rss_kb"],
        "counters": runs[-1]["counters"],
        "isolated": isolated,
    }


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def test_e21_verify_plane():
    table = Table(
        f"E21 — columnar verify plane vs tuple checker ({SCALE} sizes, "
        f"{CORES} cores)",
        ["workload", "transitions", "tuple serial", "plane serial",
         "speedup", "plane --jobs 4", "identical", "leaks"],
    )
    rows = []
    speedups = {}
    for family, shape, expect_ok in (
        ("grid", GRID_SHAPE, True),
        ("trap", TRAP_SHAPE, False),
    ):
        measured = {}
        for label in CONFIGS:
            # The gate pair gets the full repeat count; the fan-out run
            # exists for identity and engagement, one instrumented run.
            measured[label] = _measure_config(
                family, label,
                repeats=REPEATS if label in GATE_COLUMNS else 1,
                instrument=(label == "plane_jobs4"),
            )
        baseline = measured["tuple_serial"]
        for label, config in measured.items():
            assert config["digest"] == baseline["digest"], (
                f"{family}: {label} check result differs from the tuple "
                f"engine"
            )
        assert baseline["ok"] is expect_ok, (
            f"{family}: expected ok={expect_ok}, got {baseline['ok']}"
        )
        plane_counters = measured["plane_jobs4"]["counters"]
        assert plane_counters.get("verify.plane.engaged", 0) > 0, (
            f"{family}: the plane --jobs 4 run never engaged the columnar "
            f"kernel (counters: {plane_counters})"
        )
        plane_serial = measured["plane_serial"]["seconds"]
        speedup = (
            baseline["seconds"] / plane_serial
            if plane_serial > 0 else float("inf")
        )
        speedups[family] = speedup
        table.add(
            f"{family}{shape}",
            baseline["transitions"],
            f"{baseline['seconds']:.3f}",
            f"{plane_serial:.3f}",
            f"{speedup:.2f}x",
            f"{measured['plane_jobs4']['seconds']:.3f}",
            "yes",
            "none",
        )
        rows.append({
            "workload": family,
            "shape": list(shape),
            "transitions": baseline["transitions"],
            "violations": baseline["violations"],
            "ok": baseline["ok"],
            "result_digest": baseline["digest"],
            "tuple_serial_seconds": baseline["seconds"],
            "plane_serial_seconds": plane_serial,
            "plane_jobs4_seconds": measured["plane_jobs4"]["seconds"],
            "speedup": speedup,
            "peak_rss_kb": measured["plane_serial"]["peak_rss_kb"],
            "baseline_peak_rss_kb": baseline["peak_rss_kb"],
            "plane_counters": plane_counters,
            "child_isolated": all(c["isolated"] for c in measured.values()),
            "identical": True,
            "leaked_segments": 0,
        })
    record_table(table)

    parent_leaks = shm_leaks()
    gate_applies = not SMOKE
    OUTPUT.write_text(json.dumps({
        "experiment": "E21",
        "scale": SCALE,
        "cores": CORES,
        "repeats": REPEATS,
        "verdict": {
            "scale": SCALE,
            "digests_identical": True,
            "leaked_segments": parent_leaks,
            "speedup_gate_applies": gate_applies,
            "speedup_gate_reason": None if gate_applies else "smoke scale",
            "min_speedup_required": MIN_SPEEDUP if gate_applies else None,
            "gate_family": "grid",
            "note": (
                "speedup = tuple serial wall time over plane serial, "
                "stacks + check only (exploration untimed), witnesses "
                "kept as the word column on both engines; peak_rss_kb is "
                "max(RUSAGE_SELF, RUSAGE_CHILDREN)"
            ),
        },
        "rows": rows,
    }, indent=2) + "\n")

    assert not parent_leaks, f"shm segments leaked: {parent_leaks}"
    if gate_applies:
        assert speedups["grid"] >= MIN_SPEEDUP, (
            f"columnar verify plane is only {speedups['grid']:.2f}x the "
            f"serial tuple engine on grid_hypercube{GRID_SHAPE} "
            f"(need {MIN_SPEEDUP}x)"
        )


if __name__ == "__main__":
    # Child mode (see _in_fresh_child):
    # <family> <engine> <n_jobs|none> <instrument>.
    _family_name, _engine, _jobs_raw, _instrument_raw = sys.argv[1:5]
    _jobs = None if _jobs_raw == "none" else int(_jobs_raw)
    print(json.dumps(
        _child_check(_family_name, _engine, _jobs, _instrument_raw == "1")
    ))
