"""Verdict benchmark: ``repro-fair decide|synthesize|check`` end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper|cube|nested|ring \
        --seed N --seconds S --trace 0|1

Closed loop, one client: this process runs one CLI child at a time and
waits for it.  A *pass* runs ``decide``, ``synthesize`` and
``check --assertion`` on every program of the workload; the run repeats
passes while another one fits in ``--seconds``.  Every child gets a fresh
temporary working directory, and on ``ring`` a private copy of the graph
store filled during set-up.  The oracle (``oracle.py``) judges every child
by its verdict line and counts against the known answers (``inputs.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds rounds of
the traced pass (``tracer.py``) and prints the per-layer metrics.  See
``README.md`` in this directory for the workloads and the metric map.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Outside a checkout (no ``src/repro``) it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import COMMANDS, WORKLOADS, ProgramSpec, Workload, workload, write_inputs  # noqa: E402
from oracle import FAILED, OK, WRONG, Judgement, judge, judge_counts  # noqa: E402

#: A child still running after this long is killed and counted as failed.
TIMEOUT_S = 60.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: ``python -c "import repro.cli"`` / ``python -c pass`` pairs per run.
IMPORT_PROBES = 5
#: What the speed probe takes on the reference machine (a 2-vCPU VM with
#: CPython 3.11, where it reads 30-60 ms as the host's load varies).
PROBE_REF_S = 0.040
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm"


# --- child processes -------------------------------------------------------


class Speed:
    """Machine-speed probe run between children.

    On a shared VM the same interpreter work takes up to twice as long from
    one minute to the next, so raw walls of different runs are not
    comparable.  Every timing is scaled by ``PROBE_REF_S`` over the mean of
    the probes taken just before and just after it: it reads as seconds on
    the reference machine.
    """

    def __init__(self) -> None:
        source = "".join(
            f"class K{i}:\n    x = {i}\n    def f(self, a, b={i}):\n"
            f"        return [a, b, self.x, {{'k': a}}]\n"
            for i in range(150)
        )
        self._code = marshal.dumps(compile(source, "<probe>", "exec"))
        self.last = self.sample()

    def sample(self) -> float:
        """One probe: the kinds of work a child does — a bytecode loop,
        allocation and a keyed sort, and loading and running marshalled
        code as an import does."""
        started = time.perf_counter()
        total = 0
        for step in range(200_000):
            total += step
        table = {(i, str(i)): [i] * 3 for i in range(30_000)}
        sorted(table, key=lambda key: key[1])
        for _ in range(3):
            exec(marshal.loads(self._code), {})
        self.last = time.perf_counter() - started
        return self.last

    def factor(self, before: float) -> float:
        """Scale for a timing that began when ``self.last`` was ``before``;
        takes the closing probe."""
        return PROBE_REF_S / ((before + self.sample()) / 2)


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_kb: int
    stdout: str
    stderr: str
    timed_out: bool
    postmortems: int
    #: Speed scale for this child (1.0 when run without a probe).
    factor: float = 1.0

    @property
    def ref_s(self) -> float:
        """Spawn-to-exit wall in reference seconds."""
        return self.wall_s * self.factor


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: Sequence[str], cwd: Path, env: Dict[str, str],
              speed: Optional[Speed] = None) -> Child:
    """Run ``argv`` in ``cwd`` and reap it with ``os.wait4``.

    The wall clock spans spawn to exit.  ``wait4`` gives this child's own
    peak RSS (including the pool workers it reaped); ``RUSAGE_CHILDREN``
    would be a high-water mark over every child reaped so far.  The child
    leads its own process group, which is killed after it exits so no
    worker it left behind outlives it.
    """
    before = speed.last if speed else 0.0
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the child down with us
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=proc.returncode == -signal.SIGKILL,
        postmortems=len(list(cwd.glob("postmortem-*.json"))),
        factor=speed.factor(before) if speed else 1.0,
    )


def shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


# --- the run context -------------------------------------------------------


@dataclass
class Context:
    load: Workload
    seed: int
    work: Path
    env: Dict[str, str]
    python: str = sys.executable
    inputs: Dict[str, Tuple[Path, Path]] = field(default_factory=dict)
    store: Optional[Path] = None
    shm_before: set = field(default_factory=set)
    shm_leaks: int = 0
    speed: Speed = field(default_factory=Speed)

    def scratch(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def cli(self, *args: str) -> List[str]:
        return [self.python, "-m", "repro", *args]

    def jobs_args(self) -> List[str]:
        return [] if self.load.jobs is None else ["--jobs", str(self.load.jobs)]

    def private_store(self, cwd: Path) -> List[str]:
        """``--cache-dir`` pointing at this child's own copy of the store."""
        if self.store is None:
            return []
        shutil.copytree(self.store, cwd / "store")
        return ["--cache-dir", str(cwd / "store")]

    def sweep_shm(self) -> None:
        """Count and remove ``repro-shm*`` segments no child cleaned up."""
        for name in shm_segments() - self.shm_before:
            self.shm_leaks += 1
            try:
                os.unlink(SHM_DIR / name)
            except FileNotFoundError:
                pass


def child_env(root: Path) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` switch, with the
    checkout's sources on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class SetupError(RuntimeError):
    """The generated inputs or the store fill did not validate."""


def setup(ctx: Context, directory: Path) -> float:
    """Write the inputs, check in one fresh process that they parse and, on
    a warm-store workload, fill the store with one cold ``explore``; returns
    the set-up time in reference seconds."""
    before = ctx.speed.last
    started = time.perf_counter()
    directory.mkdir()
    ctx.inputs = write_inputs(directory, ctx.load, ctx.seed)
    files = [str(path) for spec in ctx.load.programs for path in ctx.inputs[spec.key]]
    cwd = ctx.scratch()
    child = run_child([ctx.python, str(HERE / "validate.py"), *files], cwd, ctx.env)
    shutil.rmtree(cwd)
    if child.code != 0 or child.stdout.split() != [spec.name for spec in ctx.load.programs]:
        raise SetupError(f"inputs do not parse: {child.stderr.strip()[-300:]}")
    ctx.store = None
    if ctx.load.warm_store:
        (spec,) = ctx.load.programs
        store = directory / "store"
        argv = ctx.cli("explore", str(ctx.inputs[spec.key][0]), *ctx.jobs_args(),
                       "--cache-dir", str(store))
        cwd = ctx.scratch()
        child = run_child(argv, cwd, ctx.env)
        shutil.rmtree(cwd)
        want = (f"{spec.name}: {spec.expected.states} states, "
                f"{spec.expected.transitions} transitions, complete")
        if child.code != 0 or "graph cache: miss" not in child.stdout or want not in child.stdout:
            raise SetupError(f"store fill failed: {child.stdout[-300:]}{child.stderr[-300:]}")
        ctx.store = store
    return (time.perf_counter() - started) * ctx.speed.factor(before)


# --- untraced CLI passes ---------------------------------------------------


@dataclass
class Op:
    command: str
    key: str
    child: Child
    judgement: Judgement

    @property
    def ok(self) -> bool:
        return self.judgement.status == OK

    def charged_s(self) -> float:
        """Wall for a correct verdict.  A failed operation misses any latency
        limit: it is charged the timeout on top of its wall, so fixing a
        crash reads as a gain, never as a regression."""
        return self.child.ref_s if self.ok else self.child.ref_s + TIMEOUT_S


@dataclass
class Pass:
    ops: List[Op]

    def command_s(self, command: str) -> float:
        return sum(op.charged_s() for op in self.ops if op.command == command)

    def pass_s(self) -> float:
        """Time to all verdicts: the children back to back, without the
        benchmark's own bookkeeping between them."""
        return sum(op.charged_s() for op in self.ops)

    def peak_rss_mb(self) -> float:
        return max((op.child.peak_rss_kb for op in self.ops if op.ok), default=0) / 1024

    def check_transitions_per_s(self) -> float:
        checks = [op for op in self.ops if op.command == "check" and op.ok]
        wall = sum(op.child.ref_s for op in checks)
        return sum(op.judgement.transitions_checked for op in checks) / wall if wall else 0.0


def _spec_args(ctx: Context, command: str, spec: ProgramSpec) -> List[str]:
    gcl, assertion = ctx.inputs[spec.key]
    args = [str(gcl)]
    if command == "check":
        args += ["--assertion", str(assertion)]
    return args + ctx.jobs_args()


def run_pass(ctx: Context) -> Pass:
    """One CLI child per (command, program), in a fixed order.  Directories
    and store copies are made before the first child starts and the outputs
    are judged after the last one exits."""
    plan = []
    for command in COMMANDS:
        for spec in ctx.load.programs:
            cwd = ctx.scratch()
            argv = ctx.cli(command, *_spec_args(ctx, command, spec), *ctx.private_store(cwd))
            plan.append((command, spec, argv, cwd))
    children = [run_child(argv, cwd, ctx.env, ctx.speed) for _, _, argv, cwd in plan]
    ops = []
    for (command, spec, _, cwd), child in zip(plan, children):
        verdict = judge(command, spec.name, spec.expected, child.code, child.stdout,
                        child.stderr, child.timed_out, child.postmortems)
        ops.append(Op(command, spec.key, child, verdict))
        shutil.rmtree(cwd)
    ctx.sweep_shm()
    return Pass(ops)


def repeat(seconds: float, step) -> list:
    """Call ``step`` at least once, then while another call of median
    length still fits in ``seconds``."""
    started = time.perf_counter()
    results, walls = [], []
    while True:
        began = time.perf_counter()
        results.append(step())
        walls.append(time.perf_counter() - began)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return results


def end_to_end(passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
    median = lambda values: statistics.median(list(values))  # noqa: E731
    ops = [op for p in passes for op in p.ops]
    return {
        "decide_s": (median(p.command_s("decide") for p in passes), "s"),
        "synthesize_s": (median(p.command_s("synthesize") for p in passes), "s"),
        "check_s": (median(p.command_s("check") for p in passes), "s"),
        "pass_s": (median(p.pass_s() for p in passes), "s"),
        "peak_rss_mb": (median(p.peak_rss_mb() for p in passes), "MB"),
        "check_transitions_per_s": (median(p.check_transitions_per_s() for p in passes), "1/s"),
        "success_rate": (sum(op.ok for op in ops) / len(ops), "ratio"),
    }


# --- traced rounds ---------------------------------------------------------


def run_tracer(ctx: Context, argv: List[str], cwd: Optional[Path] = None) -> dict:
    cwd = cwd or ctx.scratch()
    child = run_child([ctx.python, str(HERE / "tracer.py"), *argv], cwd, ctx.env, ctx.speed)
    shutil.rmtree(cwd)
    try:
        record = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"spans": [], "counts": {}, "error": f"tracer exit {child.code}: {child.stderr[-300:]}"}
    record["factor"] = child.factor
    return record


def chain_pass(ctx: Context, spans: int) -> List[Tuple[str, ProgramSpec, dict]]:
    records = []
    for command in COMMANDS:
        for spec in ctx.load.programs:
            cwd = ctx.scratch()
            argv = ["chain", "--command", command, "--spans", str(spans),
                    "--program", str(ctx.inputs[spec.key][0]),
                    "--assertion", str(ctx.inputs[spec.key][1]), *ctx.jobs_args()]
            argv += ctx.private_store(cwd)
            records.append((command, spec, run_tracer(ctx, argv, cwd)))
    ctx.sweep_shm()
    return records


def import_probe(ctx: Context) -> float:
    """Median ``import repro.cli`` in a fresh interpreter minus median bare
    interpreter start, from alternating pairs."""
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        for code, samples in (("pass", bare), ("import repro.cli", imported)):
            cwd = ctx.scratch()
            samples.append(run_child([ctx.python, "-c", code], cwd, ctx.env, ctx.speed).ref_s)
            shutil.rmtree(cwd)
    return statistics.median(imported) - statistics.median(bare)


def store_probe(ctx: Context) -> Tuple[float, float, bool]:
    """Per program: a cold store fill, then a warm load in a fresh process."""
    store_s = load_s = 0.0
    ok = True
    for spec in ctx.load.programs:
        store = ctx.scratch() / "store"
        base = ["--program", str(ctx.inputs[spec.key][0]), *ctx.jobs_args(), "--cache-dir", str(store)]
        cold = run_tracer(ctx, ["store", *base])
        warm = run_tracer(ctx, ["load", *base])
        shutil.rmtree(store.parent)
        ok &= not cold["error"] and not warm["error"]
        ok &= cold["counts"].get("cache_hit") is False and warm["counts"].get("cache_hit") is True
        store_s += cold["counts"].get("chain_s", 0.0) * cold["factor"]
        load_s += warm["counts"].get("chain_s", 0.0) * warm["factor"]
    ctx.sweep_shm()
    return store_s, load_s, ok


def _durations(record: dict) -> Tuple[Dict[str, float], float]:
    """Seconds per layer span name (every span but the chain's root), and
    the sum over the spans on the CLI's path."""
    out: Dict[str, float] = {}
    on_path = 0.0
    for span in record["spans"]:
        if span["parent"] is None and span["path"]:
            continue
        seconds = (span["end"] - span["start"]) * record["factor"]
        out[span["name"]] = out.get(span["name"], 0.0) + seconds
        on_path += seconds if span["path"] else 0.0
    return out, on_path


def per_layer(cli: Pass, traced: list, bare: list) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one round: a CLI pass, a traced chain pass and
    an untraced chain pass over the same programs."""
    spans: Dict[str, float] = {}
    overhead = {command: 0.0 for command in COMMANDS}
    explored_states = 0
    for op, (command, spec, record) in zip(cli.ops, traced):
        durations, on_path = _durations(record)
        for name, seconds in durations.items():
            spans[name] = spans.get(name, 0.0) + seconds
        overhead[command] += op.child.ref_s - on_path
        if "ts.explore" in durations:
            explored_states += record["counts"].get("states", 0)
    counts: Dict[str, Dict[str, dict]] = {}
    for command, spec, record in traced:
        counts.setdefault(command, {})[spec.key] = record["counts"]
    checks = counts["check"].values()
    synths = counts["synthesize"].values()
    span = lambda name: (spans.get(name, 0.0), "s")  # noqa: E731
    metrics = {
        "cli.overhead_s": (sum(overhead.values()), "s"),
        **{f"cli.{command}.overhead_s": (overhead[command], "s") for command in COMMANDS},
        "gcl.parse_s": span("gcl.parse"),
        "gcl.commands": (sum(c.get("commands", 0) for c in checks), "count"),
        "ts.explore_s": span("ts.explore"),
        "ts.states": (sum(c.get("states", 0) for c in checks), "count"),
        "ts.transitions": (sum(c.get("transitions", 0) for c in checks), "count"),
        "ts.states_per_s": (explored_states / spans["ts.explore"] if spans.get("ts.explore") else 0.0, "1/s"),
        "fairness.decide_s": span("fairness.decide"),
        "fairness.lasso_len": (sum(c.get("lasso_len", 0) for c in counts["decide"].values()), "count"),
        "completeness.synthesize_s": span("completeness.synthesize"),
        "completeness.regions": (sum(c.get("regions", 0) for c in synths), "count"),
        "completeness.max_stack_height": (max((c.get("max_stack_height", 0) for c in synths), default=0), "count"),
        "measures.assertion_load_s": span("measures.assertion_load"),
        "measures.assertion_eval_s": span("measures.assertion_eval"),
        "measures.verify_synth_s": span("measures.verify_synth"),
        "measures.verify_check_s": span("measures.verify_check"),
        "measures.transitions_checked": (sum(c.get("transitions_checked", 0) for c in checks), "count"),
        "measures.violations": (sum(c.get("violations", 0) for c in checks), "count"),
        "trace.overhead_s": (
            sum(r["counts"].get("chain_s", 0.0) * r["factor"] for _, _, r in traced)
            - sum(r["counts"].get("chain_s", 0.0) * r["factor"] for _, _, r in bare), "s"),
    }
    return metrics


# --- the run ---------------------------------------------------------------


def _medians(rows: List[Dict[str, Tuple[float, str]]]) -> Dict[str, dict]:
    return {
        name: {"value": statistics.median(row[name][0] for row in rows), "unit": unit}
        for name, (_, unit) in rows[0].items()
    }


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    load = workload(name, scale)
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    ctx = Context(load=load, seed=seed, work=work, env=child_env(root), shm_before=shm_segments())
    try:
        setups = [setup(ctx, work / f"setup{i}") for i in range(SETUPS)]
        ops: List[Tuple[str, str]] = []  # (kind, status) of every operation
        if not trace:
            passes = repeat(seconds, lambda: run_pass(ctx))
            metrics = _medians([end_to_end(passes)])
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            ops += [("cli", op.judgement.status) for p in passes for op in p.ops]
        else:
            started = time.perf_counter()
            import_s = import_probe(ctx)
            store_s, load_s, store_ok = store_probe(ctx)
            ops.append(("store", OK if store_ok else FAILED))
            remaining = max(0.0, seconds - (time.perf_counter() - started))
            rounds = repeat(remaining, lambda: (run_pass(ctx), chain_pass(ctx, 1), chain_pass(ctx, 0)))
            rows = []
            for cli, traced, bare in rounds:
                ops += [("cli", op.judgement.status) for op in cli.ops]
                ops += [("chain", judge_counts(c, s.expected, r["counts"], r["error"]))
                        for c, s, r in traced + bare]
                row = per_layer(cli, traced, bare)
                row.update({
                    "cli.import_s": (import_s, "s"),
                    "engine.graphstore.store_s": (store_s, "s"),
                    "engine.graphstore.load_s": (load_s, "s"),
                })
                rows.append(row)
            metrics = _medians(rows)
            write_spans(root, name, seed, rounds)
        failed = sum(status != OK for _, status in ops) + ctx.shm_leaks
        return {
            "correct": all(status != WRONG for _, status in ops),
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        ctx.sweep_shm()
        shutil.rmtree(work, ignore_errors=True)


def write_spans(root: Path, name: str, seed: int, rounds) -> None:
    """The traced rounds' spans, kept in memory until the run ends."""
    record = [
        [{"command": command, "program": spec.key, "error": r["error"], "spans": r["spans"]}
         for command, spec, r in traced]
        for _, traced, _ in rounds
    ]
    path = root / ".perfbench" / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps(record), encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so children are killed and files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} is not a repro checkout (no src/repro/cli.py)", file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as error:
        print(f"error: set-up failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
