"""Repository benchmark: CLI workloads, end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # every workload
                                                          # of BENCHMARK.json

(``all`` runs the workloads one after another in one process, so the
memory figures of later workloads include what earlier ones left.)

One run imports ``repro`` from ``src/`` and drives ``repro.cli.main`` in
this process, one command at a time (a closed loop with one caller):

1. Set-up, repeated at least :data:`SETUP_REPS` times: a fresh interpreter
   that imports ``repro.cli`` and writes the workload's input files.
   ``setup_s`` is the median.  Pool workers are spawned by each command
   itself, so their start-up is part of ``wall_s``.
2. One warm-up command, checked but not timed.
3. ``--trace 0``: timed commands for ``--seconds``; ``wall_s`` is the
   median of those that passed their checks, ``ops_per_s`` the
   workload's fixed work over it and ``peak_rss_mb`` this process's
   peak plus its pool workers' own peaks (see :func:`worker_own_kb`).
   Inline (single-process) commands take turns on each CPU the process
   may use, so one CPU's drift on a shared host does not set the median.
   Two more commands then run inline with every layer wrapped, and the
   counts of calls, rows and bytes they record must repeat exactly.
   ``--trace 1``: commands at the workload's worker count give the
   engine metrics, then untraced and traced commands inline (one
   worker) give per-layer self times and the tracing overhead.

Every command's report sections are checked (see ``workloads.py``); a
failing command is counted in ``failed`` and its time is not a sample;
a metric with no passing sample prints as ``null``.
The last line of stdout is one JSON object; metric names and units come
from ``BENCHMARK.json``.  Spans, a Chrome trace and the per-layer table
of a traced run land in ``perfbench/out/<workload>-seed<N>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Set,
                    Tuple)

import layers
from workloads import (DEFAULT_SEED, WORKLOADS, CheckError, Workload,
                       number, table_rows)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up repeats at least this often and for at least this long per
#: run; ``setup_s`` is the median.
SETUP_REPS = 3
SETUP_SECONDS = 3.0
#: Fewest timed commands per phase, however long they take.
MIN_REPS = 3
#: Inline commands with every layer wrapped, compared for exact counts.
COUNTED_REPS = 2
#: Spans kept in memory for export; later spans are only aggregated.
SPAN_CAP = 300_000
#: Set-up in a fresh interpreter: import the CLI, run each argv list.
SETUP_SCRIPT = """import json, sys
import repro.cli
for argv in json.loads(sys.argv[1]):
    if repro.cli.main(argv) != 0:
        sys.exit(f"set-up command {argv} failed")
"""


def load_config() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_cli() -> Any:
    """Import ``repro.cli`` from the checkout's ``src/``, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, str(src))
    import repro.cli
    return repro.cli


def run_cli(cli: Any, argv: List[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro-ecs {' '.join(argv)} exited {code}")


class Command:
    """The outcome of one checked CLI command."""

    def __init__(self, workers: int, wall: float, reports: Dict[str, str],
                 errors: Dict[str, str], engine: List[Any],
                 pool_mb: float) -> None:
        self.workers = workers
        self.wall = wall
        self.reports = reports
        self.errors = errors
        self.engine = engine
        #: Largest sum of one pool's workers' own peaks, in MiB.
        self.pool_mb = pool_mb

    @property
    def ok(self) -> bool:
        return not self.errors


class Runner:
    """Runs one workload's commands for one seed and checks them."""

    def __init__(self, cli: Any, workload: Workload, seed: int) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = OUT_DIR / "work" / workload.name
        # Relative, so the replay report (which names its input) renders
        # the same bytes in every checkout.
        self.trace = os.path.relpath(self.work_dir / "allnames.col", ROOT)
        expected = json.loads((BENCH_DIR / "expected.json").read_text(
            encoding="utf-8"))
        self.expected: Dict[str, str] = expected[workload.name]
        self.commands: List[Command] = []

    # -- set-up ----------------------------------------------------------

    def setup_once(self) -> float:
        """A fresh interpreter's import plus the input files, in seconds.

        The input files are written there, not here, so nothing the
        set-up allocates stays in this process's heap.
        """
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argvs = json.dumps(self.prepare_argvs())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SCRIPT, argvs],
                       env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def prepare_argvs(self) -> List[List[str]]:
        if self.workload.prepare is None:
            return []
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return list(self.workload.prepare(self.seed, self.trace))

    def prepare(self) -> None:
        """The set-up commands in this process (for the traced run)."""
        for argv in self.prepare_argvs():
            run_cli(self.cli, argv)

    # -- commands --------------------------------------------------------

    def command(self, workers: int,
                rec: Optional[layers.Recorder] = None) -> Command:
        """Run the workload's command once, timed, and check its reports.

        Only the ``EngineReport`` of each sharded run is captured; with
        ``rec`` every layer in :data:`layers.LAYER_CALLS` is wrapped too.
        """
        out = self.work_dir / "reports"
        shutil.rmtree(out, ignore_errors=True)
        argv = (["--quiet", "--out", str(out)]
                + self.workload.argv(self.seed, workers, self.trace))
        engine: List[Any] = []
        pools: List[float] = []
        raised: Optional[str] = None
        wrap = (layers.patched(rec) if rec is not None
                else contextlib.nullcontext())
        gc.collect()
        with layers.capture_engine(engine), capture_pool_memory(pools), wrap:
            start = time.perf_counter()
            try:
                run_cli(self.cli, argv)
            except Exception:  # a failing command is a counted failure
                raised = traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
        reports, errors = self.check(out)
        if raised is not None:
            errors = {name: "command raised" for name in
                      self.workload.sections}
            print(raised, file=sys.stderr)
        for name, error in errors.items():
            print(f"perfbench: {self.workload.name} seed={self.seed} "
                  f"section {name}: {error}", file=sys.stderr)
        result = Command(workers, wall, reports, errors, engine,
                         max(pools, default=0.0))
        self.commands.append(result)
        return result

    def check(self, out: Path) -> Tuple[Dict[str, str], Dict[str, str]]:
        reports: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        for name, shape in self.workload.sections.items():
            path = out / f"{name}.txt"
            if not path.is_file():
                errors[name] = "missing"
                continue
            data = path.read_bytes()
            reports[name] = text = data.decode("utf-8")
            if (self.seed == DEFAULT_SEED
                    and hashlib.sha256(data).hexdigest()
                    != self.expected.get(name)):
                errors[name] = "SHA-256 differs from expected.json"
                continue
            try:
                shape(text)
            except (CheckError, ValueError, IndexError,
                    StopIteration) as exc:
                errors[name] = f"shape check failed: {exc}"
        return reports, errors

    def repeat(self, seconds: float, workers: int,
               make_rec: Optional[Callable[[int], layers.Recorder]] = None
               ) -> List[Tuple[Command, Optional[layers.Recorder]]]:
        """Commands for at least ``seconds`` and :data:`MIN_REPS` times.

        Inline commands (``workers == 1``) take turns on each CPU this
        process may use (see :func:`on_cpu`); pooled ones are not pinned,
        since their workers would inherit the pin.
        """
        cpus = sorted(allowed_cpus()) if workers == 1 else []
        done: List[Tuple[Command, Optional[layers.Recorder]]] = []
        start = time.perf_counter()
        while (len(done) < MIN_REPS
               or time.perf_counter() - start < seconds):
            rec = make_rec(len(done)) if make_rec is not None else None
            with on_cpu(cpus[len(done) % len(cpus)] if cpus else None):
                done.append((self.command(workers, rec), rec))
        return done

    # -- results ---------------------------------------------------------

    def ops(self, command: Command) -> int:
        return self.workload.ops(command.reports, command.engine)

    def reference(self) -> Command:
        """The first command that passed its checks (else the first)."""
        return next((c for c in self.commands if c.ok), self.commands[0])

    def summary(self) -> Tuple[int, int, float]:
        """(commands attempted, commands failed, failed-section share)."""
        sections = len(self.workload.sections) * len(self.commands)
        bad = sum(len(c.errors) for c in self.commands)
        failed = sum(1 for c in self.commands if not c.ok)
        return len(self.commands), failed, bad / sections


# -- CPU placement ------------------------------------------------------------

def allowed_cpus() -> Set[int]:
    """The CPUs this process may run on (empty where that is unknown)."""
    getter = getattr(os, "sched_getaffinity", None)
    return set(getter(0)) if getter is not None else set()


@contextlib.contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Pin this process to ``cpu`` for the block (``None``: no pin).

    On a shared host each virtual CPU's speed drifts by tens of percent
    over tens of seconds, largely independently of the others.  A
    single-threaded command stays on one CPU, so its times follow that
    CPU alone; giving every CPU its turn makes a run's median cover them
    all, as a 2-worker pool's times already do.
    """
    allowed = allowed_cpus()
    if cpu is None or len(allowed) < 2:
        yield
        return
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- host-independent counters ----------------------------------------------

def counters_of(rec: layers.Recorder, command: Command,
                payload_bytes: int) -> Dict[str, int]:
    """Counts that depend only on the inputs, never on the host."""
    return {
        "datagrams": int(_network(command.reports).get("datagrams sent", 0)),
        "wire_bytes": rec.counters["dnslib.wire_bytes"],
        "trace_rows": (rec.counters["datasets.build.rows"]
                       + rec.counters["datasets.columnar.read.rows"]),
        "message_copies": rec.calls["dnslib.Message.copy"],
        "payload_bytes": payload_bytes,
    }


def _network(reports: Dict[str, str]) -> Dict[str, float]:
    """The network report's counters (scan or chaos), by metric name."""
    if "chaos" in reports:
        text = reports["chaos"].split("\n\n", 1)[1]
    elif "network_scan" in reports:
        text = reports["network_scan"]
    else:
        return {}
    return {row[0]: number(row[1]) for row in table_rows(text)}


def exact_counts(rec: layers.Recorder) -> Dict[str, int]:
    """Every call count and counter a wrapped command recorded."""
    return {**{f"calls:{k}": v for k, v in sorted(rec.calls.items())},
            **{f"count:{k}": v for k, v in sorted(rec.counters.items())}}


def payload_of(command: Command) -> int:
    return sum(report.payload_bytes for report in command.engine)


def _proc_kb(path: str, keys: Tuple[str, ...]) -> Dict[str, int]:
    """``key: N kB`` lines of a ``/proc`` file; missing keys are absent."""
    found: Dict[str, int] = {}
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in keys:
                    found[key] = int(rest.split()[0])
    except (OSError, ValueError):
        pass
    return found


def worker_own_kb(pid: int) -> int:
    """A pool worker's peak RSS less the pages it shares (Linux).

    A forked worker's ``VmHWM`` counts every page it shares with this
    process and the other workers in full.  ``Rss - Pss`` (from
    ``smaps_rollup``, read while the worker still runs) is the part of
    its resident set that belongs to other processes; it is taken off
    the peak, so shared pages count once across all processes.
    """
    peak = _proc_kb(f"/proc/{pid}/status", ("VmHWM",)).get("VmHWM", 0)
    now = _proc_kb(f"/proc/{pid}/smaps_rollup", ("Rss", "Pss"))
    return max(0, peak - (now.get("Rss", 0) - now.get("Pss", 0)))


@contextlib.contextmanager
def capture_pool_memory(samples: List[float]) -> Iterator[List[float]]:
    """As each process pool shuts down, append its workers' own peaks
    (summed, in MiB) to ``samples``."""
    original = ProcessPoolExecutor.shutdown

    def shutdown(self: ProcessPoolExecutor, *args: Any, **kwargs: Any
                 ) -> None:
        pids = list(getattr(self, "_processes", None) or ())
        samples.append(sum(worker_own_kb(pid) for pid in pids) / 1024.0)
        original(self, *args, **kwargs)

    ProcessPoolExecutor.shutdown = shutdown  # type: ignore[method-assign]
    try:
        yield samples
    finally:
        ProcessPoolExecutor.shutdown = original  # type: ignore[method-assign]


def peak_rss_mb(commands: List[Command]) -> float:
    """Peak RSS of this process since :func:`reset_peak_rss`, plus the
    largest pool footprint of ``commands`` (each command runs its own
    pool, one command at a time)."""
    own_kb = _proc_kb("/proc/self/status", ("VmHWM",)).get(
        "VmHWM", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return own_kb / 1024.0 + max((c.pool_mb for c in commands), default=0.0)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark at the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def median_by_key(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = {key for row in rows for key in row}
    return {key: statistics.median(row.get(key, 0.0) for row in rows)
            for key in keys}


def counted(runner: Runner, commands: List[Tuple[Command, Any]],
            warm: Command) -> Tuple[Dict[str, int], bool]:
    """The run's host-independent counters, and whether they repeated."""
    counts = [exact_counts(rec) for _, rec in commands]
    payloads = {payload_of(c) for c in runner.commands
                if c.workers == warm.workers}
    ops = {runner.ops(c) for c in runner.commands if c.ok}
    repeated = (all(c == counts[0] for c in counts)
                and len(payloads) == 1 and len(ops) <= 1)
    rec = commands[0][1]
    return counters_of(rec, runner.reference(), payload_of(warm)), repeated


# -- the two kinds of run -----------------------------------------------------

def end_to_end(runner: Runner, seconds: float
               ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``--trace 0``: the user-visible metrics of one workload."""
    w = runner.workload
    setups: List[float] = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        setups.append(runner.setup_once())
    warm = runner.command(w.workers)
    reset_peak_rss()
    timed = [c for c, _ in runner.repeat(seconds, w.workers)]
    rss = peak_rss_mb(timed)
    walls = [c.wall for c in timed if c.ok]
    tallied = [(runner.command(1, rec), rec) for rec in
               (layers.Recorder(f"{w.name}-seed{runner.seed}-count{i}", 0)
                for i in range(COUNTED_REPS))]
    counters, repeated = counted(runner, tallied, warm)
    metrics: Dict[str, Optional[float]] = {
        "peak_rss_mb": rss, "setup_s": statistics.median(setups)}
    info: Dict[str, Any] = {"samples": len(walls), "ops_unit": w.ops_unit,
                            "counters": counters,
                            "counters_repeat": repeated}
    if walls:  # no passing command, no time: wall_s and ops_per_s are null
        q1, wall, q3 = quartiles(walls)
        ops = runner.ops(runner.reference())
        metrics.update(wall_s=wall, ops_per_s=ops / wall)
        info.update(wall_q1=q1, wall_q3=q3, ops=ops)
    return metrics, info


def engine_metrics(command: Command) -> Dict[str, float]:
    """Shard and dispatch figures of one command's sharded runs.

    A run's critical path is its slowest shard on a pool and the sum of
    its shards inline; ``engine.dispatch_s`` is wall time beyond it.
    """
    shard_sum = shard_max = dispatch = capacity = 0.0
    shards = payload = 0
    for report in command.engine:
        seconds = [s.seconds for s in report.shards]
        total = sum(seconds)
        slowest = max(seconds, default=0.0)
        critical = slowest if report.workers > 1 else total
        shards += len(seconds)
        payload += report.payload_bytes
        shard_sum += total
        shard_max += slowest
        dispatch += report.wall_seconds - critical
        capacity += report.wall_seconds * report.workers
    return {"engine.shards": shards, "engine.payload_bytes": payload,
            "engine.shard_s.sum": shard_sum, "engine.shard_s.max": shard_max,
            "engine.dispatch_s": dispatch,
            "engine.worker_busy_share": shard_sum / capacity
            if capacity else 0.0}


def recorder_metrics(rec: layers.Recorder, wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced command (or set-up)."""
    m: Dict[str, float] = {}
    for name in rec.layer_of:
        m[f"{name}.calls"] = rec.calls.get(name, 0)
        m[f"{name}.self_s"] = rec.self_s.get(name, 0.0)
    m.update(rec.counters)
    for layer, seconds in rec.layer_self_s().items():
        m[f"layer.{layer}.self_s"] = seconds
    m["layer.unwrapped.self_s"] = wall - rec.root_s
    for suffix in ("calls", "rows", "self_s"):
        m[f"analysis.cache_sim.replay.{suffix}"] = sum(
            m.get(f"{kernel}.{suffix}", 0.0)
            for kernel in layers.REPLAY_KERNELS)
    return m


def traced(runner: Runner, seconds: float
           ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``--trace 1``: per-layer metrics of one workload, plus overhead."""
    w = runner.workload
    tag = f"{w.name}-seed{runner.seed}"
    setup_rec = layers.Recorder(f"{tag}-setup", SPAN_CAP)
    start = time.perf_counter()
    with layers.patched(setup_rec):
        runner.prepare()
    setup_wall = time.perf_counter() - start
    warm = runner.command(w.workers)
    phase = seconds / 3.0
    pooled = [c for c, _ in runner.repeat(phase, w.workers)]
    untraced = (pooled if w.workers == 1
                else [c for c, _ in runner.repeat(phase, 1)])
    tallied = runner.repeat(
        phase, 1, lambda i: layers.Recorder(f"{tag}-traced{i}",
                                            SPAN_CAP if i == 0 else 0))
    counters, repeated = counted(runner, tallied, warm)
    info: Dict[str, Any] = {"counters": counters,
                            "counters_repeat": repeated}
    tallied_ok = [(c, rec) for c, rec in tallied if c.ok]
    untraced_ok = [c for c in untraced if c.ok]
    pooled_ok = [c for c in pooled if c.ok]
    if not (tallied_ok and untraced_ok and pooled_ok):
        return {}, info  # no passing command, no time: every metric is null

    # Layer metrics cover one set-up (the input files) plus one command;
    # the per-layer self-time split covers the command alone.
    per_command = median_by_key([recorder_metrics(rec, c.wall)
                                 for c, rec in tallied_ok])
    in_setup = recorder_metrics(setup_rec, setup_wall)
    metrics = {key: value if key.startswith("layer.")
               else value + in_setup[key]
               for key, value in per_command.items()}
    metrics.update(median_by_key([engine_metrics(c) for c in pooled_ok]))

    net = _network(runner.reference().reports)
    datagrams = net.get("datagrams sent", 0.0)
    lost = net.get("drops", 0.0) + net.get("timeouts", 0.0)
    lookups = metrics.get("core.cache.EcsCache.lookup.calls", 0.0)
    attempts = metrics.get("faults.attempts", 0.0)
    wall_traced = statistics.median(c.wall for c, _ in tallied_ok)
    wall_untraced = statistics.median(c.wall for c in untraced_ok)
    metrics.update({
        "net.datagrams": datagrams, "net.drops": net.get("drops", 0.0),
        "net.timeouts": net.get("timeouts", 0.0),
        "net.faults_injected": net.get("faults injected", 0.0),
        "net.loss_ratio": lost / datagrams if datagrams else 0.0,
        "core.cache.EcsCache.hit_ratio":
            metrics.get("core.cache.EcsCache.hits", 0.0) / lookups
            if lookups else 0.0,
        "faults.retry_ratio":
            metrics.get("faults.retries", 0.0) / attempts
            if attempts else 0.0,
        "trace.wall_traced_s": wall_traced,
        "trace.wall_untraced_s": wall_untraced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.overhead_share": (wall_traced - wall_untraced)
        / wall_untraced,
        "trace.spans": sum(len(r.spans) + r.dropped for r in
                           [setup_rec, tallied[0][1]]),
        "trace.spans_dropped": setup_rec.dropped + tallied[0][1].dropped,
    })

    out = OUT_DIR / tag
    out.mkdir(parents=True, exist_ok=True)
    recs = [setup_rec, tallied[0][1]]
    layers.write_spans_jsonl(recs, out / "spans.jsonl")
    layers.write_chrome_trace(recs, out / "trace.json")
    table = self_time_table(tag, metrics, len(tallied_ok), len(untraced_ok))
    if w.prepare is not None:
        table += "\n" + ", ".join(
            [f"set-up (input files, traced once): {setup_wall:.4f} s"]
            + [f"{layer} {seconds:.4f} s" for layer, seconds in
               setup_rec.layer_self_s().items() if seconds])
    (out / "selftime.txt").write_text(table + "\n", encoding="utf-8")
    info.update(table=table, out=os.path.relpath(out, ROOT))
    return metrics, info


def self_time_table(tag: str, m: Dict[str, float], traced_n: int,
                    untraced_n: int) -> str:
    wall = m["trace.wall_traced_s"]
    rows = [(layer, m[f"layer.{layer}.self_s"])
            for layer in layers.LAYERS + ("unwrapped",)]
    lines = [f"Self time by layer, {tag}: one inline command, median of "
             f"{traced_n} traced commands",
             f"{'layer':<12} {'self_s':>9} {'share':>7}"]
    lines += [f"{layer:<12} {seconds:9.4f} {seconds / wall:7.1%}"
              for layer, seconds in rows]
    lines += [f"{'traced wall':<12} {wall:9.4f}",
              f"{'untraced':<12} {m['trace.wall_untraced_s']:9.4f}"
              f"  (median of {untraced_n} untraced commands)",
              f"{'overhead':<12} {m['trace.overhead_s']:9.4f} "
              f"{m['trace.overhead_share']:7.1%}  of the untraced wall",
              "('unwrapped' is time in no wrapped call: CLI glue, universe "
              "wiring, report files.)"]
    return "\n".join(lines)


def run_workload(cli: Any, name: str, seed: int, seconds: float,
                 trace: int) -> Tuple[Dict[str, Any], Runner,
                                      Dict[str, Any]]:
    runner = Runner(cli, WORKLOADS[name], seed)
    metrics, info = (traced if trace else end_to_end)(runner, seconds)
    attempted, failed, error_rate = runner.summary()
    metrics["error_rate"] = error_rate
    info.update(attempted=attempted, failed=failed,
                correct=failed == 0 and info["counters_repeat"])
    if not info["counters_repeat"]:
        print(f"perfbench: {name} seed={seed}: host-independent counters "
              "did not repeat across commands", file=sys.stderr)
    return metrics, runner, info


def _shown(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.4g}"


def describe(name: str, seed: int, metrics: Dict[str, Any],
             info: Dict[str, Any], wanted: List[Dict[str, Any]]) -> None:
    """Human-readable lines (never the last line of stdout)."""
    head = "".join(f"{m['name']} {_shown(metrics.get(m['name']))} "
                   f"{m['unit']}, " for m in wanted
                   ) if "samples" in info else ""
    print(f"[{name} seed={seed}] {head}error_rate "
          f"{metrics['error_rate']:.4g} fraction "
          f"({info['failed']}/{info['attempted']} commands failed)")
    if "wall_q1" in info:
        print(f"[{name}] wall_s median of {info['samples']} commands, "
              f"quartiles {info['wall_q1']:.4f}..{info['wall_q3']:.4f} s; "
              f"work {info['ops']} {info['ops_unit']} per command")
    print(f"[{name}] counters {json.dumps(info['counters'], sort_keys=True)}"
          f" repeat={info['counters_repeat']}")
    if "table" in info:
        print(info["table"])
        listed = {m["name"] for m in wanted}
        unlisted = [f"{key} {value:.4g} s" for key, value in
                    sorted(metrics.items())
                    if key.endswith(".self_s") and key not in listed and value]
        if unlisted:  # e.g. analysis.scan_reports on --workload scan
            print(f"[{name}] not in BENCHMARK.json: " + ", ".join(unlisted))
        print(f"[{name}] spans and Chrome trace in {info['out']}/")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = load_config()
    cli = import_cli()
    os.chdir(ROOT)
    seconds = (args.seconds if args.seconds is not None
               else float(config["run_seconds"]))
    wanted = config["per_layer" if args.trace else "end_to_end"]
    names = ([w["name"] for w in config["workloads"]]
             if args.workload == "all" else [args.workload])
    result: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                              "metrics": {}}
    for name in names:
        metrics, _, info = run_workload(cli, name, args.seed, seconds,
                                        args.trace)
        describe(name, args.seed, metrics, info, wanted)
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            value = metrics.get(m["name"])
            result["metrics"][prefix + m["name"]] = {
                "value": None if value is None else float(value),
                "unit": m["unit"]}
        result["correct"] = result["correct"] and info["correct"]
        result["attempted"] += info["attempted"]
        result["failed"] += info["failed"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
