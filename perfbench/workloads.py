"""The benchmark workloads: CLI arguments, inputs, work and checks.

Every workload is one ``repro-ecs`` command run through
``repro.cli.main`` in the benchmark's own process, in a closed loop with
one caller.  Input sizes are fixed here so throughput is reported at a
stated size; the seed is the only thing that varies between runs.

* ``scan`` — the active campaign at 500 ingress resolvers.  Query path
  only: codec, transport, forwarders, recursive resolver, authoritative
  server and ``EcsCache``.  Runnable by name but not in BENCHMARK.json:
  on a 2-CPU host whose speed drifts by up to 25% over minutes, four
  workloads leave too little time per run for steady medians, and
  ``chaos_lossy`` drives the same query-path layers.
* ``chaos_lossy`` — the same campaign under the ``lossy`` fault preset
  at 300 ingress resolvers on 2 pool workers: drops, the retry ladder
  and engine dispatch.
* ``blowup`` — the section 7 figures over a 126-second Public-CDN trace
  at scale 0.01 and All-Names at scale 0.03 (16.5k rows, the same for
  every seed, so the Public-CDN trace, whose length varies with the
  seed, is a small share): spec-dispatched generation, then the Fig 1 TTL
  sweep and the Fig 2/3 client-fraction replays.  Trace path only.
* ``replay_columnar`` — ``replay allnames`` on 2 workers over a 165k-row
  v2 row-group columnar trace pre-bucketed for the 8 replay shards,
  written during set-up.  The only workload that reads
  ``datasets.columnar`` and the engine's row-range replay path.

Each rendered report section is checked: for :data:`DEFAULT_SEED` its
SHA-256 must match ``expected.json``; for every seed the shape claims of
EXPERIMENTS.md must hold (blow-up above 1, ECS hit rate below the no-ECS
hit rate, Fig 2 monotone, chaos response rate above 0, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

#: The seed whose report bytes are pinned in ``expected.json``.
DEFAULT_SEED = 0

#: Replay shards of ``replay_columnar``; the trace is bucketed for them.
REPLAY_SHARDS = 8
REPLAY_SCALE = "0.3"
REPLAY_ROW_GROUP_ROWS = "16384"

#: Fig 1 replays one TTL override per column; Figs 2 and 3 each replay
#: every (client fraction, sample seed) pair of ``cmd_blowup``.
FIG1_CONFIGS = 3
FIG23_CONFIGS = 2 * 5 * 2


class CheckError(Exception):
    """A report section failed its shape check."""


def table_rows(text: str) -> List[List[str]]:
    """Body rows of a ``format_table`` rendering, one list of cells each."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.startswith("---"):
            return [re.split(r"\s{2,}", row.strip())
                    for row in lines[index + 1:] if row.strip()]
    raise CheckError("no table in section")


def table_value(text: str, metric: str, column: int = 1) -> str:
    """The cell ``column`` of the first row whose first cell is ``metric``."""
    for row in table_rows(text):
        if row[0] == metric:
            return row[column]
    raise CheckError(f"no row {metric!r}")


def number(cell: str) -> float:
    return float(cell.rstrip("%"))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- shape checks, one per section ----------------------------------------

def _check_network(text: str, clean: bool) -> None:
    require(number(table_value(text, "datagrams sent")) > 0,
            "no datagrams sent")
    if clean:
        require(number(table_value(text, "drops")) == 0
                and number(table_value(text, "timeouts")) == 0,
                "clean scan lost datagrams")


def _check_scan_summary(text: str) -> None:
    require(number(table_value(text, "open ingress resolvers", 2)) > 0,
            "no open ingress resolvers")
    fraction = number(table_value(text, "ECS ingress fraction", 2))
    require(0 < fraction <= 1, f"ECS ingress fraction {fraction}")


def _check_discovery(text: str) -> None:
    active = number(table_value(
        text, "actively discovered (scan, non-MegaDNS)", 2))
    passive = number(table_value(
        text, "passively discovered (CDN vantage)", 2))
    overlap = number(table_value(text, "overlap (active ∩ passive)", 2))
    require(0 < active < passive, "passive discovery does not dominate")
    require(overlap <= active, "overlap exceeds active discoveries")


def _check_table1(text: str) -> None:
    counts = {row[0]: int(row[1]) for row in table_rows(text)
              if row[1] != "-"}
    require(max(counts, key=lambda k: counts[k]) == "24",
            "/24 does not dominate the scan column")


def _check_hidden(text: str) -> None:
    require(number(table_value(text, "validated fraction", 2)) > 0.8,
            "hidden-resolver validation below 80%")
    require(number(table_value(text, "non-MP: hidden closer (ECS helps)",
                               2)) > 0.5,
            "hidden-closer is not the majority")


def _check_chaos(text: str) -> None:
    require(number(table_value(text, "response rate")) > 0,
            "chaos response rate is 0")
    _check_network(text.split("\n\n", 1)[1], clean=False)


def _check_fig1(text: str) -> None:
    p50 = [number(cell) for cell in
           next(row for row in table_rows(text) if row[0] == "p50")[1:]]
    require(all(v >= 1 for v in p50), "Fig 1 blow-up below 1")
    require(p50 == sorted(p50), "Fig 1 median does not grow with TTL")


def _check_fig2(text: str) -> None:
    # Monotone up to the sampling noise benchmarks/test_bench_fig2.py
    # tolerates: no step may fall by more than 0.15.
    blowups = [number(row[1]) for row in table_rows(text)]
    require(all(b >= a - 0.15 for a, b in zip(blowups, blowups[1:])),
            "Fig 2 is not monotone")
    require(blowups[-1] > max(1.0, blowups[0]),
            "Fig 2 blow-up does not grow above 1")


def _check_fig3(text: str) -> None:
    rows = table_rows(text)
    for row in rows:
        require(number(row[2]) <= number(row[1]),
                f"Fig 3 ECS hit rate above no-ECS at {row[0]}")
    require(number(rows[-1][2]) < number(rows[-1][1]),
            "Fig 3 ECS hit rate not below no-ECS for all clients")


def _check_replay(text: str) -> None:
    require(number(table_value(text, "blow-up factor")) > 1,
            "replay blow-up not above 1")
    require(number(table_value(text, "hit rate with ECS"))
            < number(table_value(text, "hit rate without ECS")),
            "ECS hit rate not below no-ECS")


# -- work per command, fixed by the inputs --------------------------------

def _datagrams(reports: Dict[str, str], section: str) -> int:
    text = reports[section]
    if section == "chaos":
        text = text.split("\n\n", 1)[1]
    return int(number(table_value(text, "datagrams sent")))


def _generated(engine_reports: List[Any], builder: str) -> int:
    """Rows of the dataset a command generated with ``builder``."""
    return sum(report.total_records for report in engine_reports
               if report.task == f"generate:{builder}")


@dataclass(frozen=True)
class Workload:
    """One named CLI workload."""

    name: str
    why: str
    #: Report section files the command renders, with their checks.
    sections: Dict[str, Callable[[str], None]]
    #: Pool workers of the timed command (1 = inline, no pool).
    workers: int
    #: ``argv(seed, workers, trace_path)`` for ``repro.cli.main``.
    argv: Callable[[int, int, str], List[str]]
    #: ``ops(reports, engine_reports)``: logical work of one command.
    ops: Callable[[Dict[str, str], List[Any]], int]
    #: What one unit of ``ops`` is, for the human-readable line.
    ops_unit: str
    #: ``prepare(seed, trace_path)`` argv lists run before timing.
    prepare: Optional[Callable[[int, str], Sequence[List[str]]]] = None


def _replay_prepare(seed: int, trace: str) -> Sequence[List[str]]:
    flat = trace + ".flat"
    return (
        ["--quiet", "--seed", str(seed), "generate", "allnames", flat,
         "--scale", REPLAY_SCALE, "--format", "columnar",
         "--row-group-rows", REPLAY_ROW_GROUP_ROWS],
        ["--quiet", "convert", "allnames", flat, trace, "--to", "columnar",
         "--row-group-rows", REPLAY_ROW_GROUP_ROWS,
         "--bucket-shards", str(REPLAY_SHARDS)],
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="scan",
        why="query path only: codec, transport, resolvers, authoritative "
            "and EcsCache on clean traffic; never touches the trace path",
        sections={"scan_summary": _check_scan_summary,
                  "discovery": _check_discovery,
                  "table1_scan": _check_table1,
                  "hidden": _check_hidden,
                  "network_scan": lambda t: _check_network(t, clean=True)},
        workers=1,
        argv=lambda seed, workers, trace: [
            "--seed", str(seed), "scan", "--ingress", "500"],
        ops=lambda reports, engine: _datagrams(reports, "network_scan"),
        ops_unit="datagrams"),
    Workload(
        name="chaos_lossy",
        why="query path under ~28% datagram loss: the retry ladder and "
            "fault path, with shards fanned out over a 2-worker pool",
        sections={"chaos": _check_chaos},
        workers=2,
        argv=lambda seed, workers, trace: [
            "--seed", str(seed), "chaos", "--preset", "lossy",
            "--fault-seed", str(seed), "--ingress", "300",
            "--workers", str(workers)],
        ops=lambda reports, engine: _datagrams(reports, "chaos"),
        ops_unit="datagrams"),
    Workload(
        name="blowup",
        why="trace path only: dataset generation, then the Fig 1-3 cache "
            "replays through cache_sim and ScopeTracker; no DNS messages",
        sections={"fig1": _check_fig1, "fig2": _check_fig2,
                  "fig3": _check_fig3},
        workers=1,
        argv=lambda seed, workers, trace: [
            "--seed", str(seed), "blowup", "--scale", "0.01",
            "--hours", "0.035", "--allnames-scale", "0.03"],
        ops=lambda reports, engine: (
            FIG1_CONFIGS * _generated(engine, "public-cdn")
            + FIG23_CONFIGS * _generated(engine, "allnames")),
        ops_unit="row-replays"),
    Workload(
        name="replay_columnar",
        why="on-disk replay: mmap row-group reads of a bucketed v2 "
            "columnar trace and the column kernel on a 2-worker pool",
        sections={"replay": _check_replay},
        workers=2,
        argv=lambda seed, workers, trace: [
            "replay", "allnames", trace, "--workers", str(workers),
            "--shards", str(REPLAY_SHARDS)],
        ops=lambda reports, engine: int(table_value(reports["replay"],
                                                  "records replayed")),
        ops_unit="rows",
        prepare=_replay_prepare),
)}
