"""Span recording around the public functions of each layer of ``repro``.

The benchmark never edits the program: it swaps each function listed in
:data:`LAYER_CALLS` for a timing wrapper at every module attribute a
caller looks it up through (``repro.net.transport.encode_message`` as
well as ``repro.dnslib.encode_message``), and at the class attribute for
methods.  :func:`patched` undoes every swap on exit.

A span records its name, layer, start, end, parent span and run id.
Spans stay in memory, capped per :class:`Recorder`, and are written out
by :func:`write_spans_jsonl` and :func:`write_chrome_trace` when the run
ends.  Self time is a span's duration minus the time its child spans
cover; it is accumulated for every span, including spans beyond the cap.

:func:`capture_engine` is the lighter hook the timed repetitions use: it
only keeps the :class:`~repro.engine.executor.EngineReport` each
``run_sharded`` call returns and times nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Layer order of the self-time table (the repo's package names).
LAYERS = ("dnslib", "net", "resolvers", "auth", "faults", "core.cache",
          "measure", "datasets", "engine", "analysis")

_clock = time.perf_counter


def _rows_of_partial(result: Any, args: Tuple[Any, ...]) -> int:
    return int(result.queries)


def _lookup_hit(result: Any, args: Tuple[Any, ...]) -> int:
    return 0 if result is None else 1


#: (module, attribute or Class.method, span name, layer, counters).
#: ``counters`` maps a counter name to ``fn(result, args) -> int`` added
#: on every return.  Generator functions get one span per item yielded.
LAYER_CALLS: Tuple[Tuple[str, str, str, str,
                         Dict[str, Callable[[Any, Tuple[Any, ...]], int]]],
                   ...] = (
    ("repro.dnslib.wire", "encode_message", "dnslib.encode_message",
     "dnslib", {"dnslib.wire_bytes": lambda r, a: len(r)}),
    ("repro.dnslib.wire", "decode_message", "dnslib.decode_message",
     "dnslib", {}),
    ("repro.dnslib.message", "Message.copy", "dnslib.Message.copy",
     "dnslib", {}),
    ("repro.net.transport", "Network.query", "net.Network.query", "net",
     {}),
    ("repro.resolvers.recursive", "RecursiveResolver.handle_query",
     "resolvers.RecursiveResolver.handle_query", "resolvers", {}),
    ("repro.resolvers.forwarder", "Forwarder.handle_query",
     "resolvers.Forwarder.handle_query", "resolvers", {}),
    ("repro.resolvers.anycast", "AnycastFrontEnd.handle_query",
     "resolvers.AnycastFrontEnd.handle_query", "resolvers", {}),
    ("repro.auth.server", "AuthoritativeServer.handle_query",
     "auth.handle_query", "auth", {}),
    ("repro.auth.cdn", "CdnAuthoritative.handle_query",
     "auth.handle_query", "auth", {}),
    ("repro.auth.scan_experiment", "ScanExperimentServer.handle_query",
     "auth.handle_query", "auth", {}),
    ("repro.auth.flattening", "FlatteningProvider.handle_query",
     "auth.handle_query", "auth", {}),
    ("repro.faults.retry", "execute_with_retries",
     "faults.execute_with_retries", "faults",
     {"faults.attempts": lambda r, a: r.attempts,
      "faults.retries": lambda r, a: r.retries}),
    ("repro.core.cache", "EcsCache.lookup", "core.cache.EcsCache.lookup",
     "core.cache", {"core.cache.EcsCache.hits": _lookup_hit}),
    ("repro.core.cache", "EcsCache.store", "core.cache.EcsCache.store",
     "core.cache", {}),
    ("repro.core.cache", "ScopeTracker.access",
     "core.cache.ScopeTracker.access", "core.cache", {}),
    ("repro.measure.scanner", "Scanner.scan", "measure.Scanner.scan",
     "measure", {}),
    ("repro.datasets.scan_dataset", "ScanUniverseBuilder.build",
     "datasets.scan_universe", "datasets", {}),
    ("repro.datasets.allnames", "AllNamesBuilder.iter_shard",
     "datasets.build", "datasets", {"datasets.build.rows": lambda r, a: 1}),
    ("repro.datasets.public_cdn", "PublicCdnBuilder.iter_shard",
     "datasets.build", "datasets", {"datasets.build.rows": lambda r, a: 1}),
    ("repro.datasets.columnar", "ColumnarStore.open",
     "datasets.columnar.read", "datasets",
     {"datasets.columnar.read.rows": lambda r, a: r.rows}),
    ("repro.datasets.columnar", "RowGroupReader.group",
     "datasets.columnar.read", "datasets",
     {"datasets.columnar.read.rows": lambda r, a: r.rows}),
    ("repro.datasets.columnar", "bucketed_group_ranges",
     "datasets.columnar.read", "datasets", {}),
    ("repro.datasets.columnar", "write_columnar_stream",
     "datasets.columnar.write", "datasets", {}),
    ("repro.datasets.columnar", "write_columnar_sorted",
     "datasets.columnar.write", "datasets", {}),
    ("repro.datasets.columnar", "merge_columnar_shards",
     "datasets.columnar.write", "datasets", {}),
    ("repro.datasets.columnar", "convert_columnar",
     "datasets.columnar.write", "datasets", {}),
    ("repro.engine.executor", "run_sharded", "engine.run_sharded",
     "engine", {}),
    ("repro.analysis.cache_sim", "replay_partial",
     "analysis.cache_sim.replay_partial", "analysis",
     {"analysis.cache_sim.replay_partial.rows": _rows_of_partial}),
    ("repro.analysis.cache_sim", "replay_partial_batched",
     "analysis.cache_sim.replay_partial_batched", "analysis",
     {"analysis.cache_sim.replay_partial_batched.rows": _rows_of_partial}),
    ("repro.analysis.cache_sim", "replay_partial_columns",
     "analysis.cache_sim.replay_partial_columns", "analysis",
     {"analysis.cache_sim.replay_partial_columns.rows": _rows_of_partial}),
    ("repro.analysis.cache_sim", "replay_partial_column_groups",
     "analysis.cache_sim.replay_partial_column_groups", "analysis",
     {"analysis.cache_sim.replay_partial_column_groups.rows":
      _rows_of_partial}),
    ("repro.analysis.cache_sim", "fig1_series", "analysis.fig1_series",
     "analysis", {}),
    ("repro.analysis.cache_sim", "fig2_series", "analysis.fig2_series",
     "analysis", {}),
    ("repro.analysis.cache_sim", "fig3_series", "analysis.fig3_series",
     "analysis", {}),
    ("repro.analysis.summary", "summarize_scan", "analysis.scan_reports",
     "analysis", {}),
    ("repro.analysis.discovery", "analyze_discovery",
     "analysis.scan_reports", "analysis", {}),
    ("repro.analysis.prefixlen", "build_table1", "analysis.scan_reports",
     "analysis", {}),
    ("repro.analysis.hidden", "analyze_hidden_resolvers",
     "analysis.scan_reports", "analysis", {}),
    ("repro.analysis.report", "format_table", "analysis.render",
     "analysis", {}),
    ("repro.analysis.report", "cdf_table", "analysis.render", "analysis",
     {}),
    ("repro.analysis.report", "format_network_stats", "analysis.render",
     "analysis", {}),
)

#: Names of the replay kernels, summed into ``analysis.cache_sim.replay``.
REPLAY_KERNELS = tuple(name for _, _, name, _, _ in LAYER_CALLS
                       if name.startswith("analysis.cache_sim.replay_"))


class Recorder:
    """In-memory spans and per-name aggregates of one traced repetition."""

    def __init__(self, run_id: str, keep: int) -> None:
        self.run_id = run_id
        self.keep = keep
        self.origin = _clock()
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_of = {name: layer for _, _, name, layer, _ in LAYER_CALLS}
        self.counters = {key: 0 for *_, counters in LAYER_CALLS
                         for key in counters}
        #: Time covered by spans that have no parent span.
        self.root_s = 0.0
        self._stack: List[List[Any]] = []
        self._next_id = 1

    def open(self, name: str, layer: str) -> List[Any]:
        frame = [self._next_id, name, layer, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: List[Any]) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[3]
        name = frame[1]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[4]
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        else:
            self.root_s += duration
            parent_id = 0
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], parent_id, name, frame[2],
                               frame[3], end))
        else:
            self.dropped += 1

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer, in :data:`LAYERS` order."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[self.layer_of[name]] += seconds
        return totals


def _span_wrapper(fn: Callable[..., Any], name: str, layer: str,
                  counters: Dict[str, Callable[..., int]],
                  rec: Recorder) -> Callable[..., Any]:
    tally = rec.counters
    count_items = tuple(counters.items())
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                frame = rec.open(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(frame)
                for key, count in count_items:
                    tally[key] += count(item, args)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        for key, count in count_items:
            tally[key] += count(result, args)
        return result
    return wrapper


def _swap(undo: List[Tuple[Any, str, Any]], owner: Any, attr: str,
          value: Any) -> None:
    undo.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)


def _patch(module_name: str, target: str,
           make: Callable[[Callable[..., Any]], Callable[..., Any]],
           undo: List[Tuple[Any, str, Any]]) -> None:
    module = importlib.import_module(module_name)
    if "." in target:
        class_name, method = target.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            _swap(undo, cls, method, classmethod(make(raw.__func__)))
        else:
            _swap(undo, cls, method, make(raw))
        return
    original = getattr(module, target)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                _swap(undo, loaded, attr, wrapped)


def _restore(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
    undo.clear()


@contextlib.contextmanager
def patched(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every :data:`LAYER_CALLS` entry with spans into ``rec``."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module, target, name, layer, counters in LAYER_CALLS:
            _patch(module, target,
                   functools.partial(_span_wrapper, name=name, layer=layer,
                                     counters=counters, rec=rec), undo)
        yield rec
    finally:
        _restore(undo)


@contextlib.contextmanager
def capture_engine(reports: List[Any]) -> Iterator[List[Any]]:
    """Collect the ``EngineReport`` of every ``run_sharded`` call."""
    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            reports.append(result[1])
            return result
        return wrapper

    undo: List[Tuple[Any, str, Any]] = []
    try:
        _patch("repro.engine.executor", "run_sharded", make, undo)
        yield reports
    finally:
        _restore(undo)


def write_spans_jsonl(recorders: List[Recorder], path: Path) -> int:
    """One JSON object per span; times are seconds from the run start."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in recorders:
            for sid, parent, name, layer, start, end in rec.spans:
                fh.write(json.dumps({
                    "run": rec.run_id, "id": sid, "parent": parent,
                    "name": name, "layer": layer,
                    "start_s": round(start - rec.origin, 9),
                    "end_s": round(end - rec.origin, 9)}) + "\n")
                count += 1
    return count


def write_chrome_trace(recorders: List[Recorder], path: Path) -> None:
    """Chrome trace-event JSON (opens in Perfetto); one pid per run."""
    events: List[Dict[str, Any]] = []
    for pid, rec in enumerate(recorders, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": rec.run_id}})
        for sid, parent, name, layer, start, end in rec.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid,
                "tid": 1, "ts": round((start - rec.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent}})
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n",
                    encoding="utf-8")
