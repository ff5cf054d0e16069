"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads blowup --seeds 5
    python3 perfbench/spread.py --workloads blowup --seeds 5 --same-seed 0
    python3 perfbench/spread.py --seeds 10 --sets 2 \
        --write perfbench/baseline.json

Each (workload, seed) pair is one ``run.py --trace 0`` process, with
seeds 0..N-1 (or N runs of the one ``--same-seed``, which leaves host
drift as the only source of spread).  For every end-to-end metric it
prints the median of the runs and the distance between their first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.  With
``--sets 2`` or more the whole sweep repeats, and each later set's
median is given as a shift from the first set's.  ``--write`` stores
the runs and these figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def sweep(config: Dict[str, Any], workload: str, seeds: List[int],
          seconds: float) -> Dict[str, Any]:
    """One set of runs of ``workload``, with its medians and spreads."""
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, seconds)
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']}" for k, v in
                         result["metrics"].items()), flush=True)
    figures = {}
    for metric in config["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        values = [v for v in values if v is not None]
        share = spread(values) if len(values) > 1 else float("nan")
        figures[name] = {"median": statistics.median(values),
                         "iqr_share": share, "bound": metric["bound"],
                         "unit": metric["unit"]}
        print(f"  {workload} {name}: median "
              f"{statistics.median(values):.4g} {metric['unit']}, "
              f"spread {share:.2%} (bound {metric['bound']:.0%})",
              flush=True)
    return {"seeds": seeds,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": figures,
            "runs": [{k: v["value"] for k, v in r["metrics"].items()}
                     for r in runs]}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload, with seeds 0..N-1")
    parser.add_argument("--same-seed", type=int, default=None,
                        metavar="SEED", help="give every run this seed")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole sweep this often")
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"],
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--write", default=None, metavar="FILE",
                        help="write the runs and their spreads as JSON")
    args = parser.parse_args()
    seeds = (list(range(args.seeds)) if args.same_seed is None
             else [args.same_seed] * args.seeds)
    out: Dict[str, Any] = {
        "about": "Written by perfbench/spread.py: each set is one sweep of "
                 "every workload over the seeds, sets run back to back on "
                 "the same code; median_shift = set median / set 1 median "
                 "- 1.",
        "seeds": seeds,
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "seconds": args.seconds, "sets": []}
    worst = 0.0
    for index in range(args.sets):
        sets: Dict[str, Any] = {}
        for workload in args.workloads:
            sets[workload] = sweep(config, workload, seeds, args.seconds)
        out["sets"].append(sets)
        first: Optional[Dict[str, Any]] = out["sets"][0] if index else None
        for workload, figures in sets.items():
            for metric in config["end_to_end"]:
                fig = figures["metrics"][metric["name"]]
                if metric["name"] != "setup_s":
                    worst = max(worst, fig["iqr_share"] / metric["bound"])
                if first is not None:
                    base = first[workload]["metrics"][metric["name"]]
                    fig["median_shift"] = fig["median"] / base["median"] - 1
                    print(f"set {index + 1} {workload} {metric['name']}: "
                          f"median {fig['median_shift']:+.2%} from set 1 "
                          f"(bound {metric['bound']:.0%})", flush=True)
    print(f"largest spread / bound (without setup_s): {worst:.2f}")
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=2) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
