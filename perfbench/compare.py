"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR      # spread of one set only

Each directory holds the `*.json` result files that `run.py` writes (by
default under `perfbench/_out/results/`). Runs are grouped by workload and
trace mode and paired by seed, or by order when the seeds differ. For every
metric this prints each side's median and quartiles, the share of pairs the
change won, and a verdict:

* improved: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the base runs' interquartile range;
* unresolved: a bounded metric whose run-to-run spread (interquartile range
  over median, on either side) exceeds its bound, unless every change run
  reads better than every base run;
* worse: a bounded metric whose change median is worse than the base median
  by more than the bound; a per-layer metric (no bound) that loses 9 in 10
  pairs by more than the base interquartile range;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((result["workload"], result["trace"]), []).append(result)
    return groups


def values(results: list[dict], metric: str) -> list[float]:
    out = []
    for r in results:
        if metric in r.get("end_to_end", {}) and not r["trace"]:
            out.append(r["end_to_end"][metric]["value"])
        elif metric in r.get("per_layer", {}):
            out.append(r["per_layer"][metric])
    return out


def pair(base: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    """Same seeds on both sides pair by seed; otherwise pair in run order."""
    by_seed_b = {r["seed"]: r for r in base}
    by_seed_c = {r["seed"]: r for r in change}
    if len(by_seed_b) == len(base) and set(by_seed_b) == set(by_seed_c):
        seeds = sorted(by_seed_b)
        return [by_seed_b[s] for s in seeds], [by_seed_c[s] for s in seeds]
    n = min(len(base), len(change))
    return base[:n], change[:n]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, change, higher_better: bool, bound: float | None) -> tuple[str, float]:
    sign = 1.0 if higher_better else -1.0
    gains = [sign * (c - b) for b, c in zip(base, change)]
    won = sum(g > 0 for g in gains) / len(gains)
    lost = sum(g < 0 for g in gains) / len(gains)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    diff = sign * (mc - mb)
    if won >= 0.9 and diff > q3 - q1:
        return "improved", won
    if bound is None:
        return ("worse" if lost >= 0.9 and -diff > q3 - q1 else "unchanged"), won
    if max(spread(base), spread(change)) > bound:
        all_better = (min(change) > max(base)) if higher_better else (max(change) < min(base))
        return ("unchanged" if all_better else "unresolved"), won
    if mb and -diff / abs(mb) > bound:
        return "worse", won
    return "unchanged", won


def print_spread(groups, metrics) -> int:
    """Median, quartiles and (q3 - q1) / median per workload and metric."""
    print(f"{'workload':<11} {'metric':<36} {'median [q1, q3]':>30} {'spread':>8}  bound")
    for (workload, traced), results in sorted(groups.items()):
        for m, layer in metrics:
            xs = values(results, m["name"])
            if layer != bool(traced) or not xs:
                continue
            q1, q2, q3 = quartiles(xs)
            bound = m.get("bound")
            flag = "" if bound is None or spread(xs) <= bound / 3 else "  above a third of the bound"
            print(f"{workload:<11} {m['name']:<36} {f'{q2:.4g} [{q1:.4g}, {q3:.4g}]':>30} "
                  f"{spread(xs):>8.2%}  {bound}{flag}  (n={len(xs)})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    metrics = [(m, False) for m in spec["end_to_end"]] + [(m, True) for m in spec["per_layer"]]
    if args.change is None:
        return print_spread(load(args.base), metrics)
    base_groups, change_groups = load(args.base), load(args.change)
    if not base_groups or not change_groups:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    print(f"{'workload':<11} {'metric':<36} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>5}  verdict")
    for key in sorted(set(base_groups) & set(change_groups)):
        base, change = pair(base_groups[key], change_groups[key])
        workload, traced = key
        for m, layer in metrics:
            if layer != bool(traced):
                continue
            b, c = values(base, m["name"]), values(change, m["name"])
            if not b or len(b) != len(c):
                continue
            v, won = verdict(b, c, m["better"] == "higher", m.get("bound"))
            cells = []
            for xs in (b, c):
                q1, q2, q3 = quartiles(xs)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:<11} {m['name']:<36} {cells[0]:>30} {cells[1]:>30} "
                  f"{won:>5.0%}  {v}  (n={len(b)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
