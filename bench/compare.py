"""Compare two result sets of bench/run.py, metric by metric.

    python3 bench/compare.py PARENT.log CHANGE.log

Each file holds the standard output of any number of untraced runs, in the
order they ran (the full-record line of each run is used). For every
workload and end-to-end metric of BENCHMARK.json the verdict is:

- better: the change wins at least 9 of 10 pairs (run i of each side,
  ties count for neither) and the medians differ, in the better direction,
  by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the run-to-run spread (IQR / median, either side) exceeds
  the bound, unless every change run is better than every parent run;
- within bound: otherwise.

A gain does not count when the change failed more operations. Exits 1
when any pairing is worse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path):
    """workload -> list of full records of untraced runs, in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "workload" in record and not record.get("trace"):
            runs[record["workload"]].append(record)
    return runs


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    spread = max(_iqr(parent) / abs(mp), _iqr(change) / abs(mc))
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gap = sign * (mc - mp)
    if spread > bound:
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("better" if every else "unresolved"), mp, mc, spread, wins, len(pairs)
    if wins >= 0.9 * len(pairs) and gap > _iqr(parent):
        return "better", mp, mc, spread, wins, len(pairs)
    if -gap > bound * abs(mp):
        return "worse", mp, mc, spread, wins, len(pairs)
    return "within bound", mp, mc, spread, wins, len(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    any_worse = False
    print(f"{'workload':<12} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["ops_failed"] for r in p_runs)
        c_failed = sum(r["ops_failed"] for r in c_runs)
        for m in metrics:
            p = [r["e2e"][m["name"]] for r in p_runs]
            c = [r["e2e"][m["name"]] for r in c_runs]
            v, mp, mc, spread, wins, n = verdict(p, c, m["better"], m["bound"])
            if v == "better" and c_failed > p_failed:
                v = "better, but more ops failed: not a gain"
            any_worse |= v == "worse"
            print(f"{workload:<12} {m['name']:<16} {mp:>12.4g} {mc:>12.4g} "
                  f"{(mc - mp) / mp:>+8.1%} {spread:>7.1%} {wins:>3}/{n:<2}  {v}"
                  f" (bound {m['bound']:.0%})")
        if min(len(p_runs), len(c_runs)) < MIN_PAIRS:
            print(f"{workload:<12} note: {min(len(p_runs), len(c_runs))} pairs; "
                  f"a claim needs at least {MIN_PAIRS}")
        print(f"{workload:<12} ops failed: parent {p_failed}, change {c_failed}")
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload:<12} only in one result set; not compared")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
