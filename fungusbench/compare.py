#!/usr/bin/env python3
"""Compares two sets of fungusbench result files.

Usage:

    python3 fungusbench/compare.py BASE_DIR NEW_DIR
    python3 fungusbench/compare.py --overhead UNTRACED_DIR TRACED_DIR

Each directory holds the saved stdout of runs, one file per run, named
`<workload>-<seed>.txt` (for example `serve_read-7.txt`):

    python3 fungusbench/run.py --workload serve_read --seed 7 \
        --seconds 10 --trace 0 > base/serve_read-7.txt

For every workload and end-to-end metric the first form prints each
side's median and quartiles (Python's statistics.quantiles, n=4), the
share of seed-matched pairs the new side won (ties count for neither),
and whether the change of the median lies within the metric's bound in
BENCHMARK.json. The second form reads the `traced_end_to_end` line of
traced runs and prints how much slower each end-to-end metric was with
tracing on: the tracing overhead.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
NAME = re.compile(r"^(?P<workload>[a-z_]+)-(?P<seed>\d+)\.txt$")


def load_spec():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory, traced_line=False):
    """{workload: {seed: {metric: value}}} from one directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = NAME.match(name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if traced_line:
            tagged = [l for l in lines if l.startswith("traced_end_to_end ")]
            if not tagged:
                continue
            metrics = json.loads(tagged[-1].split(" ", 1)[1])
        else:
            result = json.loads(lines[-1])
            if not result.get("correct"):
                print(f"warning: {name} reports correct=false",
                      file=sys.stderr)
            metrics = result["metrics"]
        values = {k: v["value"] for k, v in metrics.items()}
        runs.setdefault(m["workload"], {})[int(m["seed"])] = values
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(base, new, better):
    """Relative change of `new` against `base`, positive when worse."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def compare(base_dir, new_dir):
    spec = load_spec()
    base = load_runs(base_dir)
    new = load_runs(new_dir)
    status = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"== {workload}: {len(b_runs)} base runs, "
              f"{len(n_runs)} new runs")
        print(f"{'metric':30s} {'base q1/med/q3':>32s} "
              f"{'new q1/med/q3':>32s} {'won':>6s} {'worse':>7s} "
              f"{'bound':>6s} verdict")
        for metric, m in spec.items():
            b = [r[metric] for r in b_runs.values() if metric in r]
            n = [r[metric] for r in n_runs.values() if metric in r]
            if not b or not n:
                continue
            bq1, bmed, bq3 = summary(b)
            nq1, nmed, nq3 = summary(n)
            wins = total = 0
            for seed in set(b_runs) & set(n_runs):
                bv, nv = b_runs[seed].get(metric), n_runs[seed].get(metric)
                if bv is None or nv is None:
                    continue
                total += 1
                if nv != bv:
                    wins += (nv > bv) == (m["better"] == "higher")
            won = f"{wins}/{total}"
            worse = worse_by(bmed, nmed, m["better"])
            spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            if worse > m["bound"]:
                verdict = "WORSE than bound"
                status = 1
            elif spread > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif worse < -spread and total and wins >= 0.9 * total:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{metric:30s} {bq1:10.4g}/{bmed:10.4g}/{bq3:10.4g} "
                  f"{nq1:10.4g}/{nmed:10.4g}/{nq3:10.4g} {won:>6s} "
                  f"{worse:+7.1%} {m['bound']:6.2f} {verdict}")
    return status


def overhead(untraced_dir, traced_dir):
    spec = load_spec()
    plain = load_runs(untraced_dir)
    traced = load_runs(traced_dir, traced_line=True)
    for workload in sorted(set(plain) & set(traced)):
        print(f"== {workload}: {len(plain[workload])} untraced, "
              f"{len(traced[workload])} traced runs")
        for metric, m in spec.items():
            p = [r[metric] for r in plain[workload].values() if metric in r]
            t = [r[metric] for r in traced[workload].values() if metric in r]
            if not p or not t:
                continue
            pm, tm = statistics.median(p), statistics.median(t)
            print(f"{metric:30s} untraced {pm:12.5g} traced {tm:12.5g} "
                  f"overhead {worse_by(pm, tm, m['better']):+7.1%}")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--overhead":
        return overhead(argv[2], argv[3])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
