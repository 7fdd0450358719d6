#!/usr/bin/env python3
"""Compare benchmark result files against the bounds in BENCHMARK.json.

Each run of perfbench/run.py leaves one result file under
.bench_build/results/ (result-<workload>-seed<n>-trace<t>.json), holding the
run's environment and its metrics. Copy a set of runs into a directory per
side, then:

    python3 perfbench/compare.py BASE_DIR NEW_DIR   # label each metric
    python3 perfbench/compare.py RUNS_DIR           # spread of one set

With two sides, every end-to-end metric of every workload is labelled:
  worse       the new median is worse than the base median by more than the bound
  better      the new side wins at least nine tenths of the runs paired by seed
              (every run, when no seeds pair), and the medians differ by more
              than the distance between the base's quartiles
  unresolved  the base's quartile spread exceeds the bound, and the new runs do
              not all read better (or all worse) than every base run
  unchanged   otherwise
Per-layer metrics are listed with their median ratio, without a label.
With one side, each metric's quartile spread is shown as a share of its
median, against a third of its bound. Exits 1 if any metric is worse.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from a file or a directory."""
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        doc = json.loads(f.read_text())
        env = doc["env"]
        key = (env["workload"], env["trace"] == "1")
        runs.setdefault(key, {})[env["seed"]] = {
            name: m["value"] for name, m in doc["result"]["metrics"].items()}
    return runs


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def label(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    b = list(base.values())
    n = list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    gain = sign * (mn - mb) / abs(mb) if mb else 0.0
    if gain < -bound:
        return "worse"
    if spread(b) > bound:
        if all(sign * x > max(sign * y for y in b) for x in n):
            return "better"
        if all(sign * x < min(sign * y for y in b) for x in n):
            return "worse"
        return "unresolved"
    q1, _, q3 = statistics.quantiles(b, n=4) if len(b) >= 2 else (mb, mb, mb)
    seeds = [s for s in base if s in new]
    if seeds:
        wins = sum(sign * new[s] > sign * base[s] for s in seeds) >= 0.9 * len(seeds)
    else:
        wins = all(sign * x > max(sign * y for y in b) for x in n)
    if wins and sign * (mn - mb) > q3 - q1:
        return "better"
    return "unchanged"


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(Path(a)) for a in argv]
    worse = False
    for (workload, trace) in sorted(set().union(*sides)):
        if any((workload, trace) not in s for s in sides):
            print(f"{workload} trace={int(trace)}: present on one side only")
            continue
        runs = [s[(workload, trace)] for s in sides]
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
              + " vs ".join(f"{len(r)} runs" for r in runs) + ")")
        names = sorted(set().union(*(set(m) for r in runs for m in r.values())))
        for name in names:
            cols = [{seed: m[name] for seed, m in r.items() if name in m} for r in runs]
            meds = [statistics.median(c.values()) for c in cols]
            spec_m = e2e.get(name) if not trace else None
            if len(sides) == 1:
                sp = spread(list(cols[0].values()))
                limit = f" (a third of bound {spec_m['bound'] / 3:.3f})" if spec_m else ""
                print(f"  {name:42s} median {meds[0]:.6g}  spread {sp:.3f}{limit}")
            elif spec_m:
                verdict = label(cols[0], cols[1], spec_m["better"], spec_m["bound"])
                worse |= verdict == "worse"
                print(f"  {name:42s} {meds[0]:.6g} -> {meds[1]:.6g}  {verdict}")
            else:
                ratio = meds[1] / meds[0] if meds[0] else float("nan")
                print(f"  {name:42s} {meds[0]:.6g} -> {meds[1]:.6g}  x{ratio:.3f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
