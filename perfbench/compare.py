"""Steadiness and comparison report over benchmark result sets.

    python3 perfbench/compare.py runs.0.jsonl                # steadiness of one set
    python3 perfbench/compare.py parent.jsonl change.jsonl   # parent vs change

Reads the JSONL records run.py appends with ``--out`` (sweep.py writes them)
and the end-to-end metrics, directions and bounds from BENCHMARK.json. Each
workload's header shows the median machine yardstick of each set; sets taken
while the machine ran at different speeds differ there too.

For one set it gives, per workload and metric, the run count, median,
quartiles and spread, the quartile distance as a share of the median; a
metric is steady when its spread is below a third of its bound.

For two sets it pairs runs by seed and adds the win fraction of the change
(ties count for neither) and a verdict:
  improved    the change wins at least 9/10 of the pairs and the medians
              differ, in its favour, by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than the bound;
  unresolved  either set's spread exceeds the bound, unless every run of the
              change reads better than every run of the parent;
  unchanged   otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict:
    """{workload: {seed: metrics}} from the untraced records of a JSONL file.

    Each run also gets ``yardstick_s``, the mean of its machine-speed gauges.
    """
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] == 0:
                values = {k: v["value"] for k, v in rec["metrics"].items()}
                prov = rec["provenance"]
                values["yardstick_s"] = (prov["yardstick_s_start"] + prov["yardstick_s_end"]) / 2
                runs.setdefault(rec["workload"], {})[rec["seed"]] = values
    return runs


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def better(a: float, b: float, direction: str) -> bool:
    """True when value b reads better than value a."""
    return b < a if direction == "lower" else b > a


def verdict(pa: dict, pb: dict, paired: list, metric: dict) -> tuple[str, float, float]:
    direction, bound = metric["better"], metric["bound"]
    wins = sum(better(a, b, direction) for a, b in paired)
    win_frac = wins / len(paired) if paired else 0.0
    sign = 1.0 if direction == "lower" else -1.0
    worse_by = sign * (pb["median"] - pa["median"]) / pa["median"] if pa["median"] else 0.0
    gap = abs(pb["median"] - pa["median"])
    b_ahead = better(pa["median"], pb["median"], direction)
    all_better = bool(paired) and all(
        better(a, b, direction) for a in (x for x, _ in paired) for b in (y for _, y in paired)
    )
    if paired and wins >= 0.9 * len(paired) and b_ahead and gap > pa["q3"] - pa["q1"]:
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif max(pa["spread"], pb["spread"]) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, win_frac, worse_by


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+", type=Path, help="one or two JSONL result files")
    ap.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    args = ap.parse_args(argv)
    if len(args.runs) > 2:
        ap.error("give one or two result files")
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    sets = [load_runs(p) for p in args.runs]
    status = 0
    for workload in sorted(set().union(*sets)):
        gauges = "  ".join(
            f"{statistics.median(m['yardstick_s'] for m in runs.get(workload, {}).values()):.4f} s"
            for runs in sets
            if runs.get(workload)
        )
        print(f"== {workload}  (machine yardstick, median: {gauges})")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for runs in sets:
                values = [m[name] for m in runs.get(workload, {}).values() if name in m]
                cols.append(summary(values) if values else None)
            if any(c is None for c in cols):
                print(f"  {name:18s} missing")
                status = 1
                continue
            text = "  ".join(
                f"n={c['n']} med={c['median']:.6g} q1={c['q1']:.6g} q3={c['q3']:.6g} spread={c['spread']:.4f}"
                for c in cols
            )
            if len(sets) == 1:
                state = "steady" if cols[0]["spread"] < bound / 3 else "UNSTEADY"
                # Set-up time is bounded by its median shift only, not its spread.
                status |= state != "steady" and name != "setup_s"
                print(f"  {name:18s} {text}  bound={bound} {state}")
            else:
                a, b = sets[0].get(workload, {}), sets[1].get(workload, {})
                paired = [(a[s][name], b[s][name]) for s in sorted(set(a) & set(b))]
                label, win_frac, worse_by = verdict(cols[0], cols[1], paired, metric)
                status |= label == "worse"
                print(f"  {name:18s} {text}  wins={win_frac:.2f} worse_by={worse_by:+.4f} bound={bound} {label}")
    return status


if __name__ == "__main__":
    sys.exit(main())
