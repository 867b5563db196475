"""Run the benchmark over several seeds, for one tree or alternating two.

    python3 perfbench/sweep.py --workloads certify flow --seeds 1-10 --out perfbench/_work/runs
    python3 perfbench/sweep.py --seeds 1-10 --tree ../parent --tree . --out perfbench/_work/ab

Each run is ``perfbench/run.py`` of this checkout, so both trees are measured
with the same benchmark code. With two trees, each seed runs on both, and
which tree goes first alternates from seed to seed. Records are appended to
``<out>.<i>.jsonl`` (i = tree index); compare them with compare.py.
"""

import argparse
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(wl.WORKLOADS), choices=wl.WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--tree", type=Path, action="append", help="checkout to measure (once or twice; default: cwd)")
    ap.add_argument("--out", required=True, help="output prefix")
    args = ap.parse_args(argv)
    trees = args.tree or [Path.cwd()]
    if len(trees) > 2:
        ap.error("give at most two --tree")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            order = list(range(len(trees)))
            if k % 2:
                order.reverse()
            for i in order:
                cmd = [
                    sys.executable, str(RUN),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                    "--tree", str(trees[i].resolve()), "--out", str(Path(f"{args.out}.{i}.jsonl").resolve()),
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{workload} seed={seed} tree={i} rc={proc.returncode} {last[0][:200]}", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
