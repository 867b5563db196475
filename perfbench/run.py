"""graphcalc benchmark: drives the `graphcalc` CLI of the tree under test.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One client runs a closed loop of sequential CLI invocations, each a fresh
process importing ``src/graphcalc`` of the tree. With ``--trace 0`` it
repeats the workload's fixed invocation list for ``--seconds`` and reports
the end-to-end metrics; with ``--trace 1`` it runs every workload's list once
as processes and once mirrored in-process under spans, and reports the
per-layer metrics. The last line of standard output is the result JSON.
See perfbench/BENCHMARK.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

SETUP_REPEATS = 3
# A run that has not finished by then stops, kills its child and prints no result.
TIME_LIMIT_S = 170
# The console-script entry point, spelled out: the package is run from the
# tree's src/ and is not installed.
ENTRY = "import sys; from graphcalc.cli import main; sys.argv[0] = 'graphcalc'; sys.exit(main())"
BENCH_DIR = Path(__file__).resolve().parent


class BenchmarkError(Exception):
    """The run cannot produce a result: no tree under test, or the time limit passed."""


@dataclass
class Child:
    """One finished CLI process."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Runner:
    """Spawns `graphcalc` processes against one tree and reaps them with wait4."""

    def __init__(self, tree: Path):
        self.tree = tree
        env = dict(os.environ)
        # The program's default environment: its own thread knob stays unset.
        env.pop("GRAPHCALC_THREADS", None)
        src = str(tree / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str], cwd: Path) -> Child:
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=self.env, stdout=out, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # time limit or interrupt: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def version(self, cwd: Path) -> Child:
        return self.run(["--version"], cwd)


class Digests:
    """Digests of check reports and generated edge lists, recorded on the seed code."""

    path = BENCH_DIR / "digests.json"

    def __init__(self):
        with open(self.path, encoding="utf-8") as fh:
            self.table = json.load(fh)

    def expected(self, workload: str, variant: int, inv: wl.Invocation):
        return self.table.get(wl.digest_key(workload, variant, inv)) if inv.digest else None


def run_invocation(runner: Runner, digests: Digests, workload: str, variant: int, inv: wl.Invocation, work: Path):
    wl.clear_outputs(inv, work)
    child = runner.run(inv.argv(), work)
    problems = wl.check_outputs(
        inv, work, child.returncode, child.stdout, digests.expected(workload, variant, inv)
    )
    for problem in problems:
        print(f"FAIL {workload}/{inv.name}: {problem}; stderr: {child.stderr.strip()[-300:]}", file=sys.stderr)
    return child, not problems


def setup(runner: Runner, workload: str, variant: int, work: Path) -> list[float]:
    """Write the inputs and start the program once, SETUP_REPEATS times.

    The warm-up start fills the bytecode and file caches, which a user pays
    once, not per invocation; the median of the repeats is ``setup_s``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        wl.write_inputs(workload, variant, work)
        if runner.version(work).returncode != 0:
            raise BenchmarkError("`graphcalc --version` failed in the tree under test")
        times.append(time.perf_counter() - started)
    return times


def end_to_end(runner, digests, workload, variant, work, seconds, setup_times):
    """Repeat the invocation list for about ``seconds``.

    Another pass starts while it would end less than half a pass past the
    deadline, so the measured time rounds to ``seconds`` whatever the pass
    length.
    """
    invs = wl.invocations(workload, variant)
    passes = []
    started = time.perf_counter()
    while True:
        children = [run_invocation(runner, digests, workload, variant, inv, work) for inv in invs]
        passes.append(children)
        typical = statistics.median(sum(c.wall_s for c, _ in p) for p in passes)
        if time.perf_counter() - started + typical / 2 > seconds:
            break
    walls = [c.wall_s for p in passes for c, _ in p]
    deciles = statistics.quantiles(walls, n=10, method="inclusive")  # linear interpolation
    attempted = len(walls)
    failed = sum(1 for p in passes for _, ok in p if not ok)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # Pass time as the sum of each invocation's median over passes, so one
        # slow stretch of the machine skews one sample, not a whole pass.
        "run_s": (sum(statistics.median(p[i][0].wall_s for p in passes) for i in range(len(invs))), "s"),
        "invocation_s.p50": (deciles[4], "s"),
        "invocation_s.p90": (deciles[8], "s"),
        "peak_rss_mb": (statistics.median(max(c.max_rss_mb for c, _ in p) for p in passes), "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    detail = {"passes": len(passes), "invocations": attempted, "invocation_walls": walls}
    return metrics, attempted, failed, detail


def probe_program(runner: Runner, work: Path) -> dict:
    """Versions, BLAS and module path as the child processes see them."""
    code = (BENCH_DIR / "probe.py").read_text(encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=work, env=runner.env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import graphcalc from {runner.tree / 'src'}: {proc.stderr.strip()[-400:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = (runner.tree / "src" / "graphcalc" / "__init__.py").resolve()
    if Path(info["graphcalc_file"]).resolve() != expected:
        raise BenchmarkError(f"children import graphcalc from {info['graphcalc_file']}, not {expected}")
    return info


def yardstick_s() -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the machine's own speed.

    Recorded at the start and end of every run: on a shared machine, whole
    minutes run faster or slower, and this shows when a shift in the metrics
    came from the machine rather than from the code.
    """
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - started


def provenance(runner: Runner, work: Path) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
        "yardstick_s_start": yardstick_s(),
        "tree": str(runner.tree),
        "src_sha256": tree_digest(runner.tree / "src" / "graphcalc"),
        **git_state(runner.tree),
        **probe_program(runner, work),
    }


def tree_digest(package: Path) -> str:
    """SHA-256 over the package's .py files, names and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_state(tree: Path) -> dict:
    """Commit and dirty flag; both null where the tree is not a git checkout."""
    if not (tree / ".git").exists():
        return {"git_commit": None, "git_dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"git_commit": None, "git_dirty": None}
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree, capture_output=True, text=True, timeout=30
        )
        return {"git_commit": head.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tree", type=Path, default=None, help="checkout whose src/ is measured (default: cwd)")
    ap.add_argument("--out", type=Path, default=None, help="append the result record to this JSONL file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _time_limit(signum, frame):
    raise BenchmarkError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(TIME_LIMIT_S)
    root = Path.cwd().resolve()
    tree = (args.tree or root).resolve()
    if not (tree / "src" / "graphcalc" / "__init__.py").is_file():
        raise BenchmarkError(f"no graphcalc package under {tree / 'src'}; run from the root of a checkout")
    runner = Runner(tree)
    digests = Digests()
    variant = wl.variant_of(args.seed)
    root_work = root / "perfbench" / "_work"
    work = root_work / args.workload
    work.mkdir(parents=True, exist_ok=True)

    prov = provenance(runner, work)
    prov["variant"] = variant
    setup_times = setup(runner, args.workload, variant, work)
    if args.trace == 0:
        metrics, attempted, failed, detail = end_to_end(
            runner, digests, args.workload, variant, work, args.seconds, setup_times
        )
    else:
        import tracing  # imports graphcalc in this process, which the end-to-end run never does

        metrics, attempted, failed, detail = tracing.per_layer_run(
            runner, digests, args.workload, variant, root_work, run_invocation
        )
    prov["loadavg_end"] = list(os.getloadavg())
    prov["yardstick_s_end"] = yardstick_s()

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_times_s": setup_times,
        "provenance": prov,
        "detail": detail,
        **result,
    }
    (work / f"result_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print("provenance: " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
