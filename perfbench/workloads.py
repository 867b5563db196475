"""The four workloads: seeded input files, fixed invocation lists, output checks.

Every input a workload hands to the program comes from its variant, which is
the workload seed modulo N_VARIANTS. Check reports and generated edge lists
are byte-compared against digests recorded for each variant on the seed code
(``digests.json``); a finite variant set is what makes that possible.
"""

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_VARIANTS = 32
WORKLOADS = ("certify", "flow", "stationary", "build")

# Run-length knobs, sized so a pass fits several times into a 25 s run on a
# 2-core machine. The ratios the workloads are defined by stay fixed: every
# certificate kind gets the same trial count, and every flow the same steps.
CERTIFY_TRIALS = 100
FLOW_STEPS = 200
FLOW_STRIDE = 10
LIOUVILLE_RESTARTS = 400
LIOUVILLE_STEPS = 1000
GL_INIT_SEED = 1


@dataclass(frozen=True)
class Invocation:
    """One `graphcalc` command line and what its outputs must satisfy.

    ``opts`` holds the CLI options in order; ``label`` names the input for
    per-layer metrics (``n2025``, ``grid300``, ``p3``, ...). ``digest`` marks
    an invocation whose ``-o`` file must match its recorded SHA-256.
    """

    name: str
    command: str
    kind: str
    opts: tuple[tuple[str, str], ...]
    verdict: str
    label: str = ""
    digest: bool = False

    def argv(self) -> list[str]:
        out = [self.command, self.kind] if self.command != "gen" else ["gen"]
        for key, value in self.opts:
            out += [key, value]
        return out

    def opt(self, key: str) -> str:
        return dict(self.opts)[key]

    def outputs(self) -> list[str]:
        """The files the command writes that the output checks read."""
        out = self.opt("-o")
        if self.command == "solve":
            return [out, f"{out}.report.json"] + ([f"{out}.cert.json"] if self.kind == "gl" else [])
        if self.command == "evolve":
            return [out, self.opt("--trace")]
        return [out]


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _rng(variant: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([variant, stream])


def _subseed(variant: int, stream: int) -> int:
    return int(_rng(variant, stream).integers(0, 2**31 - 1))


# -- input files ------------------------------------------------------------------
# The benchmark writes its inputs with its own code, in the program's file
# formats, so set-up time does not depend on the program under test.


def _grid_edges(rows: int, cols: int) -> list[tuple[str, str]]:
    wr, wc = len(str(rows - 1)), len(str(cols - 1))

    def name(i, j):
        return f"r{i:0{wr}d}c{j:0{wc}d}"

    pairs = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                pairs.append((name(i, j), name(i, j + 1)))
            if i + 1 < rows:
                pairs.append((name(i, j), name(i + 1, j)))
    return pairs


def _gnp_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[str, str]]:
    """A connected G(n, p) draw; redraws until every vertex is reachable."""
    names = [f"v{i:02d}" for i in range(n)]
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(len(iu)) < p
        a, b = iu[keep], ju[keep]
        seen = {0}
        frontier = [0]
        adj = [[] for _ in range(n)]
        for x, y in zip(a, b):
            adj[x].append(y)
            adj[y].append(x)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) == n:
            return [(names[x], names[y]) for x, y in zip(a, b)]


def _write_graph(path: Path, pairs, weights) -> tuple[list[str], np.ndarray]:
    """Write an edge list; return the sorted vertex names and their degrees."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{x} {y} {w!r}\n" for (x, y), w in zip(pairs, weights))
    names = sorted({v for pq in pairs for v in pq})
    index = {v: i for i, v in enumerate(names)}
    deg = np.zeros(len(names))
    for (x, y), w in zip(pairs, weights):
        deg[index[x]] += w
        deg[index[y]] += w
    return names, deg


def _seeded_weights(rng: np.random.Generator, m: int) -> list[float]:
    # Halves in [0.5, 2] are exact in binary and keep the grids well
    # conditioned, so solver work barely changes from one variant to the next.
    return [float(w) for w in rng.integers(1, 5, m) / 2.0]


def _write_function(path: Path, names, values) -> None:
    if np.iscomplexobj(values):
        obj = {v: [float(z.real), float(z.imag)] for v, z in zip(names, values)}
    else:
        obj = {v: float(x) for v, x in zip(names, values)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _complex_disk(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def write_inputs(workload: str, variant: int, work: Path) -> None:
    """Create the workload's input files in ``work`` from its variant."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        pairs = _grid_edges(100, 100)
        _write_graph(work / "grid100.edges", pairs, _seeded_weights(_rng(variant, 0), len(pairs)))
    elif workload == "flow":
        for side, stream in ((45, 1), (46, 2)):
            rng = _rng(variant, stream)
            pairs = _grid_edges(side, side)
            names, _ = _write_graph(work / f"grid{side}.edges", pairs, _seeded_weights(rng, len(pairs)))
            n = len(names)
            if side == 45:
                _write_function(work / f"u0_real{n}.json", names, rng.uniform(-1.0, 1.0, n))
            _write_function(work / f"u0_complex{n}.json", names, _complex_disk(rng, n))
    elif workload == "stationary":
        pairs = _grid_edges(30, 30)
        _write_graph(work / "grid30.edges", pairs, [1.0] * len(pairs))
        pairs = _gnp_edges(20, 0.3, _rng(variant, 3))
        _write_graph(work / "gnp20.edges", pairs, [1.0] * len(pairs))
        for side, stream in ((45, 4), (46, 5)):
            rng = _rng(variant, stream)
            pairs = _grid_edges(side, side)
            names, deg = _write_graph(work / f"grid{side}.edges", pairs, _seeded_weights(rng, len(pairs)))
            n = len(names)
            f = rng.uniform(-1.0, 1.0, n)
            _write_function(work / f"f{n}.json", names, f)
            if side == 45:
                # Pure Neumann data must satisfy sum_x d_x f(x) = 0.
                _write_function(work / f"f_neumann{n}.json", names, f - np.dot(deg, f) / deg.sum())
    elif workload != "build":
        raise ValueError(f"unknown workload {workload!r}")


# -- invocation lists ---------------------------------------------------------------


def _dirichlet(variant: int, stream: int, side: int) -> str:
    rng = _rng(variant, stream)
    w = len(str(side - 1))
    cells = rng.choice(side * side, 2, replace=False)
    values = rng.uniform(-1.0, 1.0, 2)
    return ",".join(
        f"r{c // side:0{w}d}c{c % side:0{w}d}={float(v)!r}" for c, v in zip(cells, values)
    )


def invocations(workload: str, variant: int) -> list[Invocation]:
    """The workload's fixed, ordered invocation list for one variant."""
    if workload == "certify":
        return [
            Invocation(
                name=f"check.{kind}",
                command="check",
                kind=kind,
                opts=(
                    ("--graph", "grid100.edges"),
                    ("--trials", str(CERTIFY_TRIALS)),
                    ("--seed", str(_subseed(variant, 10 + i))),
                    ("-o", f"check_{kind}.json"),
                ),
                verdict=rf"^{kind}: pass \({CERTIFY_TRIALS} trials\)$",
                label="grid100",
                digest=True,
            )
            for i, kind in enumerate(("kato1", "kato2", "product", "gradient-estimate", "max-principle"))
        ]
    if workload == "flow":
        runs = (
            ("schrodinger", 2025, "1", "u0_complex"),
            ("heat", 2025, "1", "u0_real"),
            ("schrodinger", 2116, "1", "u0_complex"),
            ("gp", 2116, "0.05", "u0_complex"),
        )
        return [
            Invocation(
                name=f"evolve.{flow}.n{n}",
                command="evolve",
                kind=flow,
                opts=(
                    ("--graph", f"grid{45 if n == 2025 else 46}.edges"),
                    ("--u0", f"{u0}{n}.json"),
                    ("--dt", dt),
                    ("--steps", str(FLOW_STEPS)),
                    ("--stride", str(FLOW_STRIDE)),
                    ("--trace", f"trace_{flow}_{n}.csv"),
                    ("-o", f"final_{flow}_{n}.json"),
                ),
                verdict=rf"^{flow}: {FLOW_STEPS} steps, final max\|u\|=\S+$",
                label=f"n{n}",
            )
            for flow, n, dt, u0 in runs
        ]
    if workload == "stationary":
        out = [
            Invocation(
                name="solve.gl",
                command="solve",
                kind="gl",
                opts=(
                    ("--graph", "grid30.edges"),
                    ("--init", "random"),
                    ("--seed", str(GL_INIT_SEED)),
                    ("-o", "gl.json"),
                ),
                verdict=r"^gl: converged in \d+ iterations, max\|u\|=\S+$",
                label="grid30",
            )
        ]
        for p in ("3", "2"):
            out.append(
                Invocation(
                    name=f"check.liouville.p{p}",
                    command="check",
                    kind="liouville",
                    opts=(
                        ("--graph", "gnp20.edges"),
                        ("--trials", str(LIOUVILLE_RESTARTS)),
                        ("--steps", str(LIOUVILLE_STEPS)),
                        ("--p", p),
                        ("--bound", "1"),
                        ("--seed", str(_subseed(variant, 20 + int(p)))),
                        ("-o", f"liouville_p{p}.json"),
                    ),
                    verdict=rf"^liouville: pass \({LIOUVILLE_RESTARTS} trials\)$",
                    label=f"p{p}",
                    digest=True,
                )
            )
        for label, side, f, dirichlet in (
            ("dirichlet2025", 45, "f2025.json", _dirichlet(variant, 30, 45)),
            ("dirichlet2116", 46, "f2116.json", _dirichlet(variant, 31, 46)),
            ("neumann2025", 45, "f_neumann2025.json", ""),
        ):
            opts = [("--graph", f"grid{side}.edges"), ("--f", f)]
            if dirichlet:
                opts.append(("--dirichlet", dirichlet))
            opts.append(("-o", f"{label}.json"))
            out.append(
                Invocation(
                    name=f"solve.schrodinger-stationary.{label}",
                    command="solve",
                    kind="schrodinger-stationary",
                    opts=tuple(opts),
                    verdict=r"^schrodinger-stationary: residual=\S+$",
                    label=label,
                )
            )
        return out
    if workload == "build":
        return [
            Invocation(
                name="gen.grid300",
                command="gen",
                kind="grid2d",
                opts=(("--family", "grid2d"), ("--rows", "300"), ("--cols", "300"), ("-o", "grid300.edges")),
                verdict=r"^vertices=90000 edges=179400 d_constant=\S+$",
                label="grid300",
                digest=True,
            ),
            Invocation(
                name="gen.gnp2000",
                command="gen",
                kind="gnp",
                opts=(
                    ("--family", "gnp"),
                    ("--n", "2000"),
                    ("--p", "0.005"),
                    ("--seed", str(_subseed(variant, 40))),
                    ("-o", "gnp2000.edges"),
                ),
                verdict=r"^vertices=2000 edges=\d+ d_constant=\S+$",
                label="gnp2000",
                digest=True,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks ------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_key(workload: str, variant: int, inv: Invocation) -> str:
    return f"{workload}/v{variant:02d}/{inv.name}"


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def clear_outputs(inv: Invocation, work: Path) -> None:
    """Remove the files an invocation writes, so a file left by an earlier run cannot pass its checks."""
    for name in inv.outputs():
        (work / name).unlink(missing_ok=True)


def check_outputs(inv: Invocation, work: Path, returncode: int, stdout: str, expected_digest) -> list[str]:
    """Return the list of problems with one invocation's outputs (empty = correct)."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    lines = stdout.strip().splitlines()
    if not lines or not re.match(inv.verdict, lines[-1]):
        return [f"verdict line {lines[-1] if lines else ''!r} does not match {inv.verdict!r}"]
    problems = []
    out = work / inv.opt("-o")
    try:
        if inv.command == "check" and _load(out).get("pass") is not True:
            problems.append("report does not say pass: true")
        if inv.command == "solve":
            if _load(work / f"{out.name}.report.json").get("converged") is not True:
                problems.append("solve report not converged")
            if inv.kind == "gl" and _load(work / f"{out.name}.cert.json").get("pass") is not True:
                problems.append("gl certificate does not pass")
        if inv.command == "evolve":
            with open(work / inv.opt("--trace"), encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            expected = int(inv.opt("--steps")) // int(inv.opt("--stride")) + 1
            if rows != expected:
                problems.append(f"trace has {rows} rows, expected {expected}")
        if inv.command == "gen":
            edges = int(re.search(r"edges=(\d+)", lines[-1]).group(1))
            with open(out, "rb") as fh:
                count = sum(1 for _ in fh)
            if count != edges:
                problems.append(f"edge list has {count} lines, printed edges={edges}")
        if inv.digest:
            got = sha256(out)
            if expected_digest is None:
                problems.append(f"no recorded digest for {out.name}")
            elif got != expected_digest:
                problems.append(f"{out.name} digest {got[:12]} differs from recorded {expected_digest[:12]}")
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        problems.append(f"unreadable output: {exc}")
    return problems
