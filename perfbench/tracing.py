"""The traced run: per-layer metrics from spans around graphcalc's public calls.

Each CLI invocation of every workload runs once as a process (its wall time,
CPU and output checks) and once mirrored in this process: the mirror makes the
same library calls the command makes, each wrapped in a span. Spans live in
memory (name, start, end, parent, request id) and are written out at the end
with their self time. Layers are graphcalc's modules; the mirror's own glue
between library calls is the ``cli`` layer.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl

# Modules of the tree under test, bound by load().
graph = calculus = elliptic = evolution = serialize = None


def load(tree: Path) -> None:
    """Import graphcalc from ``tree``/src (never from an installed copy)."""
    global graph, calculus, elliptic, evolution, serialize
    src = str(tree / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import graphcalc
    from graphcalc import calculus, elliptic, evolution, graph, serialize  # noqa: F811

    expected = (tree / "src" / "graphcalc" / "__init__.py").resolve()
    if Path(graphcalc.__file__).resolve() != expected:
        raise ImportError(f"graphcalc imported from {graphcalc.__file__}, not {expected}")


class Tracer:
    """In-memory spans. Disabled, ``call`` is a plain call and records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = []  # [name, request, start, end, parent index]
        self._stack = []
        self.probe_s = 0.0

    def begin(self, name: str, request=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent][1]
        self.spans.append([name, request, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def probe(self, name: str, fn, *args, **kwargs):
        """A call the CLI command does not make, timed apart from the mirror's time."""
        started = time.perf_counter()
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self.probe_s += time.perf_counter() - started

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its (sequential) children cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def dump(self, path: Path) -> None:
        rows = [
            {"name": s[0], "request": s[1], "start": s[2], "end": s[3], "parent": s[4], "self": own}
            for s, own in zip(self.spans, self.self_times())
        ]
        path.write_text(json.dumps(rows))


# -- mirrors: the library calls each CLI command makes ------------------------------

TOL = 1e-10


def _graph(inv, work, t):
    path = inv.opt("--graph")
    return t.call(f"graph.read_edge_list.{Path(path).stem}", graph.read_edge_list, work / path)


def _laplacian_probe(g, t, repeats: int) -> None:
    u = graph.VertexFunction(g.vertices, np.random.default_rng(0).uniform(-1.0, 1.0, g.n_vertices))
    for _ in range(repeats):
        t.probe(f"calculus.laplacian.n{g.n_vertices}", calculus.laplacian, g, u)


def mirror_check(inv, work, t) -> dict:
    g = _graph(inv, work, t)
    trials, seed = int(inv.opt("--trials")), int(inv.opt("--seed"))
    out = work / f"mirror_{inv.opt('-o')}"
    if inv.kind == "liouville":
        search = t.call(
            f"elliptic.liouville_search.{inv.label}",
            elliptic.liouville_search,
            g,
            float(inv.opt("--p")),
            float(inv.opt("--bound")),
            restarts=trials,
            steps=int(inv.opt("--steps")),
            seed=seed,
        )
        t.call("serialize.write_json", serialize.write_json, {"pass": not search.found_counterexample}, out)
        return {"feasible": search.exact_feasible, "restarts": trials}
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        complex_values = inv.kind in ("kato1", "product") and trial % 2 == 1
        u = t.call(
            "graph.random_vertex_function",
            graph.random_vertex_function,
            g,
            rng,
            complex_values=complex_values,
            zero_prob=0.1,
        )
        if inv.kind == "max-principle":
            rows.append(t.call("elliptic.check_strong_max_principle", elliptic.check_strong_max_principle, g, u, TOL))
            continue
        if inv.kind == "kato1":
            report = t.call("calculus.check_kato1", calculus.check_kato1, g, u, TOL)
        elif inv.kind == "kato2":
            rep_abs, rep_pos = t.call("calculus.check_kato2", calculus.check_kato2, g, u, TOL)
            report = rep_abs if rep_abs.min_slack <= rep_pos.min_slack else rep_pos
        elif inv.kind == "product":
            report = t.call("calculus.check_product_rule", calculus.check_product_rule, g, u, TOL)
        else:
            u = graph.VertexFunction(g.vertices, np.abs(u.values))
            report = t.call("elliptic.verify_gradient_estimate", elliptic.verify_gradient_estimate, g, u, TOL)
        rows.append((report.passed, report.min_slack, t.call("calculus.worst_vertex", report.worst_vertex)))
    t.call("serialize.write_json", serialize.write_json, {"check": inv.kind, "trials": len(rows)}, out)
    _laplacian_probe(g, t, 1)
    return {"trials": trials, "n": g.n_vertices, "nnz": g.weight_matrix.nnz}


def _parse_dirichlet(spec: str) -> dict:
    pairs = (chunk.split("=", 1) for chunk in spec.split(",") if chunk)
    return {v: float(x) for v, x in pairs}


def mirror_solve(inv, work, t) -> dict:
    g = _graph(inv, work, t)
    out = work / f"mirror_{inv.opt('-o')}"
    if inv.kind == "gl":
        rng = np.random.default_rng(int(inv.opt("--seed")))
        init = t.call(f"graph.random_vertex_function.{inv.label}", graph.random_vertex_function, g, rng, scale=2.0)
        cfg = elliptic.SolverConfig(tol=TOL, max_iters=200_000)
        u, report = t.call("elliptic.solve_ginzburg_landau", elliptic.solve_ginzburg_landau, g, init, cfg)
        t.call("graph.write_vertex_function", graph.write_vertex_function, u, out)
        t.call("serialize.write_json", serialize.write_json, report.to_json_dict(), f"{out}.report.json")
        cert = t.call("elliptic.verify_gl_bound", elliptic.verify_gl_bound, g, u, tol=max(cfg.tol, 1e-9))
        t.call("serialize.write_json", serialize.write_json, cert.to_json_dict(), f"{out}.cert.json")
        return {"gl_iterations": report.iterations, "gl_damping_events": report.damping_events}
    f = t.call("graph.read_vertex_function", graph.read_vertex_function, work / inv.opt("--f"), g)
    dirichlet = _parse_dirichlet(dict(inv.opts).get("--dirichlet", ""))
    u, report = t.call(
        f"elliptic.solve_linear_schrodinger.{inv.label}",
        elliptic.solve_linear_schrodinger,
        g,
        elliptic.Potential.zero(g),
        f,
        dirichlet,
        tol=TOL,
    )
    t.call("graph.write_vertex_function", graph.write_vertex_function, u, out)
    t.call("serialize.write_json", serialize.write_json, report.to_json_dict(), f"{out}.report.json")
    return {}


def mirror_evolve(inv, work, t) -> dict:
    g = _graph(inv, work, t)
    u0 = t.call("graph.read_vertex_function", graph.read_vertex_function, work / inv.opt("--u0"), g)
    dt, steps, stride = float(inv.opt("--dt")), int(inv.opt("--steps")), int(inv.opt("--stride"))
    scheme = {
        "heat": evolution.EvolutionScheme.HEAT_IMPLICIT,
        "schrodinger": evolution.EvolutionScheme.SCHRODINGER_CN,
        "gp": evolution.EvolutionScheme.GP_STRANG,
    }[inv.kind]
    cfg = evolution.EvolutionConfig(dt=dt, steps=steps, scheme=scheme, solve_tol=1e-12, stride=stride)
    one = evolution.EvolutionConfig(dt=dt, steps=1, scheme=scheme, solve_tol=1e-12, stride=1)
    key = f"{inv.kind}.{inv.label}"
    derived = {"steps": steps}
    if inv.kind == "heat":
        t.probe(f"evolution.one_step.{key}", evolution.evolve_heat, g, u0, one)
        final, trace, diag = t.call(f"evolution.evolve.{key}", evolution.evolve_heat, g, u0, cfg)
        t.call("evolution.check_parabolic_max", evolution.check_parabolic_max, diag)
    else:
        if not u0.is_complex:
            u0 = graph.VertexFunction(g.vertices, u0.values.astype(np.complex128))
        if inv.kind == "schrodinger":
            t.probe(f"evolution.one_step.{key}", evolution.schrodinger_step, g, u0, dt, 1e-12)
            final, trace = t.call(f"evolution.evolve.{key}", evolution.schrodinger_evolve, g, u0, cfg)
            m0 = trace.mass[0]
            derived["mass_drift"] = max(abs(m - m0) for m in trace.mass) / max(m0, 1e-300)
        else:
            t.probe(f"evolution.one_step.{key}", evolution.gp_evolve, g, u0, one)
            final, trace = t.call(f"evolution.evolve.{key}", evolution.gp_evolve, g, u0, cfg)
    t.call("evolution.write_csv", trace.write_csv, work / f"mirror_{inv.opt('--trace')}")
    t.call("graph.write_vertex_function", graph.write_vertex_function, final, work / f"mirror_{inv.opt('-o')}")
    t.probe("evolution.trace_record", evolution.EvolutionTrace.empty().record, g, steps, dt, final.values)
    if key == "schrodinger.n2116":
        # The object write_vertex_function serializes for a complex state.
        obj = {v: [z.real, z.imag] for v, z in zip(final.vertices, final.values)}
        for _ in range(3):
            t.probe("serialize.json_dumps", serialize.json_dumps, obj)
    return derived


def mirror_gen(inv, work, t) -> dict:
    opts = dict(inv.opts)
    kwargs = {"rows": opts.get("--rows"), "cols": opts.get("--cols"), "n": opts.get("--n"), "seed": opts.get("--seed")}
    kwargs = {k: int(v) for k, v in kwargs.items() if v is not None}
    if "--p" in opts:
        kwargs["p"] = float(opts["--p"])
    g = t.call(f"graph.generate.{inv.label}", graph.generate, opts["--family"], **kwargs)
    t.call("graph.write_edge_list", graph.write_edge_list, g, work / f"mirror_{opts['-o']}")
    t.call("graph.d_constant", graph.d_constant, g)
    if inv.label == "grid300":
        _laplacian_probe(g, t, 5)
    return {"edges": g.n_edges, "n": g.n_vertices, "nnz": g.weight_matrix.nnz}


MIRRORS = {"check": mirror_check, "solve": mirror_solve, "evolve": mirror_evolve, "gen": mirror_gen}


def mirror(inv, work: Path, t: Tracer, request: str) -> tuple[float, dict]:
    """Mirror one invocation under a request span.

    Returns the seconds spent in the calls the CLI command makes (probes
    excluded) and the values derived from their results.
    """
    index = t.begin(f"cli.{inv.name}", request) if t.enabled else None
    started, probes = time.perf_counter(), t.probe_s
    try:
        derived = MIRRORS[inv.command](inv, work, t)
    finally:
        elapsed = time.perf_counter() - started - (t.probe_s - probes)
        if index is not None:
            t.end(index)
    return elapsed, derived


# -- computed kernel counts -------------------------------------------------------


def laplacian_counts(n: int, nnz: int) -> tuple[int, int]:
    """Flops and bytes of calculus.laplacian on a real function, computed from nnz.

    terms = coef * (u[cols] - u[rows]) costs a subtract and a multiply per
    stored entry and reduceat one add per entry beyond each row's first:
    3 nnz - n flops. Bytes count every array numpy reads or writes once,
    temporaries included (8-byte floats and indices): two gathers (index,
    value read, temporary write: 24 nnz each), the subtract and the multiply
    (24 nnz each), and reduceat (8 nnz read, 8 (n + 1) row pointers, 8 n out).
    Computed, not measured: cache misses are not counted.
    """
    return 3 * nnz - n, 104 * nnz + 16 * n + 8


# -- the run ------------------------------------------------------------------------


def per_layer_run(runner, digests, workload, variant, root_work, run_invocation):
    """Run and mirror every workload's invocations once; return run.py's result parts.

    ``run_invocation`` is run.py's, passed in so both modes spawn and check
    processes the same way.
    """
    load(runner.tree)
    order = [workload] + [w for w in wl.WORKLOADS if w != workload]
    plans = {w: wl.invocations(w, variant) for w in order}
    for w in order[1:]:
        wl.write_inputs(w, variant, root_work / w)

    t = Tracer()
    import_walls = [runner.version(root_work / workload).wall_s for _ in range(3)]
    records = []
    failed = 0
    for w in order:
        for i, inv in enumerate(plans[w]):
            work = root_work / w
            child, ok = run_invocation(runner, digests, w, variant, inv, work)
            elapsed, derived = mirror(inv, work, t, f"{w}/{i}")
            failed += not ok
            records.append({"workload": w, "inv": inv, "child": child, "mirror_s": elapsed, "derived": derived})
    t.dump(root_work / workload / f"spans_v{variant:02d}.json")
    metrics = layer_metrics(t, records, import_walls)

    # Tracing overhead: this workload's calls once more untraced and once
    # traced (into a throwaway tracer), after the main loop has warmed the
    # process. The order alternates per invocation, so a machine that speeds
    # up or slows down during the pairs does not favour one side.
    untraced_s = traced_s = 0.0
    for i, inv in enumerate(plans[workload]):
        for enabled in (False, True) if i % 2 == 0 else (True, False):
            elapsed = mirror(inv, root_work / workload, Tracer(enabled), None)[0]
            if enabled:
                traced_s += elapsed
            else:
                untraced_s += elapsed
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "fraction")
    detail = {
        "spans": len(t.spans),
        "untraced_mirror_s": untraced_s,
        "traced_mirror_s": traced_s,
        "invocations": [
            {"workload": r["workload"], "name": r["inv"].name, "wall_s": r["child"].wall_s, "mirror_s": r["mirror_s"]}
            for r in records
        ],
    }
    return metrics, len(records), failed, detail


def layer_metrics(t: Tracer, records, import_walls) -> dict:
    m = {}

    def med(metric, span, unit="s"):
        m[metric] = (statistics.median(t.durations(span)), unit)

    def derived(key):
        return [r["derived"][key] for r in records if key in r["derived"]]

    def one(invocation_name, key):
        return next(r["derived"][key] for r in records if r["inv"].name == invocation_name)

    # cli
    m["cli.import_s"] = (statistics.median(import_walls), "s")
    for command in ("gen", "check", "solve", "evolve"):
        gaps = [r["child"].wall_s - r["mirror_s"] for r in records if r["inv"].command == command]
        m[f"cli.overhead_s.{command}"] = (statistics.median(gaps), "s")
    m["cli.cpu_s"] = (sum(r["child"].cpu_s for r in records), "s")
    m["cli.wall_s"] = (sum(r["child"].wall_s for r in records), "s")
    m["cli.invocations"] = (len(records), "count")

    # graph
    for label in ("grid100", "grid45", "grid46", "grid30", "gnp20"):
        med(f"graph.read_edge_list_s.{label}", f"graph.read_edge_list.{label}")
    med("graph.generate_s.grid300", "graph.generate.grid300")
    med("graph.generate_s.gnp2000", "graph.generate.gnp2000")
    m["graph.write_edge_list_s"] = (sum(t.durations("graph.write_edge_list")), "s")
    edges = sum(derived("edges"))
    generate_s = sum(t.durations("graph.generate.grid300") + t.durations("graph.generate.gnp2000"))
    m["graph.edges_built"] = (edges, "count")
    m["graph.edges_per_s"] = (edges / generate_s, "1/s")
    med("graph.random_vertex_function_s", "graph.random_vertex_function")
    med("graph.read_vertex_function_s", "graph.read_vertex_function")
    med("graph.write_vertex_function_s", "graph.write_vertex_function")

    # calculus
    med("calculus.check_kato1_s", "calculus.check_kato1")
    med("calculus.check_kato2_s", "calculus.check_kato2")
    med("calculus.check_product_rule_s", "calculus.check_product_rule")
    med("calculus.worst_vertex_s", "calculus.worst_vertex")
    m["calculus.trials"] = (sum(derived("trials")), "count")
    sizes = {r["derived"]["n"]: r["derived"]["nnz"] for r in records if "nnz" in r["derived"]}
    for n in (10_000, 90_000):
        med(f"calculus.laplacian_s.n{n}", f"calculus.laplacian.n{n}")
        flops, nbytes = laplacian_counts(n, sizes[n])
        m[f"calculus.laplacian_flops.n{n}"] = (flops, "flop")
        m[f"calculus.laplacian_bytes.n{n}"] = (nbytes, "B")

    # elliptic
    med("elliptic.verify_gradient_estimate_s", "elliptic.verify_gradient_estimate")
    med("elliptic.check_strong_max_principle_s", "elliptic.check_strong_max_principle")
    med("elliptic.solve_ginzburg_landau_s", "elliptic.solve_ginzburg_landau")
    m["elliptic.gl_iterations"] = (one("solve.gl", "gl_iterations"), "count")
    m["elliptic.gl_damping_events"] = (one("solve.gl", "gl_damping_events"), "count")
    med("elliptic.liouville_search_s.p3", "elliptic.liouville_search.p3")
    med("elliptic.liouville_search_s.p2", "elliptic.liouville_search.p2")
    restarts = sum(derived("restarts"))
    m["elliptic.liouville_feasible_ratio"] = (sum(derived("feasible")) / restarts, "fraction")
    for label in ("dirichlet2025", "dirichlet2116", "neumann2025"):
        med(f"elliptic.solve_linear_schrodinger_s.{label}", f"elliptic.solve_linear_schrodinger.{label}")

    # evolution
    med("evolution.schrodinger_step_s.n2025", "evolution.one_step.schrodinger.n2025")
    med("evolution.schrodinger_step_s.n2116", "evolution.one_step.schrodinger.n2116")
    for key, metric in (
        ("schrodinger.n2025", "evolution.schrodinger_evolve_s.n2025"),
        ("schrodinger.n2116", "evolution.schrodinger_evolve_s.n2116"),
        ("heat.n2025", "evolution.evolve_heat_s.n2025"),
        ("gp.n2116", "evolution.gp_evolve_s.n2116"),
    ):
        med(metric, f"evolution.evolve.{key}")
        first = statistics.median(t.durations(f"evolution.one_step.{key}"))
        m[f"evolution.step_s.{key}"] = ((m[metric][0] - first) / (one(f"evolve.{key}", "steps") - 1), "s")
    med("evolution.trace_record_s", "evolution.trace_record")
    med("evolution.write_csv_s", "evolution.write_csv")
    med("evolution.check_parabolic_max_s", "evolution.check_parabolic_max")
    m["evolution.mass_drift.n2025"] = (one("evolve.schrodinger.n2025", "mass_drift"), "ratio")
    m["evolution.mass_drift.n2116"] = (one("evolve.schrodinger.n2116", "mass_drift"), "ratio")

    # serialize
    med("serialize.json_dumps_s", "serialize.json_dumps")

    # self time per layer, summed over the whole traced run
    own = t.self_times()
    for layer in ("cli", "graph", "calculus", "elliptic", "evolution", "serialize"):
        m[f"self_s.{layer}"] = (sum(o for s, o in zip(t.spans, own) if s[0].split(".", 1)[0] == layer), "s")
    return m
