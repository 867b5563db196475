"""Command-line surface: generators, certificate checks, solvers, evolutions.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
or a solver did not converge, 2 = usage or input error. Every run emits a
`<output>.manifest.json` beside its primary output recording the command,
seed, input digest, configuration, version, and wall time.
"""

import functools
import hashlib
import sys
import time

import click
import numpy as np

from . import __version__
from .calculus import (
    check_kato1,
    check_kato2,
    check_product_rule,
)
from .elliptic import (
    Potential,
    SolverConfig,
    check_strong_max_principle,
    liouville_search,
    MaxPrincipleOutcome,
    solve_ginzburg_landau,
    solve_linear_schrodinger,
    verify_gl_bound,
    verify_gradient_estimate,
)
from .errors import BadParamsError, GraphCalcError, NotASolutionError
from .evolution import (
    EvolutionConfig,
    EvolutionScheme,
    check_parabolic_max,
    evolve_heat,
    gp_evolve,
    schrodinger_evolve,
)
from .graph import (
    VertexFunction,
    d_constant,
    generate,
    random_vertex_function,
    read_edge_list,
    read_vertex_function,
    write_edge_list,
    write_vertex_function,
)
from .serialize import write_json

CHECK_KINDS = ("kato1", "kato2", "product", "gradient-estimate", "max-principle", "liouville")


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _command_line(ctx: click.Context) -> str:
    parts = [ctx.command_path]
    for key, value in sorted(ctx.params.items()):
        if value is None:
            continue
        parts.append(f"--{key.replace('_', '-')}={value}")
    return " ".join(parts)


def _emit_manifest(ctx, out_path, graph_path, seed, config, started) -> None:
    manifest = {
        "command_line": _command_line(ctx),
        "seed": seed,
        "graph_digest": _digest(graph_path) if graph_path else None,
        "config": config,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    write_json(manifest, f"{out_path}.manifest.json")


def _guard(fn):
    """Map library and I/O errors to exit code 2 with a message on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GraphCalcError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="graphcalc")
def main():
    """Discrete calculus, certificates, and PDE flows on weighted graphs."""


@main.command("gen")
@click.option("--family", type=click.Choice(["path", "cycle", "complete", "star", "grid2d", "gnp"]), required=True)
@click.option("--n", type=int, default=None)
@click.option("--rows", type=int, default=None)
@click.option("--cols", type=int, default=None)
@click.option("--p", type=float, default=None)
@click.option("--weight", type=float, default=1.0)
@click.option("--seed", type=int, default=None)
@click.option("-o", "--out", type=click.Path(), required=True)
@click.pass_context
@_guard
def cmd_gen(ctx, family, n, rows, cols, p, weight, seed, out):
    """Generate a graph family and write its edge-list file."""
    started = time.perf_counter()
    g = generate(family, n=n, rows=rows, cols=cols, p=p, weight=weight, seed=seed)
    write_edge_list(g, out)
    click.echo(f"vertices={g.n_vertices} edges={g.n_edges} d_constant={d_constant(g):.17g}")
    _emit_manifest(ctx, out, out, seed, {"family": family, "weight": weight}, started)


def _run_trial(kind, g, seed, trial, tol) -> tuple:
    """One check trial on its own stream: (passed, min slack or outcome, vertex)."""
    rng = np.random.default_rng([seed, trial])
    if kind == "kato1":
        u = random_vertex_function(g, rng, complex_values=trial % 2 == 1, zero_prob=0.1)
        report = check_kato1(g, u, tol)
        return (report.passed, report.min_slack, report.worst_vertex())
    elif kind == "kato2":
        u = random_vertex_function(g, rng, zero_prob=0.1)
        rep_abs, rep_pos = check_kato2(g, u, tol)
        worst = rep_abs if rep_abs.min_slack <= rep_pos.min_slack else rep_pos
        return (rep_abs.passed and rep_pos.passed, worst.min_slack, worst.worst_vertex())
    elif kind == "product":
        u = random_vertex_function(g, rng, complex_values=trial % 2 == 1, zero_prob=0.1)
        report = check_product_rule(g, u, tol)
        return (report.passed, report.min_slack, report.worst_vertex())
    elif kind == "gradient-estimate":
        u = random_vertex_function(g, rng, zero_prob=0.1)
        u = VertexFunction(g.vertices, np.abs(u.values))
        report = verify_gradient_estimate(g, u, tol)
        return (report.passed, report.min_slack, report.worst_vertex())
    elif kind == "max-principle":
        u = random_vertex_function(g, rng, zero_prob=0.1)
        outcome = check_strong_max_principle(g, u, tol)
        return (outcome.outcome is not MaxPrincipleOutcome.VIOLATION, outcome.outcome.value, outcome.vertex)
    else:  # pragma: no cover - guarded by CHECK_KINDS
        raise BadParamsError(f"unknown check kind {kind!r}")


@main.command("check")
@click.argument("kind", type=click.Choice(CHECK_KINDS))
@click.option("--graph", "graph_path", type=click.Path(), required=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--p", "p_exponent", type=float, default=2.0, show_default=True, help="liouville only")
@click.option("--bound", type=float, default=1.0, show_default=True, help="liouville only")
@click.option("--steps", type=int, default=1000, show_default=True, help="liouville only")
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
@_guard
def cmd_check(ctx, kind, graph_path, trials, seed, tol, p_exponent, bound, steps, out):
    """Run randomized certificate trials for KIND on a graph."""
    started = time.perf_counter()
    if trials < 1:
        raise BadParamsError(f"trials must be >= 1, got {trials}")
    if not np.isfinite(tol):
        raise BadParamsError(f"tol must be finite, got {tol!r}")
    g = read_edge_list(graph_path)
    out = out or f"check_{kind}.json"

    report_obj: dict = {
        "check": kind,
        "graph": str(graph_path),
        "trials": trials,
        "seed": seed,
        "tol": tol,
    }
    if kind == "liouville":
        search = liouville_search(
            g, p_exponent, bound, restarts=trials, steps=steps, seed=seed
        )
        all_pass = not search.found_counterexample
        report_obj["pass"] = all_pass
        report_obj["search"] = search.to_json_dict()
    else:
        ordered = [_run_trial(kind, g, seed, t, tol) for t in range(trials)]
        all_pass = all(r[0] for r in ordered)
        report_obj["pass"] = all_pass
        if kind == "max-principle":
            counts: dict[str, int] = {}
            for _, outcome, _ in ordered:
                counts[outcome] = counts.get(outcome, 0) + 1
            report_obj["outcomes"] = dict(sorted(counts.items()))
        else:
            slacks = [r[1] for r in ordered if np.isfinite(r[1])]
            worst_idx = (
                int(np.argmin([r[1] if np.isfinite(r[1]) else np.inf for r in ordered]))
                if slacks
                else None
            )
            report_obj["min_slack"] = min(slacks) if slacks else None
            report_obj["worst_trial"] = worst_idx
            report_obj["worst_vertex"] = ordered[worst_idx][2] if worst_idx is not None else None

    write_json(report_obj, out)
    _emit_manifest(ctx, out, graph_path, seed, {"kind": kind, "trials": trials, "tol": tol}, started)
    click.echo(f"{kind}: {'pass' if all_pass else 'FAIL'} ({trials} trials)")
    if not all_pass:
        sys.exit(1)


def _parse_init(spec, g, seed):
    if spec == "ones":
        return VertexFunction.constant(g, 1.0)
    if spec == "zeros":
        return VertexFunction.constant(g, 0.0)
    if spec == "random":
        rng = np.random.default_rng(seed)
        return random_vertex_function(g, rng, scale=2.0)
    return read_vertex_function(spec, g)


def _parse_potential(spec, g):
    if spec == "zero":
        return Potential.zero(g)
    return Potential(read_vertex_function(spec, g))


def _parse_function(spec, g):
    if spec == "zero":
        return VertexFunction.constant(g, 0.0)
    return read_vertex_function(spec, g)


def _parse_dirichlet(spec):
    if not spec:
        return {}
    pairs = {}
    for chunk in spec.split(","):
        if "=" not in chunk:
            raise BadParamsError(f"dirichlet entry {chunk!r} must look like vertex=value")
        vertex, raw = chunk.split("=", 1)
        try:
            pairs[vertex.strip()] = float(raw)
        except ValueError:
            raise BadParamsError(f"dirichlet value {raw!r} is not a number") from None
    return pairs


@main.command("solve")
@click.argument("problem", type=click.Choice(["gl", "schrodinger-stationary"]))
@click.option("--graph", "graph_path", type=click.Path(), required=True)
@click.option("--init", "init_spec", default="random", show_default=True,
              help="gl only: random, ones, zeros, or a function JSON path")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iters", type=int, default=200_000, show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="gl only: JSON solver config {tol, max_iters, damping, seed}; overrides flags")
@click.option("--Q", "q_spec", default="zero", show_default=True,
              help="schrodinger-stationary only: zero or a function JSON path")
@click.option("--f", "f_spec", default="zero", show_default=True)
@click.option("--dirichlet", "dirichlet_spec", default="", help="e.g. a=0,c=1")
@click.option("-o", "--out", type=click.Path(), default="solution.json", show_default=True)
@click.pass_context
@_guard
def cmd_solve(ctx, problem, graph_path, init_spec, seed, tol, max_iters, config_path, q_spec, f_spec, dirichlet_spec, out):
    """Solve a stationary problem and write solution, report, and certificates."""
    started = time.perf_counter()
    g = read_edge_list(graph_path)
    config = {"problem": problem, "tol": tol}

    if problem == "gl":
        if config_path is not None:
            import json as _json

            with open(config_path, "r", encoding="utf-8") as fh:
                solver_config = SolverConfig.from_json_dict(_json.load(fh))
            if solver_config.seed is not None:
                seed = solver_config.seed
            config["solver"] = solver_config.to_json_dict()
        else:
            solver_config = SolverConfig(tol=tol, max_iters=max_iters)
        init = _parse_init(init_spec, g, seed)
        u, report = solve_ginzburg_landau(g, init, solver_config)
        write_vertex_function(u, out)
        write_json(report.to_json_dict(), f"{out}.report.json")
        _emit_manifest(ctx, out, graph_path, seed, config, started)
        if not report.converged:
            click.echo("gl: no convergence", err=True)
            sys.exit(1)
        cert_tol = max(solver_config.tol, 1e-9)
        try:
            cert = verify_gl_bound(g, u, tol=cert_tol)
        except NotASolutionError as exc:  # pragma: no cover - converged implies solver tol
            click.echo(f"gl: {exc}", err=True)
            sys.exit(1)
        write_json(cert.to_json_dict(), f"{out}.cert.json")
        click.echo(
            f"gl: converged in {report.iterations} iterations, "
            f"max|u|={float(np.max(np.abs(u.values))):.17g}"
        )
        if not cert.passed:
            click.echo("gl: |u| <= 1 bound violated", err=True)
            sys.exit(1)
    else:
        Q = _parse_potential(q_spec, g)
        f = _parse_function(f_spec, g)
        dirichlet = _parse_dirichlet(dirichlet_spec)
        u, report = solve_linear_schrodinger(g, Q, f, dirichlet, tol=tol)
        write_vertex_function(u, out)
        write_json(report.to_json_dict(), f"{out}.report.json")
        _emit_manifest(ctx, out, graph_path, seed, config, started)
        click.echo(f"schrodinger-stationary: residual={report.final_residual:.17g}")
        if not report.converged:
            sys.exit(1)


@main.command("evolve")
@click.argument("flow", type=click.Choice(["heat", "schrodinger", "gp"]))
@click.option("--graph", "graph_path", type=click.Path(), required=True)
@click.option("--u0", "u0_path", type=click.Path(), required=True)
@click.option("--dt", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--stride", type=int, default=1, show_default=True)
@click.option("--solve-tol", type=float, default=1e-12, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(), default="trace.csv", show_default=True)
@click.option("-o", "--out", type=click.Path(), default="final.json", show_default=True)
@click.pass_context
@_guard
def cmd_evolve(ctx, flow, graph_path, u0_path, dt, steps, stride, solve_tol, trace_path, out):
    """Run a time evolution, writing the trace CSV and final state JSON."""
    started = time.perf_counter()
    g = read_edge_list(graph_path)
    u0 = read_vertex_function(u0_path, g)
    scheme = {
        "heat": EvolutionScheme.HEAT_IMPLICIT,
        "schrodinger": EvolutionScheme.SCHRODINGER_CN,
        "gp": EvolutionScheme.GP_STRANG,
    }[flow]
    cfg = EvolutionConfig(dt=dt, steps=steps, scheme=scheme, solve_tol=solve_tol, stride=stride)

    failed = None
    if flow == "heat":
        final, trace, diag = evolve_heat(g, u0, cfg)
        if not diag.monotone:
            failed = f"max/min envelope violated at step {diag.first_violation_step}"
        cert = check_parabolic_max(diag)
        if not cert.passed and failed is None:
            failed = "parabolic maximum certificate failed"
    elif flow == "schrodinger":
        final, trace = schrodinger_evolve(g, u0, cfg)
        m0, e0 = trace.mass[0], trace.dirichlet_energy[0]
        mass_drift = max(abs(m - m0) for m in trace.mass) / max(m0, 1e-300)
        energy_drift = max(abs(e - e0) for e in trace.dirichlet_energy) / max(1.0, e0)
        if mass_drift > 1e-8 or energy_drift > 1e-8:
            failed = (
                f"conservation violated: mass drift {mass_drift:.3e}, "
                f"energy drift {energy_drift:.3e}"
            )
    else:
        final, trace = gp_evolve(g, u0, cfg)

    trace.write_csv(trace_path)
    write_vertex_function(final, out)
    _emit_manifest(ctx, out, graph_path, None, {"flow": flow, "dt": dt, "steps": steps}, started)
    click.echo(f"{flow}: {steps} steps, final max|u|={float(np.max(np.abs(final.values))):.17g}")
    if failed:
        click.echo(f"{flow}: {failed}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
