"""Command-line surface: generators, certificate checks, solvers, evolutions.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
or a solver did not converge, 2 = usage or input error. Every run emits a
`<output>.manifest.json` beside its primary output recording the command,
seed, input digest, configuration, version, and wall time.
"""

import atexit
import functools
import gc
import hashlib
import sys
import time

import click
import numpy as np

# The commands reach calculus, elliptic and evolution only through the
# package's name table, which imports a module at its first use, so a
# process loads only the modules its command runs.
import graphcalc

from . import __version__
from .errors import BadParamsError, GraphCalcError, _require_count, _require_finite
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
from .serialize import read_json, write_json

# At interpreter shut-down a final collection walks and frees every module
# object, which an exiting CLI process gains nothing from. Frozen objects
# are left out of that collection. No output waits on a finalizer: every
# file is closed by its `with` block, and the interpreter flushes stdout
# and stderr regardless.
atexit.register(gc.freeze)

# The certificate trials of each check kind but liouville: the producer a
# trial runs, whether odd trials draw complex values, and whether the
# producer gets |u| in place of u.
_TRIALS = {
    "kato1": ("check_kato1", True, False),
    "kato2": ("check_kato2", False, False),
    "product": ("check_product_rule", True, False),
    "gradient-estimate": ("verify_gradient_estimate", False, True),
    "max-principle": ("check_strong_max_principle", False, False),
}
CHECK_KINDS = (*_TRIALS, "liouville")

# Per command, the options that only some choices (family, kind or problem)
# read, and the choices that read them.
_READ_ONLY_BY = {
    "gen": {
        "n": ("path", "cycle", "complete", "star", "gnp"),
        "rows": ("grid2d",),
        "cols": ("grid2d",),
        "p": ("gnp",),
        "seed": ("gnp",),
    },
    "check": {
        **dict.fromkeys(("p_exponent", "bound", "steps"), ("liouville",)),
        "tol": tuple(_TRIALS),
    },
    "solve": {
        **dict.fromkeys(("init_spec", "seed", "max_iters", "config_path"), ("gl",)),
        **dict.fromkeys(("q_spec", "f_spec", "dirichlet_spec"), ("schrodinger-stationary",)),
    },
}


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


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


def _on_command_line(ctx: click.Context, name: str) -> bool:
    return ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE


def _reject_unread_options(ctx: click.Context, choice_param: str) -> None:
    """Reject an option given on the command line that the chosen value of
    ``choice_param`` (family, kind or problem) never reads."""
    choice = ctx.params[choice_param]
    readers = _READ_ONLY_BY[ctx.command.name]
    for param in ctx.command.params:
        if param.name in readers and choice not in readers[param.name] and _on_command_line(ctx, param.name):
            raise BadParamsError(
                f"{param.opts[0]} does not apply to {choice_param} {choice}, "
                f"only to {', '.join(readers[param.name])}"
            )


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
    _reject_unread_options(ctx, "family")
    g = generate(family, n=n, rows=rows, cols=cols, p=p, weight=weight, seed=seed)
    write_edge_list(g, out)
    click.echo(f"vertices={g.n_vertices} edges={g.n_edges} d_constant={d_constant(g):.17g}")
    _emit_manifest(ctx, out, out, seed, {"family": family, "weight": weight}, started)


def _run_trial(kind, produce, g, seed, trial, tol) -> tuple:
    """One check trial on its own stream: (passed, min slack or outcome, report).

    The report is the trial's worst certificate report (None for
    max-principle), so the caller can name its worst vertex.
    """
    _, complex_odd, takes_abs = _TRIALS[kind]
    rng = np.random.default_rng([seed, trial])
    u = random_vertex_function(g, rng, complex_values=complex_odd and trial % 2 == 1, zero_prob=0.1)
    if takes_abs:
        u = graphcalc.abs_fn(u)
    result = produce(g, u, tol)
    if kind == "kato2":  # both bounds must hold; the worse report stands for the trial
        rep_abs, rep_pos = result
        worst = rep_abs if rep_abs.min_slack <= rep_pos.min_slack else rep_pos
        return (rep_abs.passed and rep_pos.passed, worst.min_slack, worst)
    if kind == "max-principle":
        return (result.outcome.value != "violation", result.outcome.value, None)
    return (result.passed, result.min_slack, result)


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
    _require_count("trials", trials, 1)
    _require_finite("tol", tol)
    _reject_unread_options(ctx, "kind")
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
        search = graphcalc.liouville_search(
            g, p_exponent, bound, restarts=trials, steps=steps, seed=seed
        )
        all_pass = not search.found_counterexample
        report_obj["pass"] = all_pass
        report_obj["search"] = search.to_json_dict()
    else:
        produce = getattr(graphcalc, _TRIALS[kind][0])
        all_pass = True
        counts: dict[str, int] = {}
        # the first trial with the smallest finite min slack, and its report
        worst_trial, worst_slack, worst_report = None, None, None
        for t in range(trials):
            passed, value, report = _run_trial(kind, produce, g, seed, t, tol)
            all_pass = all_pass and passed
            if kind == "max-principle":
                counts[value] = counts.get(value, 0) + 1
            elif np.isfinite(value) and (worst_trial is None or value < worst_slack):
                worst_trial, worst_slack, worst_report = t, value, report
            del report  # between trials only the worst report is held
        report_obj["pass"] = all_pass
        if kind == "max-principle":
            report_obj["outcomes"] = dict(sorted(counts.items()))
        else:
            report_obj["min_slack"] = worst_slack
            report_obj["worst_trial"] = worst_trial
            report_obj["worst_vertex"] = (
                worst_report.worst_vertex() if worst_report is not None else None
            )

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
        vertex = vertex.strip()
        if vertex in pairs:
            raise BadParamsError(f"dirichlet vertex {vertex!r} is given twice")
        try:
            pairs[vertex] = float(raw)
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
    _reject_unread_options(ctx, "problem")
    if config_path is not None:  # the file's settings replace both, so the run would not read them
        for option, name in (("--tol", "tol"), ("--max-iters", "max_iters")):
            if _on_command_line(ctx, name):
                raise BadParamsError(f"{option} does not apply beside --config; set {name} in the file")
    g = read_edge_list(graph_path)
    config = {"problem": problem, "tol": tol}

    if problem == "gl":
        if config_path is not None:
            solver_config = graphcalc.SolverConfig.from_json_dict(read_json(config_path))
            if solver_config.seed is not None:
                if _on_command_line(ctx, "seed"):  # the file's seed would replace it
                    raise BadParamsError("--seed does not apply beside a --config that sets seed")
                seed = solver_config.seed
            # the file's tol is the one the run uses; --tol is never read
            del config["tol"]
            config["solver"] = solver_config.to_json_dict()
        else:
            solver_config = graphcalc.SolverConfig(tol=tol, max_iters=max_iters)
        init = _parse_init(init_spec, g, seed)
        u, report = graphcalc.solve_ginzburg_landau(g, init, solver_config)
    else:
        Q = graphcalc.Potential(_parse_function(q_spec, g))
        f = _parse_function(f_spec, g)
        dirichlet = _parse_dirichlet(dirichlet_spec)
        u, report = graphcalc.solve_linear_schrodinger(g, Q, f, dirichlet, tol=tol)
    write_vertex_function(u, out)
    write_json(report.to_json_dict(), f"{out}.report.json")
    _emit_manifest(ctx, out, graph_path, seed, config, started)

    if problem == "gl":
        if not report.converged:
            click.echo("gl: no convergence", err=True)
            sys.exit(1)
        # a converged solve's residual is at most its tol, so the bound applies
        cert = graphcalc.verify_gl_bound(g, u, tol=max(solver_config.tol, 1e-9))
        write_json(cert.to_json_dict(), f"{out}.cert.json")
        click.echo(
            f"gl: converged in {report.iterations} iterations, "
            f"max|u|={float(np.max(np.abs(u.values))):.17g}"
        )
        if not cert.passed:
            click.echo("gl: |u| <= 1 bound violated", err=True)
            sys.exit(1)
    else:
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
        "heat": graphcalc.EvolutionScheme.HEAT_IMPLICIT,
        "schrodinger": graphcalc.EvolutionScheme.SCHRODINGER_CN,
        "gp": graphcalc.EvolutionScheme.GP_STRANG,
    }[flow]
    cfg = graphcalc.EvolutionConfig(dt=dt, steps=steps, scheme=scheme, solve_tol=solve_tol, stride=stride)

    failed = None
    if flow == "heat":
        final, trace, diag = graphcalc.evolve_heat(g, u0, cfg)
        if not diag.monotone:
            failed = f"max/min envelope violated at step {diag.first_violation_step}"
        cert = graphcalc.check_parabolic_max(diag)
        if not cert.passed and failed is None:
            failed = "parabolic maximum certificate failed"
    elif flow == "schrodinger":
        final, trace = graphcalc.schrodinger_evolve(g, u0, cfg)
        m0, e0 = trace.mass[0], trace.dirichlet_energy[0]
        mass_drift = max(abs(m - m0) for m in trace.mass) / max(m0, 1e-300)
        energy_drift = max(abs(e - e0) for e in trace.dirichlet_energy) / max(1.0, e0)
        if mass_drift > 1e-8 or energy_drift > 1e-8:
            failed = (
                f"conservation violated: mass drift {mass_drift:.3e}, "
                f"energy drift {energy_drift:.3e}"
            )
    else:
        final, trace = graphcalc.gp_evolve(g, u0, cfg)

    trace.write_csv(trace_path)
    write_vertex_function(final, out)
    _emit_manifest(ctx, out, graph_path, None, {"flow": flow, "dt": dt, "steps": steps}, started)
    click.echo(f"{flow}: {steps} steps, final max|u|={float(np.max(np.abs(final.values))):.17g}")
    if failed:
        click.echo(f"{flow}: {failed}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
