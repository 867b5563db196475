import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import graphcalc as gc
from graphcalc.cli import CHECK_KINDS, main


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def _write_graph(tmp_path, family="complete", **kw):
    g = gc.generate(family, **kw)
    path = tmp_path / "g.edges"
    gc.write_edge_list(g, path)
    return g, path


# -- gen ---------------------------------------------------------------------------


def test_gen_complete_writes_edges(runner, tmp_path):
    out = tmp_path / "k3.edges"
    result = _invoke(runner, ["gen", "--family", "complete", "--n", "3", "--weight", "1", "-o", str(out)])
    assert result.exit_code == 0
    assert "vertices=3 edges=3" in result.output
    g = gc.read_edge_list(out)
    assert g.n_edges == 3
    manifest = json.loads((tmp_path / "k3.edges.manifest.json").read_text())
    assert list(manifest) == [
        "command_line", "seed", "graph_digest", "config", "version", "wall_time_s"
    ]
    assert manifest["version"] == gc.__version__
    assert manifest["graph_digest"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["wall_time_s"] >= 0.0


def test_gen_gnp_deterministic_bytes(runner, tmp_path):
    out1, out2 = tmp_path / "a.edges", tmp_path / "b.edges"
    for out in (out1, out2):
        result = _invoke(
            runner,
            ["gen", "--family", "gnp", "--n", "20", "--p", "0.3", "--seed", "42", "-o", str(out)],
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_bad_params_exit_2(runner, tmp_path):
    result = runner.invoke(
        main, ["gen", "--family", "path", "--n", "1", "-o", str(tmp_path / "x.edges")]
    )
    assert result.exit_code == 2


# -- check --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["kato1", "kato2", "product"])
def test_check_identity_kinds_pass(runner, tmp_path, kind):
    _, gpath = _write_graph(tmp_path, "complete", n=3)
    out = tmp_path / "report.json"
    result = _invoke(
        runner,
        ["check", kind, "--graph", str(gpath), "--trials", "200", "--seed", "7", "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["trials"] == 200
    assert report["min_slack"] >= -1e-12


def test_check_product_min_residual(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "path", n=3)
    out = tmp_path / "report.json"
    result = _invoke(
        runner, ["check", "product", "--graph", str(gpath), "--trials", "100", "-o", str(out)]
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["min_slack"] >= -1e-12


def test_check_gradient_estimate_and_max_principle(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "gnp", n=12, p=0.4, seed=3)
    for kind in ("gradient-estimate", "max-principle"):
        out = tmp_path / f"{kind}.json"
        result = _invoke(
            runner,
            ["check", kind, "--graph", str(gpath), "--trials", "100", "--seed", "1", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["pass"] is True
    mp = json.loads((tmp_path / "max-principle.json").read_text())
    assert "violation" not in mp["outcomes"]
    assert mp["outcomes"].get("not_subharmonic", 0) > 0


def test_check_liouville(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "complete", n=4)
    out = tmp_path / "liouville.json"
    result = _invoke(
        runner,
        [
            "check", "liouville", "--graph", str(gpath), "--trials", "200",
            "--seed", "5", "--p", "2.0", "--bound", "1.0", "--steps", "150",
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["search"]["counterexample"] is None


def test_check_missing_graph_exit_2(runner):
    result = runner.invoke(main, ["check", "kato1", "--graph", "missing.edges"])
    assert result.exit_code == 2


def test_check_deterministic_output_bytes(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "cycle", n=6)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        result = _invoke(
            runner,
            ["check", "kato1", "--graph", str(gpath), "--trials", "50", "--seed", "11", "-o", str(out)],
        )
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# SHA-256 of the check report files on a weighted 12x12 grid (20 trials,
# seed 4), recorded with the dict-based certificate reports
CHECK_REPORT_SHA256 = {
    "kato1": "f41dcd55dd0c4d2f9b3e68bb3355148369294af84f5fe16692a7c0b245579773",
    "kato2": "e29f061bf212be585a923834f505414dfab5f308af50482bf48f3a7d5459d613",
    "product": "430afcef232bc36bae7a6e6d8b8d3fb5e5e7b2f75fa290adafc7e3b571f61379",
    "gradient-estimate": "e347cc0b1c94c61638135bd9bb343effe67761bcbfb88a3a7077228c02d64762",
}


@pytest.mark.parametrize("kind", sorted(CHECK_REPORT_SHA256))
def test_check_report_bytes_match_recorded(runner, tmp_path, monkeypatch, kind):
    g = gc.generate(
        "grid2d", rows=12, cols=12, seed=5, weight_sampler=lambda r, m: r.uniform(0.2, 3.0, m)
    )
    gc.write_edge_list(g, tmp_path / "grid.edges")
    # the report records the graph path, so run from its directory
    monkeypatch.chdir(tmp_path)
    result = _invoke(
        runner,
        ["check", kind, "--graph", "grid.edges", "--trials", "20", "--seed", "4", "-o", "report.json"],
    )
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == CHECK_REPORT_SHA256[kind]


# -- solve --------------------------------------------------------------------------


def test_solve_gl_ones_immediate(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "complete", n=5)
    out = tmp_path / "sol.json"
    result = _invoke(
        runner, ["solve", "gl", "--graph", str(gpath), "--init", "ones", "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    g = gc.read_edge_list(gpath)
    u = gc.read_vertex_function(out, g)
    assert np.all(u.values == 1.0)
    report = json.loads((tmp_path / "sol.json.report.json").read_text())
    assert report["converged"] is True and report["iterations"] == 0
    cert = json.loads((tmp_path / "sol.json.cert.json").read_text())
    assert cert["pass"] is True


def test_solve_gl_random_bounded(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "complete", n=5)
    out = tmp_path / "sol.json"
    result = _invoke(
        runner,
        ["solve", "gl", "--graph", str(gpath), "--init", "random", "--seed", "1",
         "--tol", "1e-10", "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    g = gc.read_edge_list(gpath)
    u = gc.read_vertex_function(out, g)
    assert float(np.max(np.abs(u.values))) <= 1.0 + 1e-9


def test_solve_gl_no_convergence_exit_1(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "complete", n=4)
    out = tmp_path / "sol.json"
    result = runner.invoke(
        main,
        ["solve", "gl", "--graph", str(gpath), "--init", "random", "--seed", "2",
         "--max-iters", "0", "-o", str(out)],
    )
    assert result.exit_code == 1
    report = json.loads((tmp_path / "sol.json.report.json").read_text())
    assert report["converged"] is False


def test_solve_schrodinger_stationary_hand_case(runner, tmp_path):
    g = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    gpath = tmp_path / "p3.edges"
    gc.write_edge_list(g, gpath)
    out = tmp_path / "sol.json"
    result = _invoke(
        runner,
        ["solve", "schrodinger-stationary", "--graph", str(gpath),
         "--Q", "zero", "--f", "zero", "--dirichlet", "a=0,c=1", "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    u = gc.read_vertex_function(out, g)
    assert u["b"] == pytest.approx(0.5, abs=1e-12)


def test_solve_bad_dirichlet_exit_2(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "path", n=3)
    result = runner.invoke(
        main,
        ["solve", "schrodinger-stationary", "--graph", str(gpath), "--dirichlet", "a=zz"],
    )
    assert result.exit_code == 2


def test_solve_gl_with_config_file(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "complete", n=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"tol": 1e-11, "max_iters": 50000, "damping": 0.2, "seed": 9}')
    out = tmp_path / "sol.json"
    result = _invoke(
        runner,
        ["solve", "gl", "--graph", str(gpath), "--init", "random",
         "--config", str(cfg_path), "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "sol.json.report.json").read_text())
    assert report["final_residual"] <= 1e-11
    manifest = json.loads((tmp_path / "sol.json.manifest.json").read_text())
    assert manifest["config"]["solver"]["seed"] == 9


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "gl", "--tol", "inf"],
        ["solve", "gl", "--tol", "nan"],
        # f = 1 is incompatible with the pure-Neumann system: sum d_x f(x) = 48
        ["solve", "schrodinger-stationary", "--f", "ones.json", "--tol", "inf"],
        ["solve", "schrodinger-stationary", "--f", "ones.json", "--tol", "nan"],
        ["check", "kato1", "--tol", "nan"],
        ["check", "kato1", "--tol", "inf"],
        ["check", "liouville", "--p", "nan"],
        ["check", "liouville", "--p", "inf"],
        ["check", "liouville", "--bound", "inf"],
    ],
    ids=lambda args: "-".join(a.lstrip("-") for a in args if not a.endswith(".json")),
)
def test_non_finite_parameter_exit_2(runner, tmp_path, monkeypatch, args):
    g, gpath = _write_graph(tmp_path, "grid2d", rows=4, cols=4)
    gc.write_vertex_function(gc.VertexFunction.constant(g, 1.0), tmp_path / "ones.json")
    monkeypatch.chdir(tmp_path)
    extra = ["--trials", "3", "--steps", "20"] if args[0] == "check" else []
    result = runner.invoke(main, [*args[:2], "--graph", "g.edges", *extra, *args[2:]])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert args[-1] in result.output


# -- evolve --------------------------------------------------------------------------


def _write_u0(tmp_path, g, values):
    u0 = gc.VertexFunction(g.vertices, values)
    path = tmp_path / "u0.json"
    gc.write_vertex_function(u0, path)
    return path


def test_evolve_schrodinger_conserves(runner, tmp_path):
    g, gpath = _write_graph(tmp_path, "complete", n=3)
    rng = np.random.default_rng(1)
    u0_path = _write_u0(tmp_path, g, rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    trace = tmp_path / "trace.csv"
    out = tmp_path / "final.json"
    result = _invoke(
        runner,
        ["evolve", "schrodinger", "--graph", str(gpath), "--u0", str(u0_path),
         "--dt", "0.01", "--steps", "200", "--trace", str(trace), "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    tr = gc.EvolutionTrace.read_csv(trace)
    m = np.array(tr.mass)
    assert np.max(np.abs(m - m[0])) <= 1e-10 * m[0]


def test_evolve_heat_constant_trace_rows_identical(runner, tmp_path):
    g, gpath = _write_graph(tmp_path, "cycle", n=4)
    u0_path = _write_u0(tmp_path, g, np.full(4, 2.0))
    trace = tmp_path / "trace.csv"
    result = _invoke(
        runner,
        ["evolve", "heat", "--graph", str(gpath), "--u0", str(u0_path),
         "--dt", "0.5", "--steps", "5", "--trace", str(trace), "-o", str(tmp_path / "f.json")],
    )
    assert result.exit_code == 0, result.output
    rows = trace.read_text().splitlines()[1:]
    cols = [r.split(",")[2:] for r in rows]  # drop step and t columns
    assert all(c == cols[0] for c in cols)


def test_evolve_heat_complex_input_exit_2(runner, tmp_path):
    g, gpath = _write_graph(tmp_path, "cycle", n=4)
    u0_path = _write_u0(tmp_path, g, np.full(4, 1.0 + 1j))
    result = runner.invoke(
        main,
        ["evolve", "heat", "--graph", str(gpath), "--u0", str(u0_path),
         "--dt", "0.5", "--steps", "2", "--trace", str(tmp_path / "t.csv")],
    )
    assert result.exit_code == 2


def test_evolve_gp_runs(runner, tmp_path):
    g, gpath = _write_graph(tmp_path, "complete", n=3)
    rng = np.random.default_rng(2)
    u0_path = _write_u0(tmp_path, g, rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    trace = tmp_path / "trace.csv"
    result = _invoke(
        runner,
        ["evolve", "gp", "--graph", str(gpath), "--u0", str(u0_path),
         "--dt", "0.01", "--steps", "100", "--trace", str(trace), "-o", str(tmp_path / "f.json")],
    )
    assert result.exit_code == 0, result.output
    tr = gc.EvolutionTrace.read_csv(trace)
    m = np.array(tr.mass)
    assert np.max(np.abs(m - m[0])) <= 1e-10 * m[0]


def test_evolve_mismatched_u0_exit_2(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "cycle", n=4)
    other = gc.generate("path", n=3)
    u0_path = tmp_path / "u0.json"
    gc.write_vertex_function(gc.VertexFunction.constant(other, 1.0), u0_path)
    result = runner.invoke(
        main,
        ["evolve", "heat", "--graph", str(gpath), "--u0", str(u0_path),
         "--dt", "0.1", "--steps", "2", "--trace", str(tmp_path / "t.csv")],
    )
    assert result.exit_code == 2


def test_evolve_trace_deterministic_bytes(runner, tmp_path):
    g, gpath = _write_graph(tmp_path, "complete", n=3)
    rng = np.random.default_rng(5)
    u0_path = _write_u0(tmp_path, g, rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    traces = []
    for name in ("t1.csv", "t2.csv"):
        trace = tmp_path / name
        result = _invoke(
            runner,
            ["evolve", "schrodinger", "--graph", str(gpath), "--u0", str(u0_path),
             "--dt", "0.02", "--steps", "50", "--trace", str(trace), "-o", str(tmp_path / "f.json")],
        )
        assert result.exit_code == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]


def test_solve_gl_deterministic_solution_bytes(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "gnp", n=10, p=0.4, seed=2)
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        result = _invoke(
            runner,
            ["solve", "gl", "--graph", str(gpath), "--init", "random", "--seed", "4", "-o", str(out)],
        )
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_malformed_edge_file_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b not-a-number\n")
    result = runner.invoke(main, ["check", "kato1", "--graph", str(bad), "--trials", "5"])
    assert result.exit_code == 2
    bad.write_text("a a 1.0\n")
    result = runner.invoke(main, ["check", "kato1", "--graph", str(bad), "--trials", "5"])
    assert result.exit_code == 2


def test_version_flag(runner):
    result = _invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert gc.__version__ in result.output


# -- which commands load scipy ------------------------------------------------------

# Runs the CLI entry point in a fresh interpreter and reports, after main()
# returns, its exit status and every scipy module the process imported.
_SCIPY_PROBE = """
import json, sys
from graphcalc.cli import CHECK_KINDS, main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(json.dumps({"exit": status, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _run_cli_subprocess(args, cwd):
    src = str(Path(gc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def small_grid(tmp_path):
    g, gpath = _write_graph(tmp_path, "grid2d", rows=4, cols=4)
    return g, str(gpath)


@pytest.mark.parametrize(
    "args",
    [
        ["--version"],
        ["gen", "--family", "grid2d", "--rows", "4", "--cols", "4", "-o", "gen.edges"],
        *(["check", kind, "--trials", "3"] for kind in CHECK_KINDS if kind != "liouville"),
        ["check", "liouville", "--trials", "3", "--steps", "20"],
    ],
    ids=lambda args: "-".join(a for a in args[:2] if not a.startswith("-")) or "version",
)
def test_commands_without_solver_do_not_import_scipy(tmp_path, small_grid, args):
    if args[0] == "check":
        args = [*args, "--graph", small_grid[1], "-o", "report.json"]
    result = _run_cli_subprocess(args, tmp_path)
    assert result["exit"] == 0
    assert result["scipy"] == []


def test_solver_commands_still_run_in_scipy_probe(tmp_path, small_grid):
    g, gpath = small_grid
    result = _run_cli_subprocess(
        ["solve", "gl", "--graph", gpath, "--init", "random", "--seed", "1", "-o", "gl.json"], tmp_path
    )
    assert result["exit"] == 0
    assert "scipy.sparse.linalg" in result["scipy"]
    u0 = tmp_path / "u0.json"
    gc.write_vertex_function(gc.random_vertex_function(g, np.random.default_rng(0)), u0)
    result = _run_cli_subprocess(
        ["evolve", "heat", "--graph", gpath, "--u0", str(u0), "--dt", "0.1", "--steps", "5",
         "--trace", "trace.csv", "-o", "final.json"],
        tmp_path,
    )
    assert result["exit"] == 0
    assert "scipy.sparse.linalg" in result["scipy"]
