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
from graphcalc import cli
from graphcalc.calculus import CertificateReport
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


@pytest.mark.parametrize("size", [0, 6, 7, 8, 70, 1000])
def test_digest_in_blocks_equals_whole_file_hash(tmp_path, size):
    # an empty file and files of several sizes
    path = tmp_path / "f.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert cli._digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_bad_params_exit_2(runner, tmp_path):
    result = runner.invoke(
        main, ["gen", "--family", "path", "--n", "1", "-o", str(tmp_path / "x.edges")]
    )
    assert result.exit_code == 2


# SHA-256 of `graphcalc gen` output, recorded while generators still built
# their graphs from (x, y, mu) record lists; gnp seed 3 redraws its first
# sample, which has an isolated vertex
GEN_SHA256 = {
    "path": (["--family", "path", "--n", "40"],
             "00cff5d9698bf7345d64ec27e2a5a73fc84308a2fb346b5d1cb368395a4ace27"),
    "cycle": (["--family", "cycle", "--n", "37", "--weight", "2.5"],
              "1df16a3e4b5463ddb0cc4237d5ba5e43209098074eebcc5c403854a01f2f9e54"),
    "complete": (["--family", "complete", "--n", "12", "--weight", "0.75"],
                 "7c2bc3515d001249f15bf556723059d22a028e62a33a0e77211191222bf56088"),
    "star": (["--family", "star", "--n", "25", "--weight", "3"],
             "67c7514b8ad840826edb294687d63e32eea12f5e8c64c587f32269615eb59fb6"),
    "grid7x13": (["--family", "grid2d", "--rows", "7", "--cols", "13", "--weight", "1.5"],
                 "705ccedb6f233bb849a4c9d05d3f7ad26f91402f682e132cfc39bf1b0e9154ac"),
    "grid300": (["--family", "grid2d", "--rows", "300", "--cols", "300"],
                "1e2ba05c1ab0a06fbfd21e77a367f90d588a7702b7953ae9b17bc9f73ccd18e2"),
    "gnp2000-s1": (["--family", "gnp", "--n", "2000", "--p", "0.005", "--seed", "1"],
                   "47333024c4548fdbd7e1d5ec8529b346eaaf753580deb929e88a56d827c5a88a"),
    "gnp2000-s3": (["--family", "gnp", "--n", "2000", "--p", "0.005", "--seed", "3"],
                   "872131bcc4e4ca4ea8cec64d3b8afbf0025120b6b29abd54769cbec76c839327"),
}


@pytest.mark.parametrize("name", list(GEN_SHA256))
def test_gen_output_bytes_match_recorded(runner, tmp_path, name):
    args, expected = GEN_SHA256[name]
    out = tmp_path / "g.edges"
    result = _invoke(runner, ["gen", *args, "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


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


def test_check_liouville_operator_above_the_limit_exit_2(runner, tmp_path, monkeypatch):
    _, gpath = _write_graph(tmp_path, "gnp", n=20, p=0.3, seed=42)
    monkeypatch.setattr(gc.elliptic, "LIOUVILLE_MAX_OPERATOR_BYTES", 3199)
    result = runner.invoke(main, ["check", "liouville", "--graph", str(gpath), "--trials", "3"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith("error: ") and "n = 20" in line and "3200 bytes" in line


def test_check_missing_graph_exit_2(runner):
    result = runner.invoke(main, ["check", "kato1", "--graph", "missing.edges"])
    assert result.exit_code == 2


def test_check_zero_trials_exit_2(runner, tmp_path):
    _, gpath = _write_graph(tmp_path, "path", n=3)
    result = runner.invoke(main, ["check", "kato1", "--graph", str(gpath), "--trials", "0"])
    assert result.exit_code == 2, result.output
    assert result.output == "error: trials must be >= 1, got 0\n"


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


@pytest.mark.parametrize("kind", sorted(CHECK_REPORT_SHA256))
def test_check_names_the_worst_vertex_once(runner, tmp_path, monkeypatch, kind):
    calls = []
    worst_vertex = CertificateReport.worst_vertex

    def counted(report):
        calls.append(report)
        return worst_vertex(report)

    monkeypatch.setattr(CertificateReport, "worst_vertex", counted)
    _, gpath = _write_graph(tmp_path, "grid2d", rows=5, cols=5)
    out = tmp_path / "report.json"
    result = _invoke(
        runner, ["check", kind, "--graph", str(gpath), "--trials", "7", "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert json.loads(out.read_text())["worst_vertex"] == worst_vertex(calls[0])


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


def test_solve_gl_diverging_streak_exit_0(runner, tmp_path):
    # every value is finite, but a fixed-point streak from this start blows
    # up; kept, its state overflowed and the run exited 2 blaming the input
    g, gpath = _write_graph(tmp_path, "cycle", n=6)
    init = gc.random_vertex_function(g, np.random.default_rng(4), scale=5.0)
    u0 = _write_u0(tmp_path, g, init.values)
    out = tmp_path / "sol.json"
    result = _invoke(runner, ["solve", "gl", "--graph", str(gpath), "--init", str(u0), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "sol.json.cert.json").read_text())["pass"] is True


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
    # a value that is no number, a vertex given twice, and an entry with no =
    for spec in ("a=zz", "v0=1,v0=2,v2=0", "v0"):
        result = runner.invoke(
            main,
            ["solve", "schrodinger-stationary", "--graph", str(gpath), "--dirichlet", spec],
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


def test_solve_gl_config_manifest_records_only_the_tol_used(runner, tmp_path):
    # the file sets no tol, so the run uses SolverConfig's 1e-12; the unread
    # --tol default (1e-10) must not appear beside it
    _, gpath = _write_graph(tmp_path, "path", n=3)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"damping": 0.5}')
    out = tmp_path / "sol.json"
    result = _invoke(
        runner, ["solve", "gl", "--graph", str(gpath), "--config", str(cfg_path), "--seed", "7", "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    config = json.loads((tmp_path / "sol.json.manifest.json").read_text())["config"]
    assert config == {"problem": "gl", "solver": gc.SolverConfig(damping=0.5).to_json_dict()}
    assert config["solver"]["tol"] == 1e-12


@pytest.mark.parametrize(
    "config",
    [
        "[]",
        '{"tolerance": 1e-3}',
        '{"tol": true}',
        '{"tol": "1e-3"}',
        '{"damping": null}',
        '{"max_iters": true}',
        '{"max_iters": 1.5}',
        '{"seed": "x"}',
        '{"seed": 1.5}',
        '{"seed": false}',
    ],
)
def test_solve_gl_unusable_config_exit_2(runner, tmp_path, config):
    _, gpath = _write_graph(tmp_path, "complete", n=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config)
    result = runner.invoke(
        main,
        ["solve", "gl", "--graph", str(gpath), "--config", str(cfg_path), "-o", str(tmp_path / "sol.json")],
    )
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1


# Config files that are no usable JSON: each error names the file
@pytest.mark.parametrize(
    "config",
    ["{bad", '{"max_iters": ' + "1" * 5000 + "}", '{"tol": 1e-10, "tol": 1e-3}'],
    ids=["syntax", "digit-limit", "repeated-key"],
)
def test_solve_gl_invalid_json_config_exit_2(runner, tmp_path, monkeypatch, config):
    _write_graph(tmp_path, "path", n=3)
    (tmp_path / "c.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["solve", "gl", "--graph", "g.edges", "--config", "c.json"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: c.json: invalid JSON (")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize("option, value", [("--tol", "1e-3"), ("--max-iters", "5")])
def test_solve_gl_config_rejects_solver_options(runner, tmp_path, monkeypatch, option, value):
    # the file's settings replace --tol and --max-iters, so the run would not read them
    _write_graph(tmp_path, "path", n=3)
    (tmp_path / "c.json").write_text('{"damping": 0.5}')
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(
        main, ["solve", "gl", "--graph", "g.edges", "--config", "c.json", option, value, "--seed", "7"]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {option} does not apply beside --config")
    assert result.output.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_solve_gl_config_seed_rejects_seed_option(runner, tmp_path, monkeypatch):
    # the file's seed replaces --seed, so the run would not read it
    _write_graph(tmp_path, "path", n=3)
    (tmp_path / "c.json").write_text('{"seed": 7}')
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(main, ["solve", "gl", "--graph", "g.edges", "--config", "c.json", "--seed", "5"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "error: --seed does not apply beside a --config that sets seed\n"
    assert sorted(tmp_path.iterdir()) == before
    # a null seed in the file leaves --seed to the run
    (tmp_path / "c.json").write_text('{"seed": null}')
    result = runner.invoke(main, ["solve", "gl", "--graph", "g.edges", "--config", "c.json", "--seed", "5"])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "solution.json.manifest.json").read_text())["seed"] == 5


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


@pytest.mark.parametrize("kind", ["kato1", "kato2", "product", "gradient-estimate", "max-principle"])
def test_check_negative_tol_exit_2(runner, tmp_path, monkeypatch, kind):
    # a negative tol failed correct kato1|kato2|product|gradient-estimate
    # runs, and let max-principle call a constant function not subharmonic
    _write_graph(tmp_path, "grid2d", rows=6, cols=6)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(main, ["check", kind, "--graph", "g.edges", "--trials", "4", "--tol", "-1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "error: tol must be nonnegative and finite, got -1.0\n"
    assert sorted(tmp_path.iterdir()) == before


_HUGE = "1" * 400  # an integer beyond the double range


# Runs whose input holds a number that is no finite double, or a file of
# the wrong shape, the files they read, and the message
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args, files, message",
    [
        (["solve", "schrodinger-stationary", "--f", "f.json"],
         {"f.json": f'{{"v0": {_HUGE}, "v1": 0, "v2": 0}}'}, "non-finite value at vertex 'v0'"),
        (["evolve", "schrodinger", "--u0", "u.json", "--dt", "0.1", "--steps", "2"],
         {"u.json": f'{{"v0": [1, {_HUGE}], "v1": 0, "v2": 0}}'}, "non-finite value at vertex 'v0'"),
        (["solve", "gl", "--config", "c.json"], {"c.json": f'{{"tol": {_HUGE}}}'},
         "tol must be positive and finite, got inf"),
        (["solve", "schrodinger-stationary", "--dirichlet", "v0=1e400,v2=1"], {},
         "non-finite value at vertex 'v0'"),
        (["solve", "schrodinger-stationary", "--f", "f.json"], {"f.json": "[1, 2]"},
         "f.json: expected a JSON object mapping vertex -> value"),
    ],
    ids=["solve-f", "evolve-u0", "solve-gl-config", "solve-dirichlet", "solve-f-list"],
)
def test_non_finite_input_exit_2(runner, tmp_path, monkeypatch, args, files, message):
    _write_graph(tmp_path, "path", n=3)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, "--graph", "g.edges"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {message}")
    assert result.output.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_overflowing_degree_exit_2(runner, tmp_path, monkeypatch):
    # the degrees of a triangle with weights 1e308 overflow; an infinite degree
    # would make every coefficient mu / d zero and lap identically 0
    (tmp_path / "tri.edges").write_text("a b 1e308\nb c 1e308\na c 1e308\n")
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["check", "kato1", "--graph", "tri.edges", "--trials", "20"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: the degree of vertex 'a' overflows")
    assert result.output.count("\n") == 1


# Runs that give an option their family, kind or problem never reads, and
# the option and choice the error names
@pytest.mark.parametrize(
    "args, option, choice",
    [
        (["check", "kato1", "--p", "nan", "--bound", "-1", "--steps", "-5"], "--p", "kind kato1"),
        (["check", "liouville", "--tol", "7"], "--tol", "kind liouville"),
        (["solve", "gl", "--Q", "/nonexistent.json", "--dirichlet", "zz"], "--Q", "problem gl"),
        (
            ["solve", "schrodinger-stationary", "--config", "/nonexistent.json", "--init", "bogus",
             "--seed", "9"],
            "--init",
            "problem schrodinger-stationary",
        ),
        (["gen", "--family", "path", "--n", "5", "--rows", "3", "--cols", "4", "--p", "0.5", "--seed", "1"],
         "--rows", "family path"),
        (["gen", "--family", "grid2d", "--rows", "3", "--cols", "3", "--n", "99"], "--n", "family grid2d"),
    ],
    ids=["check-kato1", "check-liouville", "solve-gl", "solve-schrodinger-stationary", "gen-path", "gen-grid2d"],
)
def test_unread_option_exit_2(runner, tmp_path, monkeypatch, args, option, choice):
    _write_graph(tmp_path, "path", n=3)
    monkeypatch.chdir(tmp_path)
    extra = ["-o", "out.edges"] if args[0] == "gen" else ["--graph", "g.edges"]
    result = runner.invoke(main, [*args, *extra])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {option} does not apply to {choice}, only to ")
    assert result.output.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges"]


# Arguments after `--graph grid.edges` of solve and check runs whose outputs
# are pinned below; each writes into out/.
PINNED_RUNS = {
    "solve-gl": ["solve", "gl", "--init", "random", "--seed", "3", "-o", "out/sol.json"],
    "solve-dirichlet": [
        "solve", "schrodinger-stationary", "--Q", "q.json", "--f", "f.json",
        "--dirichlet", "r00c00=0,r11c11=1", "-o", "out/sol.json",
    ],
    "solve-neumann": ["solve", "schrodinger-stationary", "--f", "f_neumann.json", "-o", "out/sol.json"],
    "check-max-principle": ["check", "max-principle", "--trials", "20", "--seed", "4", "-o", "out/report.json"],
    "check-liouville": [
        "check", "liouville", "--trials", "20", "--seed", "4", "--steps", "100", "-o", "out/report.json",
    ],
}

# SHA-256 of stdout and of each output file of the PINNED_RUNS (manifests
# without their wall time), recorded before `solve` wrote its outputs from one
# path and `check` ran its trials from one table; solve-neumann's solution,
# report and stdout were re-recorded when the pure-Neumann solve began to pin
# a vertex instead of bordering the system (last-bit changes of u)
PINNED_RUN_SHA256 = {
    "check-liouville": {
        "report.json": "8c96087313adaa86a1cd98f61bd116be5100ab20d3fd4db6dc592eee538b3bef",
        "report.json.manifest.json": "4c257e1927232430a501dbedf10fad490ebae5f45fa6c1d28eff2e85c42cd898",
        "stdout": "1c07d3732194982c9cd9feaf2139bc36235b8ff86983ebfb58bcf9656b5e6285",
    },
    "check-max-principle": {
        "report.json": "7369696eb504cd7765e9f1ec78c765753fe6400ecfa1ffb47f0a171ac7961be7",
        "report.json.manifest.json": "b560ecc67eff15acafd556d250e23516000cbacfd0c41b5ad341b6fa4885a2a3",
        "stdout": "ea564cb8b955ba8893537525a24139c29f637770fb0703725b7400e857343957",
    },
    "solve-dirichlet": {
        "sol.json": "088513c894afa9e0bba99e479c5d141851db7dfbc09c50345c68ca0960e60331",
        "sol.json.manifest.json": "b9d6363fb90e28e1c8ff259a3703135414df87063ca0e820246dfa431161afcd",
        "sol.json.report.json": "bf1258c927ea6bd0637197b7ba5e61a185fa3a80536ece29544bdef6e7e321d1",
        "stdout": "79f24be4e043a27fe2d9495c4463abb803e50d655352c01189da7d38c60ac816",
    },
    "solve-gl": {
        "sol.json": "bbb462115146ed3997f35af68520d071de66fb9390cd083dae44940e550a3a97",
        "sol.json.cert.json": "f8a91fd95ab26e7468ed75be02d7fc1529ec8f484c5671224c0d7ff5b7e7784e",
        "sol.json.manifest.json": "b35ca21517f385f6ed30894674a8d91c400425f8ab2aeebb687525f00738c774",
        "sol.json.report.json": "dfa2cef134983f4bc80a48908ca452465708a25f8180ac01068555aba18211c6",
        "stdout": "8e77446fa363882a1268c864dabe2a3f5311d7ca33c6d9c4eb35cc5527460fab",
    },
    "solve-neumann": {
        "sol.json": "152d106aa9ea1ee2eb656686836aebc02bffe333fe85cf74c5b003275f08f40c",
        "sol.json.manifest.json": "e7cf6510b2ddb3ee6fdbcf90950f4717120f2a8bbb3de6e51d3520e171405d20",
        "sol.json.report.json": "46b8816e88c0f6a9ee3d93d3834a53022ac409ae91ec1300e17c31e6ff1d4a39",
        "stdout": "d2c19e39cb92a94d9395b15438c541a8eeca2fe763bb7f29b9e6837507ceccdd",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_solve_and_check_outputs_match_recorded(runner, tmp_path, monkeypatch, name):
    g = gc.generate(
        "grid2d", rows=12, cols=12, seed=5, weight_sampler=lambda r, m: r.uniform(0.2, 3.0, m)
    )
    gc.write_edge_list(g, tmp_path / "grid.edges")
    rng = np.random.default_rng(6)
    f = rng.uniform(-1.0, 1.0, g.n_vertices)
    # pure Neumann data must satisfy sum_x d_x f(x) = 0
    f_neumann = f - np.dot(g.degrees, f) / np.sum(g.degrees)
    for fname, values in (("q.json", rng.uniform(0.0, 2.0, g.n_vertices)), ("f.json", f),
                          ("f_neumann.json", f_neumann)):
        gc.write_vertex_function(gc.VertexFunction(g.vertices, values), tmp_path / fname)
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    args = PINNED_RUNS[name]
    result = _invoke(runner, [*args[:2], "--graph", "grid.edges", *args[2:]])
    assert result.exit_code == 0, result.output
    digests = {"stdout": hashlib.sha256(result.stdout.encode()).hexdigest()}
    for fname, data in _output_files(tmp_path / "out").items():
        digests[fname] = hashlib.sha256(data).hexdigest()
    assert digests == PINNED_RUN_SHA256[name]


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the heat certificate fails on a plateau that falls "
    "by less than one ulp per step",
)
def test_evolve_heat_plateau_passes(runner, tmp_path):
    g, gpath = _write_graph(tmp_path, "path", n=100)
    u0_path = _write_u0(tmp_path, g, np.where(np.arange(100) < 60, 1.0, 0.0))  # 1 on v00-v59
    result = runner.invoke(
        main,
        ["evolve", "heat", "--graph", str(gpath), "--u0", str(u0_path), "--dt", "0.1",
         "--steps", "5", "--trace", str(tmp_path / "t.csv"), "-o", str(tmp_path / "f.json")],
    )
    assert result.exit_code == 0, result.output


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


# -- which modules each command loads ----------------------------------------------

# Runs the CLI entry point in a fresh interpreter and reports, after main()
# returns, its exit status, every scipy and graphcalc module the process
# imported, and whether numpy.random was loaded.
_SCIPY_PROBE = """
import json, sys
from graphcalc.cli import CHECK_KINDS, main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(json.dumps({
    "exit": status,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "graphcalc": sorted(m for m in sys.modules if m.startswith("graphcalc.")),
    "numpy.random": "numpy.random" in sys.modules,
}))
"""


def _subprocess_env():
    src = str(Path(gc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_cli_subprocess(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *args],
        cwd=cwd, env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_loads_only_its_modules(args, result):
    """Each command loads only the library modules it runs."""
    if args[0] in ("--version", "gen"):
        unused = {"calculus", "elliptic", "evolution"}
    elif args[0] == "check" and args[1] in ("kato1", "kato2", "product"):
        unused = {"elliptic", "evolution"}
    elif args[0] in ("check", "solve"):
        unused = {"evolution"}
    else:
        unused = {"elliptic"}
    assert not {f"graphcalc.{m}" for m in unused} & set(result["graphcalc"])


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
    _assert_loads_only_its_modules(args, result)
    if args[0] == "gen":  # a fixed family draws nothing
        assert result["numpy.random"] is False


def test_solver_commands_still_run_in_scipy_probe(tmp_path, small_grid):
    g, gpath = small_grid
    u0 = tmp_path / "u0.json"
    gc.write_vertex_function(gc.random_vertex_function(g, np.random.default_rng(0)), u0)
    for args in (
        ["solve", "gl", "--graph", gpath, "--init", "random", "--seed", "1", "-o", "gl.json"],
        ["solve", "schrodinger-stationary", "--graph", gpath, "--dirichlet", "r0c0=1", "-o", "s.json"],
        ["evolve", "heat", "--graph", gpath, "--u0", str(u0), "--dt", "0.1", "--steps", "5",
         "--trace", "trace.csv", "-o", "final.json"],
    ):
        result = _run_cli_subprocess(args, tmp_path)
        assert result["exit"] == 0
        # SuperLU's extension module alone: no scipy package is imported
        assert result["scipy"] == ["scipy.sparse.linalg._dsolve._superlu"]
        _assert_loads_only_its_modules(args, result)


# -- a real process exits as an in-process run does ---------------------------------

# The console-script entry point, spelled out: the package runs from src/.
_ENTRY = "import sys; from graphcalc.cli import main; sys.argv[0] = 'graphcalc'; sys.exit(main())"


def _output_files(directory):
    """{name: bytes} of every file in directory, manifests without their wall time."""
    files = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            assert manifest.pop("wall_time_s") >= 0.0
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.name] = data
    return files


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["check", "kato1", "--trials", "5", "-o", "report.json"], 0),
        (["check", "kato1", "--trials", "5", "--tol", "nan", "-o", "report.json"], 2),
        (["evolve", "heat", "--dt", "0.1", "--steps", "5", "--trace", "trace.csv", "-o", "final.json"], 0),
    ],
    ids=["kato1", "kato1-tol-nan", "evolve-heat"],
)
def test_process_exit_loses_no_output(runner, tmp_path, monkeypatch, args, exit_code):
    # In a real process the exit hook runs (it freezes the collector before
    # shut-down); a CliRunner run in this process never reaches it.
    g, gpath = _write_graph(tmp_path, "grid2d", rows=4, cols=4)
    args = [*args[:2], "--graph", str(gpath), *args[2:]]
    if args[0] == "evolve":
        u0 = tmp_path / "u0.json"
        gc.write_vertex_function(gc.random_vertex_function(g, np.random.default_rng(0)), u0)
        args += ["--u0", str(u0)]
    proc_dir, runner_dir = tmp_path / "process", tmp_path / "runner"
    proc_dir.mkdir()
    runner_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, *args],
        cwd=proc_dir, env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    monkeypatch.chdir(runner_dir)
    result = runner.invoke(main, args, prog_name="graphcalc")
    assert proc.returncode == result.exit_code == exit_code
    assert proc.stdout == result.stdout
    assert proc.stderr == result.stderr
    if exit_code == 2:
        assert proc.stderr.startswith("error: ")
    assert _output_files(proc_dir) == _output_files(runner_dir)


# -- the package's public names load lazily -----------------------------------------

# graphcalc.__all__, pinned from the package's public names by module
_PUBLIC = {
    "graph": [
        "WeightedGraph", "VertexFunction", "build_graph", "generate", "d_constant",
        "random_vertex_function", "read_edge_list", "write_edge_list",
        "read_vertex_function", "write_vertex_function",
    ],
    "calculus": [
        "DEFAULT_TOL", "CertificateReport", "laplacian", "grad_sq", "abs_fn", "pos_part",
        "sign_fn", "sign_plus", "d_inner", "mass", "dirichlet_energy", "free_energy",
        "check_kato1", "check_kato2", "check_product_rule",
    ],
    "elliptic": [
        "Potential", "SolverConfig", "SolveReport", "SpectralPair", "ChainCertificate",
        "ChainOutcome", "MaxPrincipleOutcome", "MaxPrincipleResult", "LiouvilleSearchReport",
        "solve_linear_schrodinger", "solve_ginzburg_landau", "verify_gl_bound",
        "check_subsolution", "verify_gradient_estimate", "check_liouville_premises",
        "keller_osserman_chain", "liouville_search", "check_strong_max_principle",
        "spectrum_smallest",
    ],
    "evolution": [
        "EvolutionConfig", "EvolutionScheme", "EvolutionTrace", "MaxPrincipleDiag",
        "evolve_heat", "schrodinger_evolve", "schrodinger_step", "gp_evolve",
        "check_parabolic_max",
    ],
    "errors": [
        "GraphCalcError", "SelfLoopError", "DuplicateEdgeError", "NonPositiveWeightError",
        "DisconnectedError", "DisconnectedDrawError", "BadParamsError", "DomainMismatchError",
        "NonFiniteValueError", "ComplexNotAllowedError", "SingularSystemError",
        "IncompatibleRHSError", "SingularJacobianError", "NotASolutionError",
        "NegativeInputError", "BadStartError", "ConvergenceFailureError",
        "LinearSolveFailureError", "FileFormatError",
    ],
}

_LAZY_PACKAGE_PROBE = """
import importlib, json, sys, warnings
warnings.simplefilter("error")
import graphcalc
public = json.loads(sys.argv[1])
loaded = sorted(m for m in sys.modules if m.startswith("graphcalc.") or m.split(".")[0] == "numpy")
assert loaded == [], loaded
assert graphcalc.__all__ == ["__version__", *(n for names in public.values() for n in names)]
assert graphcalc.graph.GNP_RETRY_BUDGET > 0
for module, names in public.items():
    mod = importlib.import_module(f"graphcalc.{module}")
    for name in names:
        assert getattr(graphcalc, name) is getattr(mod, name), name
namespace = {}
exec("from graphcalc import *", namespace)
assert set(graphcalc.__all__) <= set(namespace)
assert set(graphcalc.__all__) <= set(dir(graphcalc))
try:
    graphcalc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
print("ok")
"""


def test_lazy_package_keeps_its_public_api():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PACKAGE_PROBE, json.dumps(_PUBLIC)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
