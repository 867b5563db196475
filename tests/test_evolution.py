import hashlib

import numpy as np
import pytest

import graphcalc as gc
from conftest import family_corpus
from graphcalc import evolution
from graphcalc.evolution import _implicit_stepper, _step_matrix
from oracles import cn_final_ref, heat_final_ref


def _cfg(scheme, dt=0.1, steps=10, **kw):
    return gc.EvolutionConfig(dt=dt, steps=steps, scheme=scheme, **kw)


# -- config and trace plumbing ------------------------------------------------------


def test_config_validation():
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.EvolutionConfig(dt=dt, steps=5, scheme="heat_implicit")
    for solve_tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.EvolutionConfig(dt=0.1, steps=5, scheme="heat_implicit", solve_tol=solve_tol)
    for count in (0, 2.5, float("nan")):
        with pytest.raises(gc.BadParamsError, match="steps must be an integer"):
            gc.EvolutionConfig(dt=0.1, steps=count, scheme="heat_implicit")
        with pytest.raises(gc.BadParamsError, match="stride must be an integer"):
            gc.EvolutionConfig(dt=0.1, steps=10, scheme="heat_implicit", stride=count)
    with pytest.raises(ValueError):
        gc.EvolutionConfig(dt=0.1, steps=5, scheme="other")
    cfg = gc.EvolutionConfig(dt=0.1, steps=5, scheme="schrodinger_cn")
    assert cfg.scheme is gc.EvolutionScheme.SCHRODINGER_CN
    # a single step checks the same rules, but dt may be negative
    c6 = gc.generate("cycle", n=6)
    u = gc.VertexFunction.constant(c6, 1.0)
    for dt in (0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(gc.BadParamsError, match="dt must be nonzero and finite"):
            gc.schrodinger_step(c6, u, dt)
    for solve_tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError, match="solve_tol must be positive and finite"):
            gc.schrodinger_step(c6, u, 0.1, solve_tol=solve_tol)


def test_scheme_mismatch_rejected(k3):
    u0 = gc.VertexFunction.constant(k3, 1.0)
    with pytest.raises(gc.BadParamsError):
        gc.evolve_heat(k3, u0, _cfg("schrodinger_cn"))
    with pytest.raises(gc.BadParamsError):
        gc.schrodinger_evolve(k3, u0, _cfg("heat_implicit"))
    with pytest.raises(gc.BadParamsError):
        gc.gp_evolve(k3, u0, _cfg("schrodinger_cn"))


def test_trace_rows_and_times(k3):
    u0 = gc.VertexFunction.constant(k3, 1.0)
    _, trace, _ = gc.evolve_heat(k3, u0, _cfg("heat_implicit", dt=0.25, steps=10, stride=3))
    assert trace.steps == [0, 3, 6, 9]
    assert trace.n_rows() == 10 // 3 + 1
    for s, t in zip(trace.steps, trace.times):
        assert t == s * 0.25


def test_trace_csv_round_trip(tmp_path, k3):
    rng = np.random.default_rng(0)
    u0 = gc.random_vertex_function(k3, rng, complex_values=True)
    _, trace = gc.schrodinger_evolve(k3, u0, _cfg("schrodinger_cn", steps=7))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "step,t,mass,dirichlet_energy,free_energy,max_abs"
    assert len(text) == 9
    back = gc.EvolutionTrace.read_csv(path)
    assert back.steps == trace.steps
    assert back.mass == trace.mass  # 17 digits round-trips exactly
    assert back.free_energy == trace.free_energy


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(gc.FileFormatError):
        gc.EvolutionTrace.read_csv(path)
    # a cell that does not parse is a bad row, as a wrong count of cells is
    header = "step,t,mass,dirichlet_energy,free_energy,max_abs\n"
    for row in ("0,abc,1,1,1,1", "0,1,1,1,1", "0,1,1,1,1,1,1"):
        path.write_text(header + row + "\n")
        with pytest.raises(gc.FileFormatError, match="bad row"):
            gc.EvolutionTrace.read_csv(path)


# -- heat ---------------------------------------------------------------------------


def test_heat_constant_is_equilibrium(k3):
    u0 = gc.VertexFunction.constant(k3, 2.5)
    final, trace, diag = gc.evolve_heat(k3, u0, _cfg("heat_implicit", steps=20))
    assert np.array_equal(final.values, u0.values)
    assert diag.monotone
    assert max(trace.mass) == min(trace.mass)


def test_heat_rejects_complex(k3):
    u0 = gc.VertexFunction.constant(k3, 1j)
    with pytest.raises(gc.ComplexNotAllowedError):
        gc.evolve_heat(k3, u0, _cfg("heat_implicit"))


def test_heat_c3_converges_to_mean(c3):
    u0 = gc.VertexFunction.from_dict(c3, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    final, trace, diag = gc.evolve_heat(c3, u0, _cfg("heat_implicit", dt=0.5, steps=60))
    assert np.max(np.abs(final.values - 1.0 / 3.0)) <= 1e-8
    assert diag.monotone
    # max envelope strictly decreasing until equilibrium
    diffs = np.diff(diag.max_values)
    assert np.all(diffs <= 1e-12)
    assert diffs[0] < 0


def test_heat_matches_dense_oracle(c3):
    u0_vals = np.array([0.0, 1.0, 0.0])
    u0 = gc.VertexFunction(c3.vertices, u0_vals)
    final, _, _ = gc.evolve_heat(c3, u0, _cfg("heat_implicit", dt=0.3, steps=15))
    ref = heat_final_ref(c3, u0_vals, 0.3, 15)
    assert np.max(np.abs(final.values - ref)) <= 1e-12


def test_heat_mean_conserved_and_envelopes():
    rng = np.random.default_rng(11)
    for _, g in family_corpus(2):
        u0 = gc.random_vertex_function(g, rng)
        final, trace, diag = gc.evolve_heat(g, u0, _cfg("heat_implicit", dt=0.2, steps=50))
        m0 = float(np.sum(g.degrees * u0.values))
        m1 = float(np.sum(g.degrees * final.values))
        assert abs(m1 - m0) <= 1e-10 * max(1.0, abs(m0))
        assert diag.monotone
        assert diag.first_violation_step is None


def test_check_parabolic_max_constant_run(k3):
    u0 = gc.VertexFunction.constant(k3, 1.0)
    _, _, diag = gc.evolve_heat(k3, u0, _cfg("heat_implicit", steps=5))
    report = gc.check_parabolic_max(diag)
    assert report.passed
    assert all(abs(s) <= 1e-15 for s in report.slack.values())


def test_check_parabolic_max_decaying_run(c3):
    u0 = gc.VertexFunction.from_dict(c3, {"v0": 0.0, "v1": 1.0, "v2": 0.0})
    _, _, diag = gc.evolve_heat(c3, u0, _cfg("heat_implicit", dt=0.5, steps=30))
    report = gc.check_parabolic_max(diag)
    assert report.passed
    assert report.slack["max[01]"] > 0
    assert not report.info["interior_sup_violation"]


def test_check_parabolic_max_flags_synthetic_violation():
    # a fabricated envelope whose interior step attains the global sup
    diag = gc.MaxPrincipleDiag(max_values=(1.0, 1.0, 0.5), min_values=(0.0, 0.0, 0.0), tol=1e-12)
    assert diag.monotone
    report = gc.check_parabolic_max(diag)
    assert not report.passed
    assert report.info["interior_sup_violation"]
    assert report.info["violating_step"] == 1
    assert report.slack["interior_sup[1]"] < 0
    assert report.min_slack == min(report.slack.values())


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the envelopes alone cannot tell a plateau that falls "
    "by less than one ulp from a max that is attained again",
)
def test_check_parabolic_max_plateau_passes():
    g = gc.generate("path", n=100)
    u0 = gc.VertexFunction(g.vertices, np.where(np.arange(100) < 60, 1.0, 0.0))  # 1 on v00-v59
    _, _, diag = gc.evolve_heat(g, u0, _cfg("heat_implicit", dt=0.1, steps=5))
    assert diag.monotone
    assert gc.check_parabolic_max(diag).passed


def test_max_principle_diag_derives_its_verdict():
    # a rise or fall beyond tol is a violation; one within tol is not
    flat = gc.MaxPrincipleDiag(max_values=(1.0, 1.0 + 1e-13), min_values=(0.0, -1e-13), tol=1e-12)
    assert flat.monotone and flat.first_violation_step is None
    rise = gc.MaxPrincipleDiag(max_values=(1.0, 0.9, 1.0), min_values=(0.0, 0.0, 0.0), tol=1e-12)
    assert not rise.monotone and rise.first_violation_step == 2
    fall = gc.MaxPrincipleDiag(max_values=(1.0, 1.0, 1.0), min_values=(0.0, -0.1, -0.2), tol=1e-12)
    assert not fall.monotone and fall.first_violation_step == 1
    # a fall of one ulp beyond tol, as the certificate computes the slack
    ulp = gc.MaxPrincipleDiag(max_values=(13.0, 8.0), min_values=(3.0, 2.999999999999), tol=1e-12)
    assert not ulp.monotone and ulp.first_violation_step == 1
    assert not gc.check_parabolic_max(ulp).passed
    # the certificate checks at the diag's tol: a rise of 0.1 is within 0.5,
    # and a spread of 0.2 is no interior sup
    wide = gc.MaxPrincipleDiag(max_values=(1.0, 1.1), min_values=(0.0, 0.9), tol=0.5)
    assert wide.monotone
    report = gc.check_parabolic_max(wide)
    assert report.passed and report.tol == 0.5
    assert list(report.slack) == ["max[1]", "min[1]"]
    # at tol 0 any rise is a violation
    exact = gc.MaxPrincipleDiag(max_values=(1.0, 1.0 + 1e-13), min_values=(0.0, 0.0), tol=0.0)
    assert not exact.monotone and exact.first_violation_step == 1
    assert not gc.check_parabolic_max(exact).passed
    # the diag's first violation is the certificate's first envelope entry below -tol
    for diag in (rise, fall, ulp, exact):
        report = gc.check_parabolic_max(diag)
        bad = [key for key, slack in report.slack.items() if key[:3] in ("max", "min") and slack < -diag.tol]
        assert diag.first_violation_step == int(bad[0][4:-1])


def test_check_parabolic_max_tiny_dt_spike_passes():
    # the max falls by ~1e-13 per step, below tol: a decrease all the same
    g = gc.generate("path", n=5)
    u0 = gc.VertexFunction(g.vertices, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    _, _, diag = gc.evolve_heat(g, u0, _cfg("heat_implicit", dt=1e-13, steps=5))
    assert diag.monotone
    assert all(b < a for a, b in zip(diag.max_values, diag.max_values[1:]))
    report = gc.check_parabolic_max(diag)
    assert report.passed
    assert not report.info["interior_sup_violation"]
    assert report.info["violating_step"] is None


def test_parabolic_random_corpus_passes():
    rng = np.random.default_rng(13)
    for _, g in family_corpus(1):
        u0 = gc.random_vertex_function(g, rng)
        _, _, diag = gc.evolve_heat(g, u0, _cfg("heat_implicit", dt=0.4, steps=40))
        assert gc.check_parabolic_max(diag).passed


# -- Schrodinger ----------------------------------------------------------------------


def test_cn_constant_is_kernel_state(k3):
    u0 = gc.VertexFunction.constant(k3, 1.0 + 0.5j)
    final, trace = gc.schrodinger_evolve(k3, u0, _cfg("schrodinger_cn", steps=25))
    assert np.array_equal(final.values, u0.values)


def test_cn_conserves_mass_and_energy(k3):
    rng = np.random.default_rng(2)
    u0 = gc.random_vertex_function(k3, rng, complex_values=True)
    _, trace = gc.schrodinger_evolve(k3, u0, _cfg("schrodinger_cn", dt=0.01, steps=1000))
    m = np.array(trace.mass)
    e = np.array(trace.dirichlet_energy)
    assert np.max(np.abs(m - m[0])) <= 1e-10 * m[0]
    assert np.max(np.abs(e - e[0])) <= 1e-10 * max(1.0, e[0])


def test_cn_matches_dense_oracle(c3):
    rng = np.random.default_rng(8)
    u0 = gc.random_vertex_function(c3, rng, complex_values=True)
    final, _ = gc.schrodinger_evolve(c3, u0, _cfg("schrodinger_cn", dt=0.05, steps=40))
    ref = cn_final_ref(c3, u0.values, 0.05, 40)
    assert np.max(np.abs(final.values - ref)) <= 1e-11


def test_cn_single_step_reversible(k5):
    rng = np.random.default_rng(4)
    u0 = gc.random_vertex_function(k5, rng, complex_values=True)
    u1 = gc.schrodinger_step(k5, u0, 0.01)
    u2 = gc.schrodinger_step(k5, u1, -0.01)
    assert np.max(np.abs(u2.values - u0.values)) <= 1e-9


def test_cn_full_run_reversible(c3):
    rng = np.random.default_rng(6)
    u0 = gc.random_vertex_function(c3, rng, complex_values=True)
    fwd, _ = gc.schrodinger_evolve(c3, u0, _cfg("schrodinger_cn", dt=0.02, steps=100))
    v = fwd
    for _ in range(100):
        v = gc.schrodinger_step(c3, v, -0.02)
    assert np.max(np.abs(v.values - u0.values)) <= 1e-9


def test_cn_real_input_promoted(k3):
    u0 = gc.VertexFunction.constant(k3, 1.0)
    final, _ = gc.schrodinger_evolve(k3, u0, _cfg("schrodinger_cn", steps=3))
    assert final.is_complex


def test_schrodinger_step_rejects_zero_dt(k3):
    with pytest.raises(gc.BadParamsError):
        gc.schrodinger_step(k3, gc.VertexFunction.constant(k3, 1.0), 0.0)


# -- Gross-Pitaevskii -------------------------------------------------------------------


def test_gp_uniform_modulus_state_stationary(k3):
    u0 = gc.VertexFunction.constant(k3, 1.0 + 0j)
    final, trace = gc.gp_evolve(k3, u0, _cfg("gp_strang", dt=0.01, steps=100))
    assert np.array_equal(final.values, u0.values)
    assert np.all(np.array(trace.free_energy) == 0.0)


def test_gp_mass_conserved(c3):
    rng = np.random.default_rng(21)
    u0 = gc.random_vertex_function(c3, rng, complex_values=True)
    _, trace = gc.gp_evolve(c3, u0, _cfg("gp_strang", dt=0.01, steps=1000))
    m = np.array(trace.mass)
    assert np.max(np.abs(m - m[0])) <= 1e-10 * m[0]


def test_gp_free_energy_second_order(k3):
    rng = np.random.default_rng(7)
    u0 = gc.random_vertex_function(k3, rng, complex_values=True)

    def drift(dt):
        steps = int(round(10.0 / dt))
        _, trace = gc.gp_evolve(k3, u0, _cfg("gp_strang", dt=dt, steps=steps))
        f = np.array(trace.free_energy)
        return float(np.max(np.abs(f - f[0])))

    ratio = drift(0.01) / drift(0.005)
    assert 3.2 <= ratio <= 4.8


def test_large_grid_flows_keep_tolerances_across_n_2048():
    # 45x45 and 46x46 grids (n = 2025, 2116) sit on either side of 2048,
    # where the solver once switched from dense LU to GMRES; both must meet
    # the same tolerances, at a step large enough to stress the solve.
    rng = np.random.default_rng(0)
    for rows in (45, 46):
        g = gc.generate("grid2d", rows=rows, cols=rows)
        z0 = gc.random_vertex_function(g, rng, complex_values=True)
        _, trace = gc.schrodinger_evolve(g, z0, _cfg("schrodinger_cn", dt=100.0, steps=50))
        m = np.array(trace.mass)
        e = np.array(trace.dirichlet_energy)
        assert np.max(np.abs(m - m[0])) <= 1e-13 * m[0], rows
        assert np.max(np.abs(e - e[0])) <= 1e-13 * max(1.0, e[0]), rows
        u0 = gc.random_vertex_function(g, rng)
        _, _, diag = gc.evolve_heat(g, u0, _cfg("heat_implicit", dt=0.3, steps=20))
        assert diag.monotone, rows
        assert gc.check_parabolic_max(diag).passed, rows


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dt", [1e308, float("inf")])
def test_degenerate_step_matrix_raises_solve_failure(k3, dt):
    # an infinite dt makes the step matrix exactly singular for the LU; a
    # huge finite one overflows into a non-finite solve. Every entry point
    # rejects an infinite dt, so that case drives the stepper directly.
    u0 = gc.VertexFunction(k3.vertices, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(gc.LinearSolveFailureError):
        _implicit_stepper(k3, dt, dt, 1e-12)(u0.values.copy())
    with pytest.raises(gc.LinearSolveFailureError):
        _implicit_stepper(k3, 1j * dt, 0.5j * dt, 1e-12)(u0.values.astype(np.complex128))
    if np.isfinite(dt):
        with pytest.raises(gc.LinearSolveFailureError):
            gc.schrodinger_step(k3, u0, dt)
        with pytest.raises(gc.LinearSolveFailureError):
            gc.evolve_heat(k3, u0, _cfg("heat_implicit", dt=dt, steps=1))
        with pytest.raises(gc.LinearSolveFailureError):
            gc.schrodinger_evolve(k3, u0, _cfg("schrodinger_cn", dt=dt, steps=1))
    else:
        with pytest.raises(gc.BadParamsError):
            gc.schrodinger_step(k3, u0, dt)


@pytest.mark.parametrize("dt", [0.05, 1.0, 25.0])
def test_step_residual_checks_the_step_matrix(dt, monkeypatch):
    # M = D (I - c lap) with c = dt for heat and i dt/2 for Crank-Nicolson: the
    # residual of each solve is computed from c, so a step matrix built for
    # another c fails the first step, while the matching one passes
    g = gc.generate("grid2d", rows=6, cols=6, seed=1, weight_sampler=lambda r, m: r.uniform(0.5, 2.0, m))
    v = gc.random_vertex_function(g, np.random.default_rng(3)).values
    for b, c in ((dt, dt), (1j * dt, 0.5j * dt)):
        v = v.astype(np.result_type(v, b))
        assert np.all(np.isfinite(_implicit_stepper(g, b, c, 1e-12)(v)))
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "_step_matrix", lambda graph, c_: _step_matrix(graph, 2 * c_))
            with pytest.raises(gc.LinearSolveFailureError, match="residual"):
                _implicit_stepper(g, b, c, 1e-12)(v)


def test_gp_phase_step_preserves_modulus(k3):
    rng = np.random.default_rng(31)
    u0 = gc.random_vertex_function(k3, rng, complex_values=True)
    final, trace = gc.gp_evolve(k3, u0, _cfg("gp_strang", dt=0.05, steps=1))
    # one step: mass identical to round-off even for coarse dt
    assert trace.mass[-1] == pytest.approx(trace.mass[0], rel=1e-13)


def _flow_digests(tmp_path):
    """SHA-256 of each flow's trace CSV, final values and (heat) envelopes."""
    g = gc.generate("gnp", n=9, p=0.5, seed=2, weight_sampler=lambda r, m: r.uniform(0.2, 3.0, m))
    rng = np.random.default_rng(29)
    u = gc.random_vertex_function(g, rng)
    z = gc.random_vertex_function(g, rng, complex_values=True)
    final, trace, diag = gc.evolve_heat(g, u, _cfg("heat_implicit", dt=0.2, steps=12, stride=5))
    runs = {"heat": (trace, final, np.array(diag.max_values + diag.min_values))}
    final, trace = gc.schrodinger_evolve(g, z, _cfg("schrodinger_cn", dt=0.3, steps=10, stride=3))
    runs["schrodinger"] = (trace, final, None)
    final, trace = gc.gp_evolve(g, u, _cfg("gp_strang", dt=0.05, steps=10, stride=2))
    runs["gp"] = (trace, final, None)
    runs["schrodinger_step"] = (None, gc.schrodinger_step(g, z, -0.7), None)
    out = {}
    for name, (trace, final, envelopes) in runs.items():
        if trace is not None:
            trace.write_csv(tmp_path / f"{name}.csv")
            out[f"{name}.trace"] = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
        out[f"{name}.final"] = hashlib.sha256(final.values.tobytes()).hexdigest()
        if envelopes is not None:
            out[f"{name}.envelopes"] = hashlib.sha256(envelopes.tobytes()).hexdigest()
    return g, out


# recorded with separate heat and Crank-Nicolson steppers and a time loop per flow
FLOW_SHA256 = {
    "heat.trace": "4b069d64397a06a58fe52361aad9dc7c5aeec40ea5e4befe125a075e63cc3ef0",
    "heat.final": "df9e94ca8e520ca70febe1639f336882d54b4b2cbc83be7a5983d47503dbc64e",
    "heat.envelopes": "61083f3d10679d62eff828454969ddac1afafe04c6e36b36707057f13222655d",
    "schrodinger.trace": "f1c325b8d76f8649971071633ffe2b6031b2128ba50a057fa3b8ee8b6ce4104b",
    "schrodinger.final": "5bf163a9d66fe9785a71cdb2dbf76725e685039b75844accefa2b061dbd6c131",
    "gp.trace": "01c96d9facbd65d68475b19298e8bc12e10b65cf3984b4b1502dba56a29052c5",
    "gp.final": "a3525e8eb0d7d15cfec11ea53d9c4e7f7ed37944f920ea8fe0cc84b42eb438a7",
    "schrodinger_step.final": "b89643633577bd3890171f70f494f17cdfbec5ac2471cda4cab1c6b02ffd9c9c",
}


def test_flow_outputs_match_recorded_bytes(tmp_path):
    g, digests = _flow_digests(tmp_path)
    # heat's step matrix is (1 + dt) D - dt W: at dt = 0.2 some degree d has
    # (1 + dt) d != d + dt d, so building it as D + dt L would move the digests
    assert np.any((1.0 + 0.2) * g.degrees != g.degrees + 0.2 * g.degrees)
    assert digests == FLOW_SHA256
