import hashlib
import json
import math

import numpy as np
import pytest

import graphcalc as gc
from graphcalc import elliptic
from conftest import family_corpus
from oracles import cap_root_ref, eigenvalues_ref, hitting_time_ref, neumann_ref


# -- linear Schrodinger systems ---------------------------------------------------


def test_positive_potential_zero_rhs_gives_zero(k3):
    u, report = gc.solve_linear_schrodinger(
        k3, gc.Potential(gc.VertexFunction.constant(k3, 1.0)), gc.VertexFunction.constant(k3, 0.0)
    )
    assert report.converged
    assert np.max(np.abs(u.values)) <= 1e-12


def test_harmonic_with_single_dirichlet_is_constant(k5):
    u, report = gc.solve_linear_schrodinger(
        k5, gc.Potential.zero(k5), gc.VertexFunction.constant(k5, 0.0),
        {k5.vertices[0]: 1.0},
    )
    assert report.converged
    assert np.max(np.abs(u.values - 1.0)) <= 1e-12


def test_p3_interpolation_frozen(p3):
    u, report = gc.solve_linear_schrodinger(
        p3, gc.Potential.zero(p3), gc.VertexFunction.constant(p3, 0.0),
        {"a": 0.0, "c": 1.0},
    )
    assert report.converged
    assert u["a"] == 0.0 and u["c"] == 1.0
    assert u["b"] == pytest.approx(0.5, abs=1e-12)


def test_pure_neumann_needs_compatibility(p3):
    f = gc.VertexFunction.constant(p3, 1.0)
    with pytest.raises(gc.IncompatibleRHSError):
        gc.solve_linear_schrodinger(p3, gc.Potential.zero(p3), f)
    # a non-finite tolerance would accept or reject anything
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.solve_linear_schrodinger(p3, gc.Potential.zero(p3), f, tol=tol)


def test_pure_neumann_compatible_solves_with_zero_mean_gauge(p3):
    # degrees (1, 2, 1): f = (1, -1, 1) has zero degree-weighted sum
    f = gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": -1.0, "c": 1.0})
    u, report = gc.solve_linear_schrodinger(p3, gc.Potential.zero(p3), f)
    assert report.converged
    assert abs(np.sum(p3.degrees * u.values)) <= 1e-10
    residual = -gc.laplacian(p3, u).values + 0.0 - f.values
    assert np.max(np.abs(residual)) <= 1e-10


@pytest.mark.parametrize("complex_data", [False, True])
def test_pure_neumann_matches_bordered_reference(complex_data):
    rng = np.random.default_rng(11)
    grid12 = gc.generate(
        "grid2d", rows=12, cols=12, seed=5, weight_sampler=lambda r, m: r.uniform(0.2, 3.0, m)
    )
    for name, g in [*family_corpus(2), ("grid12", grid12)]:
        n = g.n_vertices
        f = rng.uniform(-1.0, 1.0, n) + (1j * rng.uniform(-1.0, 1.0, n) if complex_data else 0.0)
        f -= np.dot(g.degrees, f) / np.sum(g.degrees)
        # a uniform shift of 1e-12 is an incompatibility within the tolerance
        for data in (f, f + 1e-12):
            ref = neumann_ref(g, data)
            u, report = gc.solve_linear_schrodinger(
                g, gc.Potential.zero(g), gc.VertexFunction(g.vertices, data)
            )
            assert report.converged, name
            assert u.is_complex == complex_data
            assert np.max(np.abs(u.values - ref)) <= 1e-10 * np.max(np.abs(ref)), name
            assert abs(np.sum(g.degrees * u.values)) <= 1e-10, name


def _hitting_times(g, target):
    h, report = gc.solve_linear_schrodinger(
        g, gc.Potential.zero(g), gc.VertexFunction.constant(g, 1.0), {target: 0.0}
    )
    assert report.converged
    return h


@pytest.mark.parametrize("n", [5, 12])
def test_hitting_time_across_the_path_is_squared_length(n):
    g = gc.generate("path", n=n)
    far_end = _hitting_times(g, g.vertices[0])[g.vertices[-1]]
    assert far_end == pytest.approx((n - 1) ** 2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [5, 12])
def test_hitting_time_on_complete_graph_is_n_minus_one(n):
    g = gc.generate("complete", n=n)
    h = _hitting_times(g, g.vertices[0]).values
    assert h[0] == 0.0
    assert np.max(np.abs(h[1:] - (n - 1))) <= 1e-12 * (n - 1)


def test_hitting_times_match_exact_rational_solve():
    for name, g in family_corpus(2):
        if g.n_vertices > 8:
            continue
        target = g.vertices[-1]
        h = _hitting_times(g, target)
        for v, exact in hitting_time_ref(g, target).items():
            assert h[v] == pytest.approx(float(exact), rel=1e-12, abs=0.0), (name, v)


@pytest.mark.parametrize("seed", range(10))
def test_random_truncation_solves_to_tolerance(seed):
    rng = np.random.default_rng(seed + 50)
    graphs = family_corpus(2, seed=seed)
    _, g = graphs[int(rng.integers(0, len(graphs)))]
    qvals = np.abs(rng.uniform(0, 2, g.n_vertices))
    Q = gc.Potential(gc.VertexFunction(g.vertices, qvals))
    n_boundary = int(rng.integers(1, g.n_vertices))
    boundary = {
        g.vertices[i]: float(rng.uniform(-1, 1))
        for i in rng.choice(g.n_vertices, size=n_boundary, replace=False)
    }
    f = gc.VertexFunction(g.vertices, rng.uniform(-1, 1, g.n_vertices))
    u, report = gc.solve_linear_schrodinger(g, Q, f, boundary)
    assert report.converged
    for v, val in boundary.items():
        assert u[v] == val
    interior = [v for v in g.vertices if v not in boundary]
    res = -gc.laplacian(g, u).values + qvals * u.values - f.values
    idx = [g.index_of(v) for v in interior]
    assert np.max(np.abs(res[idx])) <= 1e-10 if idx else True


def test_complex_dirichlet_data(p3):
    u, report = gc.solve_linear_schrodinger(
        p3, gc.Potential.zero(p3), gc.VertexFunction.constant(p3, 0.0),
        {"a": 1j, "c": 1.0},
    )
    assert report.converged
    assert u.is_complex
    assert u["b"] == pytest.approx(0.5 + 0.5j, abs=1e-12)


def test_complex_data_same_tolerance_across_n_2048():
    # n = 2025 and n = 2116: one factorization path, so complex data solves
    # to the same tolerance on both sides of 2048
    rng = np.random.default_rng(5)
    for rows in (45, 46):
        g = gc.generate("grid2d", rows=rows, cols=rows)
        n = g.n_vertices
        f = gc.VertexFunction(g.vertices, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        boundary = {g.vertices[0]: 1j, g.vertices[-1]: 1.0}
        u, report = gc.solve_linear_schrodinger(g, gc.Potential.zero(g), f, boundary)
        assert report.converged, rows
        assert report.final_residual <= 1e-10, rows
        assert u.is_complex
        assert u[g.vertices[0]] == 1j and u[g.vertices[-1]] == 1.0


def test_potential_validation(p3):
    with pytest.raises(gc.NegativeInputError):
        gc.Potential(gc.VertexFunction.from_dict(p3, {"a": -0.1, "b": 0.0, "c": 0.0}))
    with pytest.raises(gc.ComplexNotAllowedError):
        gc.Potential(gc.VertexFunction.constant(p3, 1j))


# -- Ginzburg-Landau ----------------------------------------------------------------


def test_gl_constants_recovered_exactly(k3):
    for c in (1.0, -1.0, 0.0):
        init = gc.VertexFunction.constant(k3, c)
        u, report = gc.solve_ginzburg_landau(k3, init)
        assert report.converged and report.iterations == 0
        assert np.array_equal(u.values, init.values)


def test_gl_k5_random_corpus_bounded(k5):
    rng = np.random.default_rng(17)
    for _ in range(50):
        init = gc.VertexFunction(k5.vertices, rng.uniform(-2, 2, 5))
        u, report = gc.solve_ginzburg_landau(k5, init, gc.SolverConfig(tol=1e-10))
        assert report.converged
        assert float(np.max(np.abs(u.values))) <= 1.0 + 1e-9
        assert gc.verify_gl_bound(k5, u, tol=1e-9).passed


def test_gl_complex_corpus(c3):
    rng = np.random.default_rng(23)
    for _ in range(10):
        init = gc.random_vertex_function(c3, rng, complex_values=True, scale=2.0)
        u, report = gc.solve_ginzburg_landau(c3, init)
        assert report.converged
        assert u.is_complex
        assert float(np.max(np.abs(u.values))) <= 1.0 + 1e-9


def test_gl_zero_budget_returns_unconverged(k3):
    init = gc.VertexFunction.constant(k3, 0.5)
    u, report = gc.solve_ginzburg_landau(k3, init, gc.SolverConfig(max_iters=0))
    assert not report.converged
    assert report.final_residual > 0


def test_gl_diverged_streak_is_rolled_back():
    # from this start a fixed-point streak blows up; the solver resumes from
    # the state the streak began at, where keeping the blown-up state
    # overflowed and ended in NonFiniteValueError
    c6 = gc.generate("cycle", n=6)
    init = gc.random_vertex_function(c6, np.random.default_rng(4), scale=5.0)
    u, report = gc.solve_ginzburg_landau(c6, init)
    assert report.converged
    assert gc.verify_gl_bound(c6, u, tol=1e-9).passed


@pytest.mark.parametrize("dtype", [float, complex])
def test_gl_exactly_singular_jacobian_falls_back(monkeypatch, p3, dtype):
    # on the path a-b-c the rows of P for a and c coincide, so at
    # v = (0, t, 0) the Jacobian P - diag(3 v^2) is exactly singular
    outcomes = []
    newton_step = elliptic._gl_newton_step

    def spy(P, v, r):
        try:
            delta = newton_step(P, v, r)
        except np.linalg.LinAlgError:
            outcomes.append("singular")
            raise
        outcomes.append("step")
        return delta

    monkeypatch.setattr(elliptic, "_gl_newton_step", spy)
    init = gc.VertexFunction(p3.vertices, np.array([0.0, 0.5, 0.0], dtype=dtype))
    u, report = gc.solve_ginzburg_landau(p3, init, gc.SolverConfig(tol=1e-12))
    assert outcomes[0] == "singular"
    assert report.damping_events >= 1
    assert report.converged
    assert gc.verify_gl_bound(p3, u, tol=1e-9).passed


def test_gl_singular_jacobian_with_stalled_fallback_raises(p3):
    # v = (0, 1e-323, 0): 3 v^2 underflows to 0, so the Jacobian is P itself,
    # exactly singular; the residual 1e-323 times the damping rounds to 0, so
    # fixed-point updates leave v unchanged and every fallback stalls
    init = gc.VertexFunction(p3.vertices, np.array([0.0, 1e-323, 0.0]))
    with pytest.raises(gc.SingularJacobianError):
        gc.solve_ginzburg_landau(p3, init, gc.SolverConfig(tol=5e-324))


def test_solver_config_validation():
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.SolverConfig(tol=tol)
    with pytest.raises(gc.BadParamsError):
        gc.SolverConfig(damping=0.0)
    for max_iters in (-1, 2.5, float("nan")):
        with pytest.raises(gc.BadParamsError):
            gc.SolverConfig(max_iters=max_iters)
    cfg = gc.SolverConfig.from_json_dict({"tol": 1e-8, "max_iters": 10, "damping": 0.5, "seed": 3})
    assert cfg.tol == 1e-8 and cfg.max_iters == 10 and cfg.damping == 0.5 and cfg.seed == 3
    assert json.loads(json.dumps(cfg.to_json_dict()))["tol"] == 1e-8


def test_gl_bound_certificate_frozen(k3):
    one = gc.VertexFunction.constant(k3, 1.0)
    report = gc.verify_gl_bound(k3, one, tol=1e-9)
    assert report.passed
    assert all(s == pytest.approx(1e-9, abs=0.0) for s in report.slack.values())
    zero = gc.VertexFunction.constant(k3, 0.0)
    report0 = gc.verify_gl_bound(k3, zero, tol=1e-9)
    assert report0.passed
    assert all(s == pytest.approx(1.0 + 1e-9) for s in report0.slack.values())


def test_gl_bound_rejects_non_solutions(k3):
    two = gc.VertexFunction.constant(k3, 2.0)
    with pytest.raises(gc.NotASolutionError):
        gc.verify_gl_bound(k3, two, tol=1e-9)


def test_gl_bound_rejects_bad_tol():
    # tol = inf passed a non-solution with residual 343, and tol = -1 called
    # the exact solution u = 1 a non-solution
    g = gc.generate("path", n=5)
    u = gc.VertexFunction(g.vertices, np.array([5.0, -3.0, 2.0, 0.0, 7.0]))
    one = gc.VertexFunction.constant(g, 1.0)
    with pytest.raises(gc.NotASolutionError):
        gc.verify_gl_bound(g, u)
    assert gc.verify_gl_bound(g, one).passed
    for bad in (float("inf"), float("nan"), -1.0):
        for v in (u, one):
            with pytest.raises(gc.BadParamsError):
                gc.verify_gl_bound(g, v, tol=bad)


# -- sub-solutions ---------------------------------------------------------------------


def _solve_truncation(g, boundary, qscale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    qvals = np.abs(rng.uniform(0, qscale, g.n_vertices))
    Q = gc.Potential(gc.VertexFunction(g.vertices, qvals))
    u, report = gc.solve_linear_schrodinger(
        g, Q, gc.VertexFunction.constant(g, 0.0), boundary
    )
    assert report.converged
    return u, Q


def test_subsolution_nonpositive_solution_trivial(p3):
    u, Q = _solve_truncation(p3, {"a": -1.0, "c": -2.0})
    assert np.all(u.values <= 0.0)
    report = gc.check_subsolution(p3, u, Q)
    assert all(s == 0.0 for s in report.slack.values())


def test_subsolution_nonnegative_solution_equality_on_interior(p3):
    u, Q = _solve_truncation(p3, {"a": 1.0, "c": 2.0})
    assert np.all(u.values >= 0.0)
    report = gc.check_subsolution(p3, u, Q, tol=1e-10)
    assert abs(report.slack["b"]) <= 1e-10


def test_subsolution_sign_changing_on_truncation():
    g = gc.generate("grid2d", rows=3, cols=3)
    boundary = {g.vertices[0]: -1.0, g.vertices[-1]: 1.0}
    u, Q = _solve_truncation(g, boundary, seed=4)
    assert np.min(u.values) < 0 < np.max(u.values)
    report = gc.check_subsolution(g, u, Q, tol=1e-10)
    interior = [v for v in g.vertices if v not in boundary]
    assert min(report.slack[v] for v in interior) >= -1e-10


def test_subsolution_rejects_complex(p3):
    with pytest.raises(gc.ComplexNotAllowedError):
        gc.check_subsolution(p3, gc.VertexFunction.constant(p3, 1j), gc.Potential.zero(p3))


# -- gradient estimate ---------------------------------------------------------------


def test_gradient_estimate_hand_case(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 2.0, "b": 1.0, "c": 2.0})
    report = gc.verify_gradient_estimate(p3, u, tol=1e-10)
    assert list(report.slack.keys()) == ["b"]
    assert report.slack["b"] == pytest.approx(4.0, abs=1e-12)
    assert report.passed
    assert report.info["d_constant"] == 2.0
    assert report.info["second_bound_slack"]["b"] == pytest.approx(1.0, abs=1e-12)


def test_gradient_estimate_constant(k3):
    u = gc.VertexFunction.constant(k3, 2.0)
    report = gc.verify_gradient_estimate(k3, u)
    d = gc.d_constant(k3)
    assert set(report.slack) == set(k3.vertices)
    for s in report.slack.values():
        assert s == pytest.approx((d - 1.0) * 4.0, rel=1e-12)


def test_gradient_estimate_second_bound_can_fail(p3):
    # at the middle vertex lap(u) = 0 so Q = 0 and the further bound
    # d Q^2 u^2 = 0 falls below |grad u|^2 = 1: reported, never asserted
    u = gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": 2.0, "c": 3.0})
    report = gc.verify_gradient_estimate(p3, u, tol=1e-10)
    assert report.passed
    assert report.info["second_bound_slack"]["b"] == pytest.approx(-1.0, abs=1e-12)


def _gradient_estimate_loop_ref(g, values):
    """The per-vertex loop the array form replaced: {vertex: slack}, {vertex: second}."""
    lap = gc.laplacian(g, gc.VertexFunction(g.vertices, values)).values
    gsq = gc.grad_sq(g, gc.VertexFunction(g.vertices, values)).values
    d = gc.d_constant(g)
    slack, second = {}, {}
    for i in np.flatnonzero((values > 0.0) & (lap >= 0.0)):
        q = lap[i] / values[i]
        usq = values[i] * values[i]
        slack[g.vertices[i]] = float((d * (1.0 + q) ** 2 - 2.0 * q - 1.0) * usq - gsq[i])
        second[g.vertices[i]] = float(d * q * q * usq - gsq[i])
    return slack, second


def test_gradient_estimate_matches_loop_reference_exactly():
    rng = np.random.default_rng(23)
    for name, g in family_corpus(3):
        u = np.abs(gc.random_vertex_function(g, rng, zero_prob=0.2).values)
        report = gc.verify_gradient_estimate(g, gc.VertexFunction(g.vertices, u))
        slack, second = _gradient_estimate_loop_ref(g, u)
        assert list(report.slack.items()) == list(slack.items()), name
        assert list(report.info["second_bound_slack"].items()) == list(second.items()), name
        assert report.info["second_bound_min_slack"] == min(second.values(), default=float("inf"))


def test_gradient_estimate_rejects_negative(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": -0.5, "c": 1.0})
    with pytest.raises(gc.NegativeInputError):
        gc.verify_gradient_estimate(p3, u)


def test_gradient_estimate_zero_function_vacuous(p3):
    report = gc.verify_gradient_estimate(p3, gc.VertexFunction.constant(p3, 0.0))
    assert report.slack == {}
    assert report.passed


@pytest.mark.parametrize("seed", range(20))
def test_gradient_estimate_random_nonnegative(seed):
    rng = np.random.default_rng(seed + 6000)
    graphs = family_corpus(2, seed=seed % 3)
    _, g = graphs[int(rng.integers(0, len(graphs)))]
    u = gc.VertexFunction(g.vertices, np.abs(rng.uniform(-1, 1, g.n_vertices)))
    report = gc.verify_gradient_estimate(g, u, tol=1e-10)
    assert report.passed


# -- Liouville premises, chain, search --------------------------------------------------


def test_liouville_premises_zero_is_feasible(k3):
    report = gc.check_liouville_premises(k3, gc.VertexFunction.constant(k3, 0.0), 2.0, 1.0)
    assert report.passed
    assert report.min_slack == 0.0


def test_liouville_premises_constants_infeasible(k3):
    report = gc.check_liouville_premises(k3, gc.VertexFunction.constant(k3, 0.5), 2.0, 1.0, tol=1e-10)
    assert not report.passed
    assert all(s < 0 for s in report.slack.values())
    assert report.info["supersolution_min"] == pytest.approx(-0.25)


def test_liouville_premises_fractional_p_no_nan(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": -0.5, "b": 0.25, "c": 0.5})
    report = gc.check_liouville_premises(p3, u, 0.5, 1.0)
    assert np.isfinite(report.min_slack)
    assert not report.passed


def test_liouville_premises_validation(k3):
    u = gc.VertexFunction.constant(k3, 0.0)
    with pytest.raises(gc.BadParamsError):
        gc.check_liouville_premises(k3, u, 0.0, 1.0)
    with pytest.raises(gc.BadParamsError):
        gc.check_liouville_premises(k3, u, 1.0, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.check_liouville_premises(k3, u, bad, 1.0)
        with pytest.raises(gc.BadParamsError):
            gc.check_liouville_premises(k3, u, 2.0, bad)
        with pytest.raises(gc.BadParamsError):
            gc.check_liouville_premises(k3, u, 2.0, 1.0, tol=bad)


def test_liouville_premises_random_pass_implies_tiny():
    g = gc.generate("complete", n=4)
    rng = np.random.default_rng(99)
    tol = 1e-10
    for _ in range(10_000):
        u = gc.VertexFunction(g.vertices, np.abs(rng.uniform(0, 1, 4)))
        report = gc.check_liouville_premises(g, u, 2.0, 1.0, tol=tol)
        if report.passed:
            scale = float(np.sum(g.degrees) / np.min(g.degrees))
            assert float(np.max(u.values)) <= (tol * scale) ** 0.5


def test_chain_bad_start(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 1.0, "c": 1.0})
    with pytest.raises(gc.BadStartError):
        gc.keller_osserman_chain(p3, u, 2.0, "a")


def test_chain_rejects_non_finite_p(p3):
    # a NaN p made every increment NaN and still gave a verdict
    u = gc.VertexFunction.from_dict(p3, {"a": 0.1, "b": 0.2, "c": 0.3})
    for p in (0.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.keller_osserman_chain(p3, u, p, "a")


def test_chain_rejects_non_finite_tol_and_bound():
    # tol = inf or nan turned a premise violation into a revisit contradiction
    g = gc.generate("path", n=5)
    u = gc.VertexFunction(g.vertices, np.array([0.1, 0.2, 0.4, 0.8, 1.0]))
    cert = gc.keller_osserman_chain(g, u, 1.0, "v0")
    assert cert.outcome is gc.ChainOutcome.PREMISE_VIOLATION
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(gc.BadParamsError):
            gc.keller_osserman_chain(g, u, 1.0, "v0", tol=bad)
        with pytest.raises(gc.BadParamsError):
            gc.keller_osserman_chain(g, u, 1.0, "v0", bound=bad)


def test_chain_premise_slack_is_bitwise_exact():
    # at its violation vertex x the chain reports laplacian(g, u)[x] - u[x]^p,
    # bitwise; a per-vertex sum and a float power differed in the last bits
    rng = np.random.default_rng(5)
    sampler = lambda r, m: r.uniform(0.1, 3.0, m)
    seen = 0
    for seed in range(40):
        g = gc.generate("gnp", n=15, p=0.4, seed=seed, weight_sampler=sampler)
        u = gc.VertexFunction(g.vertices, rng.uniform(0.1, 2.0, g.n_vertices))
        for p in (0.7, 2.0, 2.9):
            cert = gc.keller_osserman_chain(g, u, p, g.vertices[0])
            if cert.outcome is gc.ChainOutcome.PREMISE_VIOLATION:
                seen += 1
                x = g.index_of(cert.violation_vertex)
                expected = gc.laplacian(g, u).values - np.power(u.values, p)
                assert cert.premise_slack == expected[x]
    assert seen > 0


def test_chain_constant_premise_violation():
    g = gc.generate("gnp", n=12, p=0.4, seed=9)
    u = gc.VertexFunction.constant(g, 0.5)
    cert = gc.keller_osserman_chain(g, u, 1.0, g.vertices[0])
    assert cert.outcome is gc.ChainOutcome.PREMISE_VIOLATION
    assert cert.violation_vertex == g.vertices[0]
    assert cert.premise_slack == pytest.approx(-0.5)


def test_chain_escape_on_growth_profile():
    # lap(u) >= u holds along v0..v2 while the values blow past the bound
    g = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
    u = gc.VertexFunction.from_dict(g, {"a": 1.0, "b": 4.0, "c": 15.0, "d": 56.0})
    cert = gc.keller_osserman_chain(g, u, 1.0, "a", bound=10.0)
    assert cert.outcome is gc.ChainOutcome.ESCAPED_BOUND
    assert cert.chain == ("a", "b", "c")
    assert cert.values == (1.0, 4.0, 15.0)


def test_chain_plateau_revisit():
    g = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    u = gc.VertexFunction.constant(g, 1e-13)
    cert = gc.keller_osserman_chain(g, u, 2.0, "b", tol=1e-12)
    assert cert.outcome is gc.ChainOutcome.REVISIT_CONTRADICTION
    assert cert.chain[-1] in cert.chain[:-1]


def test_chain_structure_invariants():
    g = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
    u = gc.VertexFunction.from_dict(g, {"a": 1.0, "b": 4.0, "c": 15.0, "d": 56.0})
    cert = gc.keller_osserman_chain(g, u, 1.0, "a", bound=10.0, tol=1e-12)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    for x, y in zip(cert.chain, cert.chain[1:]):
        assert y in adj[x]
    assert len(cert.increments) == len(cert.chain) - 1
    for i, inc in enumerate(cert.increments):
        assert cert.values[i + 1] >= cert.values[i] + inc - cert.tol
        assert inc == pytest.approx(cert.rho ** (cert.p - 1) * (cert.values[i] ** cert.p))
    assert all(b > a for a, b in zip(cert.values, cert.values[1:]))


def test_chain_verdict_on_the_last_of_n_steps():
    # the chain visits every vertex before its verdict, the longest it can run
    g = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
    u = gc.VertexFunction.from_dict(g, {"a": 1.0, "b": 4.0, "c": 15.0, "d": 56.0})
    cert = gc.keller_osserman_chain(g, u, 1.0, "a", bound=100.0)
    assert cert.outcome is gc.ChainOutcome.PREMISE_VIOLATION
    assert cert.chain == ("a", "b", "c", "d")
    assert cert.violation_vertex == "d"


def test_chain_rejects_negative_u(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": -1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(gc.NegativeInputError):
        gc.keller_osserman_chain(p3, u, 2.0, "b")


def test_chain_json_round_trip():
    g = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    cert = gc.keller_osserman_chain(g, gc.VertexFunction.constant(g, 0.5), 1.0, "a")
    obj = json.loads(cert.to_json())
    assert obj["outcome"] == "premise_violation"
    assert obj["chain"][0] == "a"


def test_liouville_search_finds_nothing(k5):
    report = gc.liouville_search(k5, 2.0, 1.0, restarts=300, steps=200, seed=1)
    assert not report.found_counterexample
    assert report.max_feasible_sup_norm <= 1e-6
    obj = report.to_json_dict()
    assert obj["counterexample"] is None


def test_liouville_search_validation(k5):
    with pytest.raises(gc.BadParamsError):
        gc.liouville_search(k5, -1.0, 1.0)
    with pytest.raises(gc.BadParamsError):
        gc.liouville_search(k5, 1.0, 1.0, restarts=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError):
            gc.liouville_search(k5, bad, 1.0, restarts=1, steps=1)
        with pytest.raises(gc.BadParamsError):
            gc.liouville_search(k5, 2.0, bad, restarts=1, steps=1)


def test_liouville_search_refuses_an_operator_above_the_limit(monkeypatch):
    # the guard is arithmetic on n: the limit is lowered, nothing large is allocated
    g = gc.generate("gnp", n=20, p=0.3, seed=42)
    monkeypatch.setattr(elliptic, "LIOUVILLE_MAX_OPERATOR_BYTES", 8 * 20 * 20 - 1)
    with pytest.raises(gc.BadParamsError, match=r"n = 20 vertices .* of 3200 bytes"):
        gc.liouville_search(g, 2.0, 1.0, restarts=1, steps=1)
    monkeypatch.setattr(elliptic, "LIOUVILLE_MAX_OPERATOR_BYTES", 8 * 20 * 20)
    assert gc.liouville_search(g, 2.0, 1.0, restarts=1, steps=1).restarts == 1


def _row_verdicts(g, rows, p, bound):
    return [
        gc.check_liouville_premises(g, gc.VertexFunction(g.vertices, row), p, bound, tol=0.0).passed
        for row in rows
    ]


def test_liouville_search_verdicts_match_the_premise_check(monkeypatch):
    # every row the search checks gets the one-row check's verdict at tol = 0
    batches = []
    kernel = elliptic._premise_slacks

    def spy(g, values, p, bound):
        if values.ndim == 2:
            batches.append(values.copy())
        return kernel(g, values, p, bound)

    monkeypatch.setattr(elliptic, "_premise_slacks", spy)
    g = gc.generate("cycle", n=25)
    for p in (0.5, 1.0, 2.0, 3.0):
        batches.clear()
        report = gc.liouville_search(g, p, 1.0, restarts=200, steps=50, seed=3)
        (rows,) = batches
        verdicts = _row_verdicts(g, rows, p, 1.0)
        assert report.exact_feasible == sum(verdicts)
        feasible_sups = [float(np.max(np.abs(r))) for r, ok in zip(rows, verdicts) if ok]
        assert report.max_feasible_sup_norm == max(feasible_sups, default=0.0)

    # a mixed batch: zero passes, and so does a constant whose cube underflows;
    # a constant 0.5 fails lap(u) >= u^p, and the others leave [0, bound]
    n = g.n_vertices
    rows = np.array([
        np.zeros(n), np.full(n, 1e-200), np.full(n, 0.5),
        np.r_[-1e-300, np.zeros(n - 1)], np.r_[2.0, np.zeros(n - 1)],
    ])
    batched = np.min(kernel(g, rows, 3.0, 1.0)[0], axis=1) >= 0.0
    assert batched.tolist() == _row_verdicts(g, rows, 3.0, 1.0) == [True, True, False, False, False]


def test_liouville_search_exactly_feasible_rows():
    # at p = 0.5 every row is capped down to exactly 0, which passes at tol = 0
    g = gc.generate("gnp", n=20, p=0.3, seed=42)
    report = gc.liouville_search(g, 0.5, 1.0, restarts=300, steps=500, seed=3)
    assert report.exact_feasible == 300
    assert report.max_feasible_sup_norm == 0.0
    assert report.counterexample is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_liouville_search_large_bound_fractional_p_no_overflow():
    # m^(1/p) overflows for p < 1 and huge m, where the cap is m itself
    g = gc.generate("cycle", n=6)
    report = gc.liouville_search(g, 0.5, 1e160, restarts=20, steps=5, seed=1)
    assert report.bound == 1e160
    m = np.array([0.0, 0.25, 1.0, 1e160, 1e308])
    assert np.all(np.isfinite(elliptic._cap_root(m, 0.5)))


def test_cap_root_matches_bisection_reference():
    # The root's condition number is at most max(1, 1/p), so an error of
    # about one ulp in t + t^p - m moves it by up to max(1, 1/p) ulps; allow
    # twice that outside the reference bracket.
    m = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 121)])
    for p in (0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 11.0):
        got = elliptic._cap_root(m, p)
        slack = 2.0 * max(1.0, 1.0 / p)
        for mi, t in zip(m.tolist(), got.tolist()):
            lo, hi = cap_root_ref(mi, p)
            assert lo - slack * np.spacing(lo) <= t <= hi + slack * np.spacing(hi), (p, mi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, root", [(2.0, np.sqrt), (3.0, np.cbrt)])
def test_cap_root_closed_forms_at_huge_m(p, root):
    # Out of the bisection reference's reach (t^p overflows), the root is
    # m^(1/p) to a relative 1e-100, and must stay finite up to the largest
    # double; 1e150 is where the p = 3 form stops squaring m/2.
    big = np.finfo(float).max
    m = np.array([1e300, 1e305, 1e308, big, np.nextafter(big, 0.0)])
    edge = 2e150 * (1.0 + np.arange(-4, 5) * 2.0**-52)
    m = np.concatenate([m, edge, [2e140, 2e160]])
    got = elliptic._cap_root(m, p)
    want = root(m)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want)), (p, (got - want) / np.spacing(want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p",
    [
        2.5, 3.5, 4.0, 5.0, 11.0,
        *(round(0.05 * k, 2) for k in range(1, 20)),
        *(round(1.0 + 0.01 * k, 2) for k in range(1, 20)),
    ],
)
def test_cap_root_newton_at_the_largest_doubles(p):
    # For p > 1, m^(1/p) can round to a start whose p-th power overflows;
    # for p < 1 the root can be the largest double itself, whose np.spacing
    # overflows, and for p near 1, t + t^p can overflow while t + t^p - m
    # does not. math.ulp is finite at the largest double.
    m = [np.finfo(float).max]
    for _ in range(40):
        m.append(np.nextafter(m[-1], 0.0))
    got = elliptic._cap_root(np.array(m), p)
    slack = 2.0 * max(1.0, 1.0 / p)
    for mi, t in zip(m, got.tolist()):
        lo, hi = cap_root_ref(mi, p)
        assert np.isfinite(t), (p, mi)
        assert lo - slack * math.ulp(lo) <= t <= hi + slack * math.ulp(hi), (p, mi)


# SHA-256 of liouville_search(g, p, 1.0, restarts=400, seed=1).to_json(),
# recorded when the p = 3 cap root came from a Newton loop
LIOUVILLE_SEARCH_SHA256 = {
    2.0: "fcc0403f3685202102a230a43bc3b20ca9241adbbe23d23feed7e2e7f4bd48ce",
    3.0: "7f2195add346707fd948a5a4491b06353cfce02f4c6207af5338d979e8c6b12d",
}


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize(
    "graph", [{"family": "gnp", "n": 20, "p": 0.3, "seed": 42}, {"family": "grid2d", "rows": 5, "cols": 6}]
)
def test_liouville_search_json_matches_recorded_bytes(graph, p):
    g = gc.generate(**graph)
    text = gc.liouville_search(g, p, 1.0, restarts=400, seed=1).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LIOUVILLE_SEARCH_SHA256[p]


def test_non_finite_tol_rejected():
    # at tol = inf a spike passed as a sub-solution and as a constant, and at
    # tol = nan a correct Kato input failed both reports
    g = gc.generate("path", n=5)
    spike = gc.VertexFunction(g.vertices, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    assert not gc.check_subsolution(g, spike, gc.Potential.zero(g)).passed
    assert gc.check_strong_max_principle(g, spike).outcome is gc.MaxPrincipleOutcome.NOT_SUBHARMONIC
    assert all(r.passed for r in gc.check_kato2(g, spike))
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(gc.BadParamsError):
            gc.check_subsolution(g, spike, gc.Potential.zero(g), tol=bad)
        with pytest.raises(gc.BadParamsError):
            gc.check_kato2(g, spike, tol=bad)
        with pytest.raises(gc.BadParamsError):
            gc.check_strong_max_principle(g, spike, tol=bad)


# -- strong maximum principle -------------------------------------------------------


def test_smp_constant_confirmed(k3):
    result = gc.check_strong_max_principle(k3, gc.VertexFunction.constant(k3, 2.0))
    assert result.outcome is gc.MaxPrincipleOutcome.CONSTANT_CONFIRMED


def test_smp_not_subharmonic_frozen(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    result = gc.check_strong_max_principle(p3, u)
    assert result.outcome is gc.MaxPrincipleOutcome.NOT_SUBHARMONIC
    assert result.vertex == "b"


def test_smp_near_constant_confirmed(k5):
    rng = np.random.default_rng(3)
    u = gc.VertexFunction(k5.vertices, 1.0 + 1e-16 * rng.uniform(-1, 1, 5))
    result = gc.check_strong_max_principle(k5, u)
    assert result.outcome is gc.MaxPrincipleOutcome.CONSTANT_CONFIRMED


def test_smp_never_violation_random():
    rng = np.random.default_rng(37)
    for name, g in family_corpus(2):
        for _ in range(100):
            u = gc.random_vertex_function(g, rng, zero_prob=0.05)
            result = gc.check_strong_max_principle(g, u)
            assert result.outcome is not gc.MaxPrincipleOutcome.VIOLATION


@pytest.mark.parametrize("n", [12, 30, 100])
def test_smp_confirms_spread_within_hitting_time_bound(n):
    # u = eps phi_1 has lap(u) >= -tol / 2 and a spread above tol * sum d / min d;
    # u(x) - u(y) <= tol * H(x, y) bounds it, so the principle holds
    tol = 1e-10
    g = gc.generate("path", n=n)
    phi = gc.spectrum_smallest(g, 2)[1].eigenvector
    u = gc.VertexFunction(g.vertices, phi.values * (tol / 2) / -np.min(gc.laplacian(g, phi).values))
    assert np.min(gc.laplacian(g, u).values) >= -tol
    assert np.ptp(u.values) > tol * np.sum(g.degrees) / np.min(g.degrees)
    result = gc.check_strong_max_principle(g, u, tol)
    assert result.outcome is gc.MaxPrincipleOutcome.CONSTANT_CONFIRMED


def test_smp_reports_violation_against_a_wrong_laplacian(monkeypatch):
    # with |lap(u)| in place of lap(u) a nonconstant u looks subharmonic, and
    # its spread 1 is far above tol * H = 121 tol
    g = gc.generate("path", n=12)
    true_laplacian = elliptic._laplacian_values
    monkeypatch.setattr(elliptic, "_laplacian_values", lambda g, v: np.abs(true_laplacian(g, v)))
    u = gc.VertexFunction(g.vertices, np.linspace(0.0, 1.0, 12))
    result = gc.check_strong_max_principle(g, u)
    assert result.outcome is gc.MaxPrincipleOutcome.VIOLATION
    assert result.vertex == g.vertices[-1]


def test_smp_rejects_complex(k3):
    with pytest.raises(gc.ComplexNotAllowedError):
        gc.check_strong_max_principle(k3, gc.VertexFunction.constant(k3, 1j))


# -- real input --------------------------------------------------------------------------

# every entry point that accepts only real functions, called on a graph g and u
_REAL_ONLY = {
    "pos_part": lambda g, u: gc.pos_part(u),
    "sign_fn": lambda g, u: gc.sign_fn(u),
    "sign_plus": lambda g, u: gc.sign_plus(u),
    "check_kato2": lambda g, u: gc.check_kato2(g, u),
    "Potential": lambda g, u: gc.Potential(u),
    "check_subsolution": lambda g, u: gc.check_subsolution(g, u, gc.Potential.zero(g)),
    "verify_gradient_estimate": lambda g, u: gc.verify_gradient_estimate(g, u),
    "check_liouville_premises": lambda g, u: gc.check_liouville_premises(g, u, 2.0, 1.0),
    "keller_osserman_chain": lambda g, u: gc.keller_osserman_chain(g, u, 2.0, "a"),
    "check_strong_max_principle": lambda g, u: gc.check_strong_max_principle(g, u),
    "evolve_heat": lambda g, u: gc.evolve_heat(
        g, u, gc.EvolutionConfig(dt=0.1, steps=1, scheme="heat_implicit")
    ),
}


@pytest.mark.parametrize("domain", ["graph", "other"])
@pytest.mark.parametrize("name", sorted(_REAL_ONLY))
def test_real_only_entry_points_reject_complex_first(p3, name, domain):
    # a complex function is rejected as complex even on the wrong vertex set
    vertices = p3.vertices if domain == "graph" else ("x", "y")
    u = gc.VertexFunction(vertices, np.full(len(vertices), 1j))
    with pytest.raises(gc.ComplexNotAllowedError):
        _REAL_ONLY[name](p3, u)


# -- spectra ---------------------------------------------------------------------------


def test_spectrum_k3_frozen(k3):
    pairs = gc.spectrum_smallest(k3, 3)
    evals = [p.eigenvalue for p in pairs]
    assert evals[0] == pytest.approx(0.0, abs=1e-10)
    assert evals[1] == pytest.approx(1.5, abs=1e-8)
    assert evals[2] == pytest.approx(1.5, abs=1e-8)


def test_spectrum_p2_frozen(p2):
    pairs = gc.spectrum_smallest(p2, 2)
    assert pairs[0].eigenvalue == pytest.approx(0.0, abs=1e-10)
    assert pairs[1].eigenvalue == pytest.approx(2.0, abs=1e-10)


def test_spectrum_ground_state_constant():
    for _, g in family_corpus(2):
        pair = gc.spectrum_smallest(g, 1)[0]
        assert pair.eigenvalue == pytest.approx(0.0, abs=1e-10)
        phi = pair.eigenvector.values
        expected = 1.0 / np.sqrt(np.sum(g.degrees))
        assert np.max(np.abs(phi - expected)) <= 1e-8


def test_spectrum_matches_dense_oracle():
    # every k, so both eigh (k >= n - 1) and eigsh (k < n - 1) are checked
    for name, g in family_corpus(2):
        ref = eigenvalues_ref(g)
        for k in range(1, g.n_vertices + 1):
            got = np.array([p.eigenvalue for p in gc.spectrum_smallest(g, k)])
            assert np.max(np.abs(got - ref[:k])) <= 1e-8, (name, k)


def test_spectrum_repeatable_on_degenerate_eigenspaces():
    g = gc.generate("cycle", n=600)
    first, second = gc.spectrum_smallest(g, 4), gc.spectrum_smallest(g, 4)
    for a, b in zip(first, second):
        assert a.eigenvalue == b.eigenvalue
        assert np.array_equal(a.eigenvector.values, b.eigenvector.values)


def test_spectrum_in_unit_interval_and_orthonormal():
    for _, g in family_corpus(2):
        pairs = gc.spectrum_smallest(g, g.n_vertices)
        for p in pairs:
            assert -1e-10 <= p.eigenvalue <= 2.0 + 1e-10
            assert p.residual <= 1e-8
        vecs = np.stack([p.eigenvector.values for p in pairs], axis=1)
        gram = vecs.T @ (g.degrees[:, None] * vecs)
        assert np.max(np.abs(gram - np.eye(len(pairs)))) <= 1e-8


def test_spectrum_iterative_path_large_cycle():
    n = 600
    g = gc.generate("cycle", n=n)
    pairs = gc.spectrum_smallest(g, 3)
    evals = [p.eigenvalue for p in pairs]
    assert evals[0] == pytest.approx(0.0, abs=1e-8)
    expected = 1.0 - np.cos(2.0 * np.pi / n)
    assert evals[1] == pytest.approx(expected, abs=1e-8)
    assert evals[2] == pytest.approx(expected, abs=1e-8)


def test_spectrum_k_validation(k3):
    with pytest.raises(gc.BadParamsError):
        gc.spectrum_smallest(k3, 0)
    with pytest.raises(gc.BadParamsError):
        gc.spectrum_smallest(k3, 4)
    # k < n - 1 on the 6-cycle, where a fractional k would reach ARPACK
    for g in (k3, gc.generate("cycle", n=6)):
        for k in (2.5, float("nan")):
            with pytest.raises(gc.BadParamsError, match="need an integer"):
                gc.spectrum_smallest(g, k)


def test_spectrum_tol_validation():
    # a NaN tol would pass eigenpairs no check has passed
    g = gc.generate("grid2d", rows=6, cols=6)
    for tol in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(gc.BadParamsError, match="tol must be positive and finite"):
            gc.spectrum_smallest(g, 3, tol=tol)


def test_spectral_pair_rejects_out_of_range(k3):
    phi = gc.VertexFunction.constant(k3, 0.5)
    with pytest.raises(ValueError):
        gc.SpectralPair(eigenvalue=2.5, eigenvector=phi, residual=0.0)
    with pytest.raises(ValueError):
        gc.SpectralPair(eigenvalue=-0.1, eigenvector=phi, residual=0.0)


# -- result records ------------------------------------------------------------------


def _records():
    g = gc.generate("gnp", n=9, p=0.5, seed=2, weight_sampler=lambda r, m: r.uniform(0.2, 3.0, m))
    path4 = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
    growth = gc.VertexFunction.from_dict(path4, {"a": 1.0, "b": 4.0, "c": 15.0, "d": 56.0})
    p3 = gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    init = gc.random_vertex_function(g, np.random.default_rng(4), scale=2.0)
    _, gl_report = gc.solve_ginzburg_landau(g, init, gc.SolverConfig(tol=1e-10))
    f = gc.VertexFunction(g.vertices, np.random.default_rng(5).uniform(-1.0, 1.0, g.n_vertices))
    _, linear_report = gc.solve_linear_schrodinger(g, gc.Potential.zero(g), f, {g.vertices[0]: 0.5})
    spike = gc.VertexFunction(g.vertices, np.eye(g.n_vertices)[3])
    return {
        "solver_config": gc.SolverConfig(tol=1e-9, max_iters=500, damping=0.5, seed=3),
        "solver_config_default": gc.SolverConfig(),
        "solve_report_gl": gl_report,
        "solve_report_linear": linear_report,
        "chain_escaped_bound": gc.keller_osserman_chain(path4, growth, 1.0, "a", bound=10.0),
        # the input of test_chain_plateau_revisit
        "chain_revisit_contradiction": gc.keller_osserman_chain(
            p3, gc.VertexFunction.constant(p3, 1e-13), 2.0, "b", tol=1e-12
        ),
        "chain_premise_violation": gc.keller_osserman_chain(path4, growth, 1.0, "a", bound=100.0),
        "liouville_search": gc.liouville_search(g, 0.5, 1.0, restarts=40, steps=300, seed=1),
        "max_principle_not_subharmonic": gc.check_strong_max_principle(g, spike),
        "max_principle_constant": gc.check_strong_max_principle(g, gc.VertexFunction.constant(g, 2.0)),
        "spectral_pair": gc.spectrum_smallest(g, 2)[1],
    }


# SHA-256 of each record's to_json(), recorded when every record listed its
# JSON fields by hand
RECORD_SHA256 = {
    "solver_config": "2a1beb420135f79ed092ccf0f940f8664c07cb3ea44f8579addfa1e988e8dbc6",
    "solver_config_default": "e8a6bdab6b8b57848c6c1d1093be518bc081ef21ac4712f7fee4c91b41aedf1d",
    "solve_report_gl": "e54c7860c85ccf3d85149ae4d8312357badab99e1edc30a745ac852eea6f1c6b",
    "solve_report_linear": "f2449d1c9c1fef5a2034977f913f331551a21f2d5078c5160dc5c02da6cc7b43",
    "chain_escaped_bound": "416b69b4e55cca1c87cb86953cf4c959322086f71b28b84bf0254320eecabbb7",
    "chain_revisit_contradiction": "ca3652665e34d202cf4111ea30118ae40c276e784c1d34e9509595c523b30c93",
    "chain_premise_violation": "5394d75a61f48902078d90c45d0fdda9ffcc90385d079c77d91b1ac083043422",
    "liouville_search": "24e9683b2d591ebd44a94f882eee25ca9ca19bf939dd4ada682815874478b8c9",
    "max_principle_not_subharmonic": "6ea0ce3035ffdf9d2221d096d2a01058dd2e536eba8b25892708cff46208a634",
    "max_principle_constant": "537bc3f1f0a8187f8f8d461846c5d1c2fd5fd8ac6411af6fcbb65c1bb49ce2d4",
    "spectral_pair": "87d7c1459565a2925497a6f6b77f5c4b2cd5a564bb44f67fdd40536e02d2ea0d",
}


def test_record_json_matches_recorded_bytes():
    for name, record in _records().items():
        text = record.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == RECORD_SHA256[name], name
