import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphcalc as gc
from conftest import family_corpus
from graphcalc.calculus import _grad_sq_values, _laplacian_values
from oracles import (
    abs2_ref,
    d_inner_ref,
    dirichlet_ref,
    free_energy_ref,
    grad_sq_ref,
    laplacian_ref,
    mass_ref,
    neighbor_sum_ref,
)


def _rand_graph_and_values(seed, complex_values=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    records = []
    names = [f"v{i}" for i in range(n)]
    for i in range(1, n):
        j = int(rng.integers(0, i))
        records.append((names[j], names[i], float(rng.uniform(0.1, 4.0))))
    for i in range(n):
        for j in range(i + 1, n):
            if (names[i], names[j]) not in {(a, b) for a, b, _ in records} and rng.random() < 0.3:
                records.append((names[i], names[j], float(rng.uniform(0.1, 4.0))))
    g = gc.build_graph(records)
    if complex_values:
        vals = rng.uniform(-3, 3, g.n_vertices) + 1j * rng.uniform(-3, 3, g.n_vertices)
    else:
        vals = rng.uniform(-3, 3, g.n_vertices)
    return g, gc.VertexFunction(g.vertices, vals)


# -- operator definitions against the brute-force oracle -----------------------


def test_laplacian_p2_frozen(p2):
    u = gc.VertexFunction.from_dict(p2, {"a": 0.0, "b": 1.0})
    assert gc.laplacian(p2, u).as_dict() == {"a": 1.0, "b": -1.0}


def test_laplacian_p3_frozen(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 1.0, "c": 4.0})
    lap = gc.laplacian(p3, u).as_dict()
    assert lap == {"a": 1.0, "b": 1.0, "c": -3.0}
    assert lap == laplacian_ref(p3, u.as_dict())


def test_laplacian_constant_vanishes():
    for _, g in family_corpus(2):
        u = gc.VertexFunction.constant(g, 3.7)
        assert np.all(gc.laplacian(g, u).values == 0.0)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("complex_values", [False, True])
def test_laplacian_matches_oracle(seed, complex_values):
    g, u = _rand_graph_and_values(seed, complex_values)
    got = gc.laplacian(g, u).as_dict()
    ref = laplacian_ref(g, u.as_dict())
    for v in g.vertices:
        assert got[v] == pytest.approx(ref[v], abs=1e-13)


def test_grad_sq_frozen(p2, p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 1.0, "c": 4.0})
    gs = gc.grad_sq(p3, u).as_dict()
    assert gs == {"a": 1.0, "b": 5.0, "c": 9.0}
    u2 = gc.VertexFunction.from_dict(p2, {"a": 0.0, "b": 1.0})
    assert gc.grad_sq(p2, u2).as_dict() == {"a": 1.0, "b": 1.0}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("complex_values", [False, True])
def test_grad_sq_matches_oracle_and_nonnegative(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 100, complex_values)
    gs = gc.grad_sq(g, u)
    assert not gs.is_complex
    assert np.all(gs.values >= 0.0)
    ref = grad_sq_ref(g, u.as_dict())
    for v in g.vertices:
        assert gs[v] == pytest.approx(ref[v], abs=1e-12)


@pytest.mark.parametrize("kernel", [_laplacian_values, _grad_sq_values], ids=["laplacian", "grad_sq"])
@pytest.mark.parametrize("complex_values", [False, True])
def test_batched_kernel_rows_equal_single_calls(complex_values, kernel):
    # the premise kernel applies lap to a (restarts, n) batch in one call
    rng = np.random.default_rng(8)
    graphs = [g for _, g in family_corpus(2)] + [gc.generate("grid2d", rows=40, cols=50, seed=1)]
    for g in graphs:
        batch = rng.normal(size=(2, 3, g.n_vertices))
        if complex_values:
            batch = batch + 1j * rng.normal(size=batch.shape)
        got = kernel(g, batch)
        assert got.shape == batch.shape
        for idx in np.ndindex(batch.shape[:-1]):
            assert got[idx].tobytes() == kernel(g, batch[idx]).tobytes()


# -- the slot-fold kernel against the reduceat formula -------------------------------


def _relabelled(g, rng):
    """``g`` with its vertices renamed at random, so that the canonical
    vertex order no longer follows the construction order."""
    names = dict(zip(g.vertices, (f"x{k}" for k in rng.permutation(g.n_vertices))))
    return gc.build_graph([(names[x], names[y], w) for x, y, w in g.edges])


def _mixed_degree_graph(seed):
    # a hub of degree >= 12 and, over the seeds, every degree from 1 up
    rng = np.random.default_rng(seed)
    n = 30
    edges = {(0, j) for j in range(1, 13)}
    edges |= {(int(rng.integers(0, i)), i) for i in range(13, n)}
    rate = rng.uniform(0.0, 0.7, n)
    edges |= {(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < rate[i] * rate[j]}
    records = [(f"v{i}", f"v{j}", float(rng.uniform(0.1, 4.0))) for i, j in sorted(edges)]
    return _relabelled(gc.build_graph(records), rng)


@functools.cache
def _fixed_graph(name):
    rng = np.random.default_rng(5)
    if name == "star":
        return gc.generate("star", n=300)  # degree 299: numpy's recursive block sum
    if name == "complete":
        return gc.generate("complete", n=40)
    if name == "gnp":
        return gc.generate("gnp", n=150, p=0.9, seed=1)
    sampler = lambda r, m: r.uniform(0.2, 3.0, m)
    return _relabelled(gc.generate("grid2d", rows=12, cols=17, weight_sampler=sampler, seed=2), rng)


def _flavoured(rng, shape, flavour):
    x = rng.normal(size=shape)
    if flavour == "signed_zeros":
        x[rng.random(shape) < 0.5] = 0.0
        x[rng.random(shape) < 0.3] = -0.0
    elif flavour == "negative_zero":
        x = np.full(shape, -0.0)
    elif flavour == "subnormal":
        x = x * 2.0**-1060
    elif flavour == "mixed_scales":
        x = x * 2.0 ** rng.choice([-1000, 0, 1000], shape)
    else:
        x = x * 2.0 ** {"huge": 1000, "tiny": -1000, "normal": 0}[flavour]
    return x


@given(
    graph=st.sampled_from(["mixed", "star", "complete", "gnp", "grid"]),
    seed=st.integers(0, 10_000),
    complex_values=st.booleans(),
    batched=st.booleans(),
    flavour=st.sampled_from(
        ["normal", "signed_zeros", "negative_zero", "subnormal", "huge", "tiny", "mixed_scales"]
    ),
)
def test_neighbor_sums_equal_reduceat_bitwise(graph, seed, complex_values, batched, flavour):
    g = _mixed_degree_graph(seed) if graph == "mixed" else _fixed_graph(graph)
    rng = np.random.default_rng(seed)
    # 400 rows as in the Liouville search, fewer where that would be large
    shape = (400 if 2 * g.n_edges <= 2000 else 3, g.n_vertices) if batched else (g.n_vertices,)
    values = _flavoured(rng, shape, flavour)
    if complex_values:
        values = values.astype(np.complex128)
        values.imag = _flavoured(rng, shape, flavour)  # x + 1j * y would turn -0.0 into 0.0
    with np.errstate(over="ignore"):  # |2^1000|^2 is inf on both sides
        assert _laplacian_values(g, values).tobytes() == neighbor_sum_ref(g, values).tobytes()
        assert _grad_sq_values(g, values).tobytes() == neighbor_sum_ref(g, values, abs2_ref).tobytes()


def test_slot_plan_does_not_change_equality_hash_or_repr():
    a = gc.generate("grid2d", rows=4, cols=5, seed=3)
    b = gc.generate("grid2d", rows=4, cols=5, seed=3)
    before = (a == b, hash(a), hash(b), repr(a), repr(b))
    gc.laplacian(a, gc.VertexFunction.constant(a, 1.0))
    assert a._slot_plan is not None and b._slot_plan is None
    assert (a == b, hash(a), hash(b), repr(a), repr(b)) == before
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_laplacian_returns_same_scalar_kind(p3):
    ur = gc.VertexFunction.constant(p3, 1.0)
    uc = gc.VertexFunction.constant(p3, 1.0 + 0j)
    assert not gc.laplacian(p3, ur).is_complex
    assert gc.laplacian(p3, uc).is_complex


# -- algebraic invariants ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_linearity(seed):
    g, u = _rand_graph_and_values(seed + 300)
    _, v = _rand_graph_and_values(seed + 300)  # same graph, new values
    rng = np.random.default_rng(seed + 900)
    v = gc.VertexFunction(g.vertices, rng.uniform(-3, 3, g.n_vertices))
    a, b = 2.5, -1.25
    lhs = gc.laplacian(g, gc.VertexFunction(g.vertices, a * u.values + b * v.values)).values
    rhs = a * gc.laplacian(g, u).values + b * gc.laplacian(g, v).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("complex_values", [False, True])
def test_null_sum_identity(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 400, complex_values)
    lap = gc.laplacian(g, u).values
    total = np.sum(g.degrees * lap)
    assert abs(total) <= 1e-12 * max(1.0, float(np.max(np.abs(lap))) * g.n_vertices)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("complex_values", [False, True])
def test_self_adjointness(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 500, complex_values)
    rng = np.random.default_rng(seed + 777)
    if complex_values:
        vals = rng.uniform(-2, 2, g.n_vertices) + 1j * rng.uniform(-2, 2, g.n_vertices)
    else:
        vals = rng.uniform(-2, 2, g.n_vertices)
    v = gc.VertexFunction(g.vertices, vals)
    lhs = gc.d_inner(g, gc.laplacian(g, u), v)
    rhs = gc.d_inner(g, u, gc.laplacian(g, v))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("complex_values", [False, True])
def test_gradient_energy_relation(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 600, complex_values)
    total = float(np.sum(g.degrees * gc.grad_sq(g, u).values))
    assert total == pytest.approx(2.0 * gc.dirichlet_energy(g, u), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("complex_values", [False, True])
def test_dirichlet_is_quadratic_form(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 700, complex_values)
    quad = gc.d_inner(g, gc.laplacian(g, u), u)
    assert -np.real(quad) == pytest.approx(gc.dirichlet_energy(g, u), rel=1e-12, abs=1e-12)
    assert abs(np.imag(complex(quad))) <= 1e-12


# -- energies ------------------------------------------------------------------------


def test_energies_frozen(p2):
    u = gc.VertexFunction.from_dict(p2, {"a": 0.0, "b": 1.0})
    assert gc.mass(p2, u) == 1.0
    assert gc.dirichlet_energy(p2, u) == 1.0


def test_uniform_state_minimizes_free_energy():
    for _, g in family_corpus(2):
        one = gc.VertexFunction.constant(g, 1.0)
        assert gc.dirichlet_energy(g, one) == 0.0
        assert gc.free_energy(g, one) == 0.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("complex_values", [False, True])
def test_energies_match_oracle(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 800, complex_values)
    d = u.as_dict()
    assert gc.mass(g, u) == pytest.approx(mass_ref(g, d), rel=1e-13)
    assert gc.dirichlet_energy(g, u) == pytest.approx(dirichlet_ref(g, d), rel=1e-13)
    assert gc.free_energy(g, u) == pytest.approx(free_energy_ref(g, d), rel=1e-12, abs=1e-12)
    rng = np.random.default_rng(seed)
    v = gc.VertexFunction(g.vertices, rng.uniform(-1, 1, g.n_vertices))
    assert complex(gc.d_inner(g, u, v)) == pytest.approx(
        complex(d_inner_ref(g, d, v.as_dict())), rel=1e-12, abs=1e-12
    )


# -- pointwise maps ---------------------------------------------------------------


def test_sign_conventions(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": -1.0, "b": 0.0, "c": 1.0})
    assert gc.sign_fn(u).as_dict() == {"a": -1.0, "b": 0.0, "c": 1.0}
    assert gc.sign_plus(u).as_dict() == {"a": 0.0, "b": 0.0, "c": 1.0}


def test_pos_part_identity_is_exact():
    rng = np.random.default_rng(5)
    for _, g in family_corpus(2):
        u = gc.random_vertex_function(g, rng, zero_prob=0.2, scale=3.0)
        pos = gc.pos_part(u).values
        half = 0.5 * (np.abs(u.values) + u.values)
        assert np.array_equal(pos, half)
        assert np.array_equal(pos, np.maximum(u.values, 0.0))


def test_pos_part_of_nonnegative_is_identity(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 2.0, "c": 5.0})
    assert np.array_equal(gc.pos_part(u).values, u.values)


def test_abs_fn_complex_modulus(p2):
    u = gc.VertexFunction.from_dict(p2, {"a": 3 + 4j, "b": -1j})
    a = gc.abs_fn(u)
    assert not a.is_complex
    assert a.as_dict() == {"a": 5.0, "b": 1.0}


def test_sign_variants_reject_complex(p2):
    u = gc.VertexFunction.constant(p2, 1j)
    for op in (gc.sign_fn, gc.sign_plus, gc.pos_part):
        with pytest.raises(gc.ComplexNotAllowedError):
            op(u)


# -- certificates ---------------------------------------------------------------------


def test_kato1_p2_frozen(p2):
    u = gc.VertexFunction.from_dict(p2, {"a": -1.0, "b": 1.0})
    report = gc.check_kato1(p2, u)
    assert report.slack == {"a": 4.0, "b": 4.0}
    assert report.passed


def test_kato1_nonnegative_slack_zero(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.5, "b": 2.0, "c": 0.0})
    report = gc.check_kato1(p3, u)
    assert all(s == 0.0 for s in report.slack.values())


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("complex_values", [False, True])
def test_kato1_random(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 2000, complex_values)
    assert gc.check_kato1(g, u, tol=1e-12).passed


def test_product_rule_p3_frozen(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 1.0, "c": 4.0})
    usq = gc.VertexFunction(p3.vertices, u.values**2)
    assert gc.laplacian(p3, usq)["b"] == 7.0  # 2*u*lap(u) + |grad u|^2 = 2 + 5
    report = gc.check_product_rule(p3, u, tol=1e-12)
    assert report.passed


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("complex_values", [False, True])
def test_product_rule_random(seed, complex_values):
    g, u = _rand_graph_and_values(seed + 3000, complex_values)
    report = gc.check_product_rule(g, u, tol=1e-12)
    assert report.passed
    assert report.min_slack >= -1e-12


def test_product_rule_constant(p3):
    report = gc.check_product_rule(p3, gc.VertexFunction.constant(p3, 2.0), tol=0.0)
    assert report.passed


def test_kato2_zero_branch_frozen(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": -1.0, "b": 0.0, "c": 1.0})
    rep_abs, rep_pos = gc.check_kato2(p3, u)
    # at the zero vertex the sign factor drops out, leaving lap|u|(b) = 1
    assert rep_abs.slack["b"] == 1.0
    assert rep_abs.passed and rep_pos.passed


def test_kato2_positive_function_equality(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.5, "b": 2.0, "c": 3.0})
    rep_abs, rep_pos = gc.check_kato2(p3, u, tol=0.0)
    assert all(s == 0.0 for s in rep_abs.slack.values())
    assert all(s == 0.0 for s in rep_pos.slack.values())


@pytest.mark.parametrize("seed", range(30))
def test_kato2_random_with_zeros(seed):
    rng = np.random.default_rng(seed + 4000)
    g, _ = _rand_graph_and_values(seed + 4000)
    u = gc.random_vertex_function(g, rng, zero_prob=0.1)
    rep_abs, rep_pos = gc.check_kato2(g, u, tol=1e-12)
    assert rep_abs.passed and rep_pos.passed


def test_kato2_rejects_complex(p2):
    with pytest.raises(gc.ComplexNotAllowedError):
        gc.check_kato2(p2, gc.VertexFunction.constant(p2, 1j))


@given(
    seed=st.integers(0, 10_000),
    complex_values=st.booleans(),
)
def test_certificates_hold_hypothesis(seed, complex_values):
    g, u = _rand_graph_and_values(seed, complex_values)
    assert gc.check_kato1(g, u, tol=1e-12).passed
    assert gc.check_product_rule(g, u, tol=1e-12).passed
    if not complex_values:
        rep_abs, rep_pos = gc.check_kato2(g, u, tol=1e-12)
        assert rep_abs.passed and rep_pos.passed


# -- report plumbing ---------------------------------------------------------------


def test_report_invariants(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.0, "b": 1.0, "c": 4.0})
    report = gc.check_kato1(p3, u)
    assert report.min_slack == min(report.slack.values())
    assert report.passed == (report.min_slack >= -report.tol)
    assert report.worst_vertex() in report.slack


def test_report_json_shape_and_roundtrip(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.3, "b": -1.7, "c": 0.9})
    report = gc.check_kato1(p3, u)
    obj = json.loads(report.to_json())
    assert list(obj.keys()) == ["check", "tol", "pass", "min_slack", "slack"]
    assert obj["check"] == "kato1"
    assert obj["pass"] is True
    # 17-digit formatting round-trips doubles exactly
    assert obj["min_slack"] == report.min_slack
    for v, s in report.slack.items():
        assert obj["slack"][v] == s


def test_report_empty_slack_passes_vacuously():
    report = gc.CertificateReport("empty", slack={}, tol=1e-10)
    assert report.passed
    assert report.min_slack == float("inf")


def test_report_verdict_is_derived_from_slack():
    failing = gc.CertificateReport(check="hand", tol=1e-10, slack={"a": -1.0, "b": 2.0})
    assert failing.min_slack == -1.0 and not failing.passed
    assert failing.worst_vertex() == "a"
    within_tol = gc.CertificateReport(check="hand", tol=0.5, slack={"a": -0.5})
    assert within_tol.passed
    assert gc.CertificateReport(check="hand", tol=0.0, slack={"a": 0.0}).passed
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(gc.BadParamsError, match="tol must be nonnegative and finite"):
            gc.CertificateReport(check="hand", tol=bad, slack={"a": 1.0})


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "values, first_nan",
    [([1.0, 1.0, 1e200, 1.0, 1.0], "v1"), ([1e200, 1.0, 1.0, 1.0, 1.0], "v0")],
)
def test_nan_slack_fails_the_report(values, first_nan):
    # |grad u|^2 overflows to inf on both sides of kato1 and inf - inf = NaN;
    # a NaN slack must fail wherever it sits, not be skipped or rejected
    g = gc.generate("path", n=5)
    u = gc.VertexFunction(g.vertices, np.array(values))
    for report in (gc.check_kato1(g, u), gc.check_product_rule(g, u)):
        assert any(np.isnan(s) for s in report.slack.values())
        assert not report.passed
        assert np.isnan(report.min_slack)
        assert report.worst_vertex() == first_nan


def test_report_accepts_consistent_nan():
    report = gc.CertificateReport(check="nan", tol=1e-10, slack={"a": 1.0, "b": float("nan")})
    assert not report.passed
    assert np.isnan(report.min_slack)
    assert report.worst_vertex() == "b"


def test_report_min_slack_is_first_minimal_entry():
    # np.min([0.0, -0.0]) is -0.0, which would be written as -0
    report = gc.CertificateReport("zeros", slack={"a": 0.0, "b": -0.0}, tol=0.0)
    assert report.min_slack == 0.0 and not np.signbit(report.min_slack)
    assert report.passed
    assert '"min_slack": 0,' in report.to_json()
    assert report.worst_vertex() == "a"


def test_worst_vertex_breaks_ties_by_smallest_key():
    # parabolic keys are not sorted: max[1], min[1], max[2], min[2], interior_sup[2]
    diag = gc.MaxPrincipleDiag(max_values=(1.0, 1.0, 1.0), min_values=(0.0, 0.0, 0.0), tol=2.0)
    report = gc.check_parabolic_max(diag)
    assert list(report.slack) == ["max[1]", "min[1]", "max[2]", "min[2]"]
    assert report.worst_vertex() == "max[1]"
    report = gc.CertificateReport("ties", slack={"c": -1.0, "b": 2.0, "a": -1.0}, tol=0.0)
    assert report.worst_vertex() == "a"
    # the gradient estimate covers a subset: u(v0) = 0 and lap u(v1) < 0
    # leave out v0 and v1, and v2..v4 tie at slack d - 1 = 1
    g = gc.generate("path", n=5)
    u = gc.VertexFunction(g.vertices, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    report = gc.verify_gradient_estimate(g, u)
    assert list(report.slack) == ["v2", "v3", "v4"]
    assert list(report.info["second_bound_slack"]) == ["v2", "v3", "v4"]
    assert report.min_slack == 1.0
    assert report.worst_vertex() == "v2"


def _producer_reports():
    g = gc.generate("gnp", n=9, p=0.5, seed=2, weight_sampler=lambda r, m: r.uniform(0.2, 3.0, m))
    rng = np.random.default_rng(17)
    u = gc.random_vertex_function(g, rng, zero_prob=0.2)
    uc = gc.random_vertex_function(g, rng, complex_values=True, zero_prob=0.2)
    Q = gc.Potential(gc.VertexFunction(g.vertices, rng.uniform(0.0, 2.0, g.n_vertices)))
    nonneg = gc.VertexFunction(g.vertices, np.abs(u.values))
    _, _, diag = gc.evolve_heat(g, u, gc.EvolutionConfig(dt=0.2, steps=12, scheme="heat_implicit"))
    kato2_abs, kato2_pos = gc.check_kato2(g, u)
    return {
        "kato1": gc.check_kato1(g, u),
        "kato1_complex": gc.check_kato1(g, uc),
        "kato2_abs": kato2_abs,
        "kato2_pos_part": kato2_pos,
        "product_rule": gc.check_product_rule(g, uc),
        "gl_bound": gc.verify_gl_bound(g, gc.VertexFunction.constant(g, np.exp(0.3j))),
        "subsolution": gc.check_subsolution(g, u, Q),
        "gradient_estimate": gc.verify_gradient_estimate(g, nonneg),
        "liouville_premises": gc.check_liouville_premises(g, nonneg, 2.0, 1.0),
        "parabolic_max": gc.check_parabolic_max(diag),
    }


# SHA-256 of each report's to_json(), recorded with the dict-based reports
# that built {vertex: float(slack)} per check
PRODUCER_REPORT_SHA256 = {
    "kato1": "37aa1acc5558841fec3c4e6ee899c4d43e78b6d07878ea2c2cdc5314fafa924f",
    "kato1_complex": "eb3f23a46b0f13f9b148e8ebf389b74b0cdd618d4b144fe783b56609077d2e1b",
    "kato2_abs": "b8c35ca35f9dbd5f6e45a17e28825e0fd47e09ae4dc493c336ecdac91a072a92",
    "kato2_pos_part": "0a191ea0644143220a2de24371c93642090243a2478e4190507d6157cda034d7",
    "product_rule": "a46efe41ef5248d703ac88eabcfa78aa373b6e3334ec8136199c6cfbebc4c2ba",
    "gl_bound": "16383da863f168ba80faf7864f6040a105f1356d40fffeea9c93f2abd0833f0c",
    "subsolution": "08f489b49fcfe929a3feb94c7bc6af32724d3eb4ff0de8bd4a0314bccecde56a",
    "gradient_estimate": "0e7232c0eec99be1429cd180e8412c37acd0aefc5136035017183984b7eadd40",
    "liouville_premises": "123add5d9b26a2fcb270654f26be068ca18d09c10c81f179a8d5d44a8044b038",
    "parabolic_max": "9deb4de0f0e3e8f24b5e17ac2d03ee313e3896fb1cdd863ad963f3dceb34e509",
}


def test_producer_reports_match_recorded_dicts():
    for name, report in _producer_reports().items():
        text = report.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PRODUCER_REPORT_SHA256[name], name
        assert report.slack == json.loads(text)["slack"], name
        assert report.min_slack == min(report.slack.values()), name


def test_domain_mismatch_raises(p2, p3):
    u = gc.VertexFunction.constant(p2, 1.0)
    for fn in (gc.grad_sq, gc.check_kato1, gc.check_product_rule):
        with pytest.raises(gc.DomainMismatchError):
            fn(p3, u)
    with pytest.raises(gc.DomainMismatchError):
        gc.mass(p3, u)
