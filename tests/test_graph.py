import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphcalc as gc
from conftest import family_corpus
from oracles import d_constant_ref, degrees_ref


# -- construction and validation ------------------------------------------------


def test_single_edge_degrees(p2):
    assert p2.vertices == ("a", "b")
    assert p2.degree("a") == 1.0 and p2.degree("b") == 1.0


def test_p3_degrees_match_oracle(p3):
    ref = degrees_ref(p3)
    assert ref == {"a": 1.0, "b": 2.0, "c": 1.0}
    for v in p3.vertices:
        assert p3.degree(v) == ref[v]


def test_degrees_cache_matches_recomputation_exactly():
    for _, g in family_corpus(3):
        ref = degrees_ref(g)
        for i, v in enumerate(g.vertices):
            assert g.degrees[i] == ref[v]


def test_self_loop_rejected():
    with pytest.raises(gc.SelfLoopError, match="'a'"):
        gc.build_graph([("a", "a", 1.0)])


def test_duplicate_edge_rejected_either_orientation():
    with pytest.raises(gc.DuplicateEdgeError):
        gc.build_graph([("a", "b", 1.0), ("b", "a", 2.0)])
    with pytest.raises(gc.DuplicateEdgeError):
        gc.build_graph([("a", "b", 1.0), ("a", "b", 1.0), ("b", "c", 1.0)])


def test_nonpositive_weight_rejected():
    for w in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(gc.NonPositiveWeightError):
            gc.build_graph([("a", "b", w)])


def test_disconnected_rejected():
    with pytest.raises(gc.DisconnectedError):
        gc.build_graph([("a", "b", 1.0), ("c", "d", 1.0)])


def test_bad_vertex_ids_rejected():
    with pytest.raises(gc.BadParamsError):
        gc.build_graph([("a b", "c", 1.0)])
    with pytest.raises(gc.BadParamsError):
        gc.build_graph([("", "c", 1.0)])
    for bad in ("c\td", "c\u2003d", " c", "c\n", None, 3, ["c"]):
        with pytest.raises(gc.BadParamsError, match="non-empty strings without whitespace"):
            gc.build_graph([("a", "b", 1.0), ("b", bad, 1.0)])


def test_first_bad_record_reports_its_error():
    # ids already accepted are not validated again, but the first bad record
    # still decides the error class, message and record number
    records = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "c", 1.0), ("c d", "a", 1.0)]
    with pytest.raises(gc.SelfLoopError, match=r"^record 2: self-loop at vertex 'c'$"):
        gc.build_graph(records)
    records = [("a", "b", 1.0), ("b", "c", 1.0), ("c d", "a", 1.0), ("c", "c", 1.0)]
    with pytest.raises(gc.BadParamsError, match="got 'c d'"):
        gc.build_graph(records)
    records = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "b", 2.0)]
    with pytest.raises(gc.DuplicateEdgeError, match=r"^record 2: .* already seen at record 1$"):
        gc.build_graph(records)


def test_disconnected_message_lists_unreachable_vertices():
    records = [("c", "d", 1.0), ("a", "b", 1.0), ("e", "f", 1.0), ("b", "z", 1.0)]
    with pytest.raises(gc.DisconnectedError, match=r"contains \['c', 'd', 'e', 'f'\]$"):
        gc.build_graph(records)


def test_graph_is_immutable(p3):
    with pytest.raises(ValueError):
        p3.degrees[0] = 5.0


def test_neighbors_canonical_order():
    g = gc.build_graph([("m", "z", 1.0), ("m", "a", 1.0), ("m", "k", 1.0)])
    assert g.neighbors("m") == ("a", "k", "z")


# -- generators -------------------------------------------------------------------


def test_complete_k3_all_degree_two(k3):
    assert k3.n_vertices == 3 and k3.n_edges == 3
    assert np.all(k3.degrees == 2.0)


def test_path_degrees():
    g = gc.generate("path", n=3)
    assert [g.degree(v) for v in g.vertices] == [1.0, 2.0, 1.0]


def test_star_center_degree(star5):
    assert star5.degree("v0") == 4.0
    assert all(star5.degree(v) == 1.0 for v in star5.vertices[1:])


def test_cycle_degrees():
    g = gc.generate("cycle", n=5)
    assert np.all(g.degrees == 2.0)
    assert g.n_edges == 5


def test_grid2d_shape():
    g = gc.generate("grid2d", rows=2, cols=3)
    assert g.n_vertices == 6
    # 2 horizontal edges per row x 2 rows, plus 3 vertical rungs
    assert g.n_edges == 7


def test_gnp_deterministic_for_seed():
    g1 = gc.generate("gnp", n=20, p=0.3, seed=42)
    g2 = gc.generate("gnp", n=20, p=0.3, seed=42)
    assert g1 == g2
    g3 = gc.generate("gnp", n=20, p=0.3, seed=43)
    assert g1 != g3


def _gnp_loop_ref(n, p, seed):
    """The nested-loop pair list the vectorized gnp draw replaced."""
    rng = np.random.default_rng(seed)
    names = [f"v{i:0{len(str(n - 1))}d}" for i in range(n)]
    all_pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    for _ in range(gc.graph.GNP_RETRY_BUDGET):
        mask = rng.random(len(all_pairs)) < p
        pairs = [pq for pq, keep in zip(all_pairs, mask) if keep]
        if len({v for pq in pairs for v in pq}) < n:
            continue
        weights = rng.uniform(0.5, 2.0, len(pairs))
        try:
            return gc.build_graph([(x, y, float(w)) for (x, y), w in zip(pairs, weights)])
        except gc.DisconnectedError:
            continue
    return None


@pytest.mark.parametrize("n, p", [(12, 0.2), (30, 0.12), (40, 0.5)])
def test_gnp_matches_loop_reference(n, p):
    sampler = lambda r, m: r.uniform(0.5, 2.0, m)
    for seed in range(4):
        ref = _gnp_loop_ref(n, p, seed)
        assert ref is not None
        assert gc.generate("gnp", n=n, p=p, seed=seed, weight_sampler=sampler) == ref


def test_gnp_disconnected_draw_errors():
    with pytest.raises(gc.DisconnectedDrawError):
        gc.generate("gnp", n=40, p=0.001, seed=0)


def test_generator_bad_params():
    with pytest.raises(gc.BadParamsError):
        gc.generate("path", n=1)
    with pytest.raises(gc.BadParamsError):
        gc.generate("cycle", n=2)
    with pytest.raises(gc.BadParamsError):
        gc.generate("grid2d", rows=1, cols=5)
    with pytest.raises(gc.BadParamsError):
        gc.generate("gnp", n=10, p=1.5, seed=0)
    with pytest.raises(gc.BadParamsError):
        gc.generate("moebius", n=10)
    with pytest.raises(gc.BadParamsError):
        gc.generate("path", n=4, weight=-1.0)


def test_weight_sampler_applied():
    sampler = lambda rng, m: rng.uniform(0.5, 2.0, m)
    g = gc.generate("path", n=5, seed=3, weight_sampler=sampler)
    weights = {w for _, _, w in g.edges}
    assert len(weights) > 1
    assert all(0.5 <= w <= 2.0 for w in weights)


# -- d_constant ---------------------------------------------------------------------


def test_d_constant_frozen_cases(p2, k3, star5):
    assert gc.d_constant(p2) == 1.0
    assert gc.d_constant(k3) == 2.0
    assert gc.d_constant(star5) == 4.0


def test_d_constant_matches_oracle_and_at_least_one():
    for _, g in family_corpus(3):
        d = gc.d_constant(g)
        assert d == pytest.approx(d_constant_ref(g), rel=1e-15)
        assert d >= 1.0


def test_d_constant_equals_one_iff_single_edge(p2):
    # equality requires every vertex to have exactly one incident edge,
    # which on a connected graph means the single-edge graph
    assert gc.d_constant(p2) == 1.0
    for _, g in family_corpus(2):
        if g.n_edges > 1:
            assert gc.d_constant(g) > 1.0


# -- handshake invariant --------------------------------------------------------------


def test_handshake_identity():
    for _, g in family_corpus(4):
        total_degree = float(np.sum(g.degrees))
        twice_weight = 2.0 * sum(w for _, _, w in g.edges)
        assert total_degree == pytest.approx(twice_weight, rel=1e-12)


@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
)
def test_handshake_identity_hypothesis(n, seed):
    rng = np.random.default_rng(seed)
    records = []
    names = [f"v{i}" for i in range(n)]
    for i in range(1, n):
        j = int(rng.integers(0, i))
        records.append((names[j], names[i], float(rng.uniform(0.1, 5.0))))
    g = gc.build_graph(records)
    assert float(np.sum(g.degrees)) == pytest.approx(
        2.0 * sum(w for _, _, w in g.edges), rel=1e-12
    )


# -- serialization --------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    for _, g in family_corpus(3):
        path = tmp_path / "g.edges"
        gc.write_edge_list(g, path)
        g2 = gc.read_edge_list(path)
        assert g2 == g


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# header comment\n\na b 1.5\n# another\nb c 2.5\n")
    g = gc.read_edge_list(path)
    assert g.edges == (("a", "b", 1.5), ("b", "c", 2.5))


def test_edge_list_malformed(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("a b\n")
    with pytest.raises(gc.FileFormatError):
        gc.read_edge_list(path)
    path.write_text("a b xyz\n")
    with pytest.raises(gc.FileFormatError):
        gc.read_edge_list(path)
    path.write_text("# only comments\n")
    with pytest.raises(gc.FileFormatError):
        gc.read_edge_list(path)


def test_edge_list_duplicate_pair_rejected(tmp_path):
    path = tmp_path / "dup.edges"
    path.write_text("a b 1.0\nb a 2.0\n")
    with pytest.raises(gc.DuplicateEdgeError):
        gc.read_edge_list(path)


def test_vertex_function_round_trip_real(tmp_path, p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 0.1, "b": -2.5, "c": 1 / 3})
    path = tmp_path / "u.json"
    gc.write_vertex_function(u, path)
    u2 = gc.read_vertex_function(path, p3)
    assert not u2.is_complex
    assert np.array_equal(u2.values, u.values)


def test_vertex_function_round_trip_complex(tmp_path, p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 1 + 2j, "b": 0.25j, "c": -1.0 + 0j})
    path = tmp_path / "u.json"
    gc.write_vertex_function(u, path)
    u2 = gc.read_vertex_function(path, p3)
    assert u2.is_complex
    assert np.array_equal(u2.values, u.values)


def test_vertex_function_file_domain_errors(tmp_path, p3):
    path = tmp_path / "u.json"
    path.write_text('{"a": 1.0, "b": 2.0}')
    with pytest.raises(gc.DomainMismatchError):
        gc.read_vertex_function(path, p3)
    path.write_text('{"a": 1.0, "b": 2.0, "c": 3.0, "zz": 4.0}')
    with pytest.raises(gc.DomainMismatchError):
        gc.read_vertex_function(path, p3)
    path.write_text('{"a": 1.0, "b": "x", "c": 3.0}')
    with pytest.raises(gc.FileFormatError):
        gc.read_vertex_function(path, p3)
    path.write_text("not json")
    with pytest.raises(gc.FileFormatError):
        gc.read_vertex_function(path, p3)


# -- vertex functions ------------------------------------------------------------------


def test_vertex_function_rejects_nonfinite(p3):
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": float("nan"), "c": 0.0})
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": float("inf"), "c": 0.0})
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": complex("nan"), "c": 0.0})


def test_vertex_function_domain_must_match(p3, p2):
    u = gc.VertexFunction.constant(p2, 1.0)
    with pytest.raises(gc.DomainMismatchError):
        gc.laplacian(p3, u)


def test_vertex_function_accessors(p3):
    u = gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": 2.0, "c": 3.0})
    assert u["b"] == 2.0
    assert len(u) == 3
    assert u.as_dict() == {"a": 1.0, "b": 2.0, "c": 3.0}
    with pytest.raises(gc.DomainMismatchError):
        u["zz"]


def test_random_vertex_function_properties(k5):
    rng = np.random.default_rng(0)
    u = gc.random_vertex_function(k5, rng, zero_prob=0.5)
    assert not u.is_complex
    assert np.all(np.abs(u.values) <= 1.0)
    z = gc.random_vertex_function(k5, rng, complex_values=True, scale=2.0)
    assert z.is_complex
    assert np.all(np.abs(z.values) <= 2.0)
