import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphcalc as gc
from conftest import family_corpus
from oracles import construction_ref, d_constant_ref, degrees_ref


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
    # the CSR index arrays steer every neighbor sum: a write to _row_ptr
    # would silently change laplacian(g, u)
    w = p3.weight_matrix
    for arr in (p3._row_ptr, w.indptr, w.indices, w.data):
        with pytest.raises(ValueError):
            arr[1] = 0


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_records(rng, sizes, max_extra):
    """Shuffled records of one random connected graph per entry of ``sizes``.

    Names are unpadded integers, so their lexicographic order is not the
    numeric one; every record has a random weight and, half the time, its
    endpoints reversed.
    """
    labels = rng.permutation(sum(sizes))
    records, start = [], 0
    for size in sizes:
        names = [f"v{label}" for label in labels[start : start + size]]
        start += size
        pairs = {(int(rng.integers(i)), i) for i in range(1, size)}  # spanning tree
        extra = int(rng.integers(0, min(max_extra, size * (size - 1) // 2 - (size - 1)) + 1))
        while len(pairs) < size - 1 + extra:
            i, j = sorted(rng.choice(size, 2, replace=False).tolist())
            pairs.add((i, j))
        for i, j in pairs:
            x, y = (names[i], names[j]) if rng.random() < 0.5 else (names[j], names[i])
            records.append((x, y, float(rng.uniform(0.1, 5.0))))
    return [records[k] for k in rng.permutation(len(records))]


def _assert_matches_reference(records, dense=True):
    g = gc.build_graph(records)
    ref = construction_ref(records)
    assert ref["disconnected"] is None
    assert g.vertices == ref["vertices"]
    assert np.array_equal(g._row_ptr, ref["row_ptr"])
    for got, want in (
        (g._ent_cols, ref["cols"]),
        (g._ent_w, ref["w"]),
        (g._ent_coef, ref["coef"]),
        (g.degrees, ref["degrees"]),
        (g.weight_matrix.data, ref["weights"].data),
        (g.weight_matrix.indices, ref["weights"].indices),
        (g.weight_matrix.indptr, ref["weights"].indptr),
    ):
        assert _same_bits(got, want)
    if dense:
        want = ref["weights"].toarray() / ref["degrees"][:, None]
        assert _same_bits(g.dense_transition(), want)


def test_construction_matches_scipy_reference():
    rng = np.random.default_rng(20)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        _assert_matches_reference(_random_records(rng, [n], max_extra=3 * n))


def test_construction_randomly_labelled_long_path():
    # a randomly labelled path makes the connectivity check take several
    # hook rounds before every vertex shares one root
    rng = np.random.default_rng(21)
    n = 10_000
    names = [f"v{label}" for label in rng.permutation(n)]
    records = [(names[i], names[i + 1], float(rng.uniform(0.1, 5.0))) for i in range(n - 1)]
    records = [records[k] for k in rng.permutation(n - 1)]
    _assert_matches_reference(records, dense=False)


def test_disconnected_components_match_scipy_reference():
    rng = np.random.default_rng(22)
    for k in range(2, 7):
        for _ in range(5):
            sizes = rng.integers(2, 12, size=k).tolist()
            records = _random_records(rng, sizes, max_extra=6)
            expected = construction_ref(records)["disconnected"]
            assert expected is not None
            with pytest.raises(gc.DisconnectedError) as excinfo:
                gc.build_graph(records)
            assert str(excinfo.value) == expected


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
    with pytest.raises(gc.DomainMismatchError, match=r"^vertex 'zz' not in function domain$"):
        u["zz"]
    # a missing vertex looked up before any other, and an unhashable key
    fresh = gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": 2.0, "c": 3.0})
    with pytest.raises(gc.DomainMismatchError, match=r"^vertex 'zz' not in function domain$"):
        fresh["zz"]
    with pytest.raises(gc.DomainMismatchError, match=r"^vertex \['a'\] not in function domain$"):
        fresh[["a"]]
    assert [fresh[v] for v in p3.vertices] == [1.0, 2.0, 3.0]


def test_random_vertex_function_properties(k5):
    rng = np.random.default_rng(0)
    u = gc.random_vertex_function(k5, rng, zero_prob=0.5)
    assert not u.is_complex
    assert np.all(np.abs(u.values) <= 1.0)
    z = gc.random_vertex_function(k5, rng, complex_values=True, scale=2.0)
    assert z.is_complex
    assert np.all(np.abs(z.values) <= 2.0)
