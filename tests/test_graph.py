import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphcalc as gc
from graphcalc import graph
from graphcalc.serialize import fmt_float
from conftest import family_corpus
from oracles import (
    construction_ref,
    d_constant_ref,
    degrees_ref,
    generate_ref,
    write_edge_list_ref,
)


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


# One record per kind of error; the first bad record in the list decides.
_GOOD = [("a", "b", 1.0), ("b", "c", 2.0)]
_BAD = {
    "id": (("c d", "a", 1.0), gc.BadParamsError, lambda k: r"^vertex ids .* got 'c d'$"),
    "loop": (("c", "c", 1.0), gc.SelfLoopError, lambda k: rf"^record {k}: self-loop at vertex 'c'$"),
    "weight": (
        ("c", "a", -1.0),
        gc.NonPositiveWeightError,
        lambda k: rf"^record {k}: edge \('c', 'a'\) has non-positive weight -1.0$",
    ),
    "duplicate": (
        ("b", "a", 3.0),
        gc.DuplicateEdgeError,
        lambda k: rf"^record {k}: unordered pair \('a', 'b'\) already seen at record 0$",
    ),
}


@pytest.mark.parametrize("order", list(itertools.permutations(_BAD)), ids="-".join)
def test_multi_error_records_raise_first_bad(order):
    bad = [_BAD[kind][0] for kind in order]
    _, error, message = _BAD[order[0]]
    # bad records after the good ones, then interleaved with them
    for records, first in (
        (_GOOD + bad, len(_GOOD)),
        ([_GOOD[0], bad[0], _GOOD[1], *bad[1:]], 1),
    ):
        with pytest.raises(error, match=message(first)):
            gc.build_graph(records)


def test_record_with_several_faults_reports_them_in_check_order():
    # ids, then self-loop, then weight, then repeated pair
    with pytest.raises(gc.BadParamsError, match="got 'a b'"):
        gc.build_graph([("a", "b", 1.0), ("a b", "a b", -1.0)])
    with pytest.raises(gc.SelfLoopError, match=r"^record 1: self-loop"):
        gc.build_graph([("a", "b", 1.0), ("b", "b", -1.0)])
    with pytest.raises(gc.NonPositiveWeightError, match=r"^record 1: .* non-positive weight 0.0$"):
        gc.build_graph([("a", "b", 1.0), ("b", "a", 0.0)])
    with pytest.raises(gc.NonPositiveWeightError, match=r"^record 2: .*'x', which does not convert"):
        gc.build_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "b", "x")])


def test_malformed_records_name_the_record():
    for bad in (("a", "b", "x"), ("a", "b", None), ("a", "b", [1.0]), ("a", "b", 10**400)):
        with pytest.raises(gc.NonPositiveWeightError, match=r"^record 1: edge \('a', 'b'\) has weight "):
            gc.build_graph([("b", "c", 1.0), bad])
    for bad in (("a", "b"), ("a", "b", 1.0, 2.0), None, 5, ()):
        with pytest.raises(gc.BadParamsError, match=r"^record 1: expected an \(x, y, mu\) triple"):
            gc.build_graph([("b", "c", 1.0), bad])
    # an unhashable id is an invalid id
    with pytest.raises(gc.BadParamsError, match=r"got \['c'\]$"):
        gc.build_graph([("a", "b", 1.0), (["c"], "a", "x")])
    # an earlier bad record still wins over a later malformed one
    with pytest.raises(gc.SelfLoopError, match=r"^record 0:"):
        gc.build_graph([("a", "a", 1.0), ("a", "b")])
    with pytest.raises(gc.DuplicateEdgeError, match=r"^record 1:"):
        gc.build_graph([("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", "x")])
    with pytest.raises(gc.BadParamsError, match="at least one edge"):
        gc.build_graph([])


def test_weights_that_float_accepts_are_accepted():
    g = gc.build_graph([("a", "b", True), ("b", "c", "1.5"), ("c", "d", 2), ("d", "e", np.float32(0.25))])
    assert g.edges == (("a", "b", 1.0), ("b", "c", 1.5), ("c", "d", 2.0), ("d", "e", 0.25))


def test_index_of_builds_its_lookup_on_first_use():
    g = gc.generate("grid2d", rows=3, cols=4)
    assert g._index is None
    assert [g.index_of(v) for v in g.vertices] == list(range(g.n_vertices))
    assert g.degree("r1c1") == 4.0 and g.neighbors("r0c0") == ("r0c1", "r1c0")
    with pytest.raises(gc.DomainMismatchError, match=r"^vertex 'zz' is not in the graph$"):
        g.index_of("zz")


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


def _assert_matches_reference(records):
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
    _assert_matches_reference(records)


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


def test_equality_and_hash_ignore_record_order():
    rng = np.random.default_rng(24)
    for _ in range(10):
        records = _random_records(rng, [int(rng.integers(2, 30))], max_extra=20)
        shuffled = [records[k] for k in rng.permutation(len(records))]
        g1, g2 = gc.build_graph(records), gc.build_graph(shuffled)
        assert g1 == g2 and hash(g1) == hash(g2)
        x, y, mu = records[0]
        g3 = gc.build_graph([(x, y, 2.0 * mu)] + records[1:])
        assert g3.vertices == g1.vertices and g3 != g1


def _assert_same_graph(g, ref, tmp_path):
    assert g == ref and hash(g) == hash(ref)
    assert g.vertices == ref.vertices
    assert _same_bits(g._ent_coef, ref._ent_coef)
    assert _same_bits(g.degrees, ref.degrees)
    gc.write_edge_list(g, tmp_path / "g.edges")
    gc.write_edge_list(ref, tmp_path / "ref.edges")
    assert (tmp_path / "g.edges").read_bytes() == (tmp_path / "ref.edges").read_bytes()


_GENERATOR_CASES = [
    ("path", {"n": 2}),
    ("path", {"n": 11}),
    ("cycle", {"n": 3}),
    ("cycle", {"n": 101}),
    ("complete", {"n": 2}),
    ("complete", {"n": 13}),
    ("star", {"n": 2}),
    ("star", {"n": 12}),
    ("grid2d", {"rows": 2, "cols": 2}),
    ("grid2d", {"rows": 3, "cols": 11}),
    ("grid2d", {"rows": 12, "cols": 5}),
    ("grid2d", {"rows": 10, "cols": 100}),
]


@pytest.mark.parametrize(
    "family, kw", _GENERATOR_CASES, ids=[f"{f}-{'-'.join(map(str, kw.values()))}" for f, kw in _GENERATOR_CASES]
)
@pytest.mark.parametrize("weights", ["uniform", "sampler"])
def test_generators_match_record_reference(tmp_path, family, kw, weights):
    wkw = (
        {"weight": 2.5}
        if weights == "uniform"
        else {"weight_sampler": lambda r, m: r.uniform(0.1, 5.0, m)}
    )
    for seed in range(2):
        g = gc.generate(family, seed=seed, **kw, **wkw)
        ref = generate_ref(family, seed=seed, **kw, **wkw)
        _assert_same_graph(g, ref, tmp_path)


@pytest.mark.parametrize("n, p", [(12, 0.2), (30, 0.12), (40, 0.5)])
def test_gnp_matches_loop_reference(tmp_path, n, p):
    sampler = lambda r, m: r.uniform(0.5, 2.0, m)
    for seed in range(5):
        for wkw in ({"weight": 1.5}, {"weight_sampler": sampler}):
            ref = generate_ref("gnp", n=n, p=p, seed=seed, **wkw)
            assert ref is not None
            _assert_same_graph(gc.generate("gnp", n=n, p=p, seed=seed, **wkw), ref, tmp_path)


@pytest.mark.parametrize("block", [1, 7, 40])
def test_gnp_blocks_keep_the_pair_stream(monkeypatch, tmp_path, block):
    # blocks of one row each (1), of one long row or a few short ones (7) and
    # of several rows (40) draw the uniforms of one pass over all pairs
    monkeypatch.setattr(graph, "_GNP_BLOCK_PAIRS", block)
    for seed in range(5):
        ref = generate_ref("gnp", n=12, p=0.2, seed=seed, weight=1.5)
        _assert_same_graph(gc.generate("gnp", n=12, p=0.2, seed=seed, weight=1.5), ref, tmp_path)


def test_gnp_memory_does_not_grow_with_the_pair_count():
    # 17,997,000 candidate pairs: one uniform and two indices for each at once
    # peaked at 450 MB, and blocks of 2^20 pairs at 10 MB. numpy.random is
    # imported before tracing starts, so its import does not count.
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        g = gc.generate("gnp", n=6000, p=10 / 6000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_vertices == 6000
    assert peak < 6e6, peak


def _traced(fn):
    """fn()'s result, the traced memory it leaves allocated and its traced
    peak, both counted from the call's start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - start, peak - start


def _grid300():
    return gc.generate("grid2d", rows=300, cols=300)


@pytest.fixture(scope="module")
def grid300_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid300") / "grid300.edges"
    gc.write_edge_list(_grid300(), path)
    return path


# Building, writing or reading a graph holds at most half the finished
# graph again in transients: no whole-graph Python objects, and a few
# arrays of 2|E| entries at most.


def test_generate_memory_stays_near_the_graph_size():
    g, size, peak = _traced(_grid300)
    assert g.n_edges == 179_400
    assert peak <= 1.5 * size, (peak, size)


def test_write_edge_list_memory_stays_near_the_graph_size(tmp_path):
    def generate_then_write():
        g = _grid300()
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gc.write_edge_list(g, tmp_path / "g.edges")
        return size

    size, _, peak = _traced(generate_then_write)
    assert peak <= 1.5 * size, (peak, size)


def test_read_edge_list_memory_stays_near_the_graph_size(grid300_file):
    g, size, peak = _traced(lambda: gc.read_edge_list(grid300_file))
    assert g.n_edges == 179_400
    assert peak <= 1.5 * size, (peak, size)
    # the unranked records are freed once ranked (see below)
    assert peak <= 1.15 * size, (peak, size)


def test_build_frees_the_unranked_records():
    # The records' unranked index and weight arrays (24 bytes per edge,
    # 4.3 MB here) are freed once ranked, not kept by the caller until the
    # build ends, where its peak is: 1.08x the graph here, and 1.36x when
    # they were kept.
    _, size, peak = _traced(_grid300)
    assert peak <= 1.15 * size, (peak, size)


def test_gnp_reference_seeds_redraw_for_both_reasons():
    # the draws test_gnp_matches_loop_reference compares include samples
    # redrawn for an isolated vertex and for a disconnected graph
    rejected = []
    for seed in range(5):
        generate_ref("gnp", n=12, p=0.2, seed=seed, rejected=rejected)
    assert {"isolated", "disconnected"} <= set(rejected)


def test_relabelled_shuffled_family_records_match_reference(tmp_path):
    # every family's records under random labels (string order unrelated to
    # the generator's), shuffled, with random orientations
    rng = np.random.default_rng(25)
    for _, g in family_corpus(3):
        label = dict(zip(g.vertices, (f"u{k}" for k in rng.permutation(g.n_vertices))))
        records = [
            (label[x], label[y], mu) if rng.random() < 0.5 else (label[y], label[x], mu)
            for x, y, mu in g.edges
        ]
        records = [records[k] for k in rng.permutation(len(records))]
        _assert_matches_reference(records)
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{x} {y} {fmt_float(mu)}\n" for x, y, mu in records))
        assert gc.read_edge_list(path) == gc.build_graph(records)


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
    for weight in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError, match="uniform edge weight must be positive and finite"):
            gc.generate("path", n=4, weight=weight)


def test_weight_sampler_applied():
    sampler = lambda rng, m: rng.uniform(0.5, 2.0, m)
    g = gc.generate("path", n=5, seed=3, weight_sampler=sampler)
    weights = {w for _, _, w in g.edges}
    assert len(weights) > 1
    assert all(0.5 <= w <= 2.0 for w in weights)
    with pytest.raises(gc.BadParamsError, match="one weight per edge"):
        gc.generate("path", n=5, seed=3, weight_sampler=lambda rng, m: rng.uniform(0.5, 2.0, m + 1))


def test_fmt_float_non_finite_reads_back():
    for x, text in ((np.nan, "NaN"), (np.inf, "Infinity"), (-np.inf, "-Infinity")):
        assert fmt_float(x) == text
        assert np.array_equal(json.loads(fmt_float(x)), x, equal_nan=True)


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
        # every id the reader accepts passes the record rule
        assert gc.build_graph(g2.edges) == g2


# SHA-256 of write_edge_list's bytes, recorded when the graph still kept a
# sorted tuple of edge records
EDGE_LIST_SHA256 = {
    "gnp_weighted": "fb43d9272b2d59ecadcf674ebc4eff4de8f400a4944045397e28e7bacebc89bf",
    "random_labels": "b33af84384ce569347f4a0010772671df44a58872408957c00d18818dc4ea9f2",
}


def test_edge_list_bytes_match_recorded(tmp_path):
    sampler = lambda r, m: r.uniform(0.1, 5.0, m)
    graphs = {
        "gnp_weighted": gc.generate("gnp", n=30, p=0.3, seed=7, weight_sampler=sampler),
        # unpadded labels, so string order differs from numeric order
        "random_labels": gc.build_graph(
            _random_records(np.random.default_rng(23), [30], max_extra=40)
        ),
    }
    for name, g in graphs.items():
        path = tmp_path / f"{name}.edges"
        gc.write_edge_list(g, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EDGE_LIST_SHA256[name], name
        lines = path.read_text().splitlines()
        assert lines == [f"{x} {y} {fmt_float(mu)}" for x, y, mu in g.edges]


def _weight_runs(n, runs):
    """A path on n vertices whose weights come in runs of the given lengths,
    cycling through 1.5, 0.25 and 1/3."""
    w = [mu for k, r in enumerate(runs) for mu in [(1.5, 0.25, 1 / 3)[k % 3]] * r]
    return gc.build_graph([(f"v{i:03d}", f"v{i + 1:03d}", w[i]) for i in range(n - 1)])


_WRITER_GRAPHS = {
    "runs": _weight_runs(30, [1, 2, 3, 4, 1, 1, 5, 2, 10]),
    "star": gc.generate("star", n=20, seed=1, weight_sampler=lambda r, m: r.choice([1.0, 2.5], m)),
    "complete": gc.generate("complete", n=9, weight=0.1),
    "complete_weighted": gc.generate(
        "complete", n=9, seed=2, weight_sampler=lambda r, m: r.choice([0.5, 3.0], m)
    ),
    **dict(family_corpus(2)),
}


@pytest.mark.parametrize("block", [1, 2, 7])
def test_blocked_writer_matches_one_pass_writer(monkeypatch, tmp_path, block):
    # A block of 1, 2 or 7 CSR entries splits the star's centre row and the
    # complete graph's rows across blocks, and puts weight changes at block
    # boundaries. The weight last formatted carries over from block to
    # block, so fmt_float runs once per change of weight along the list.
    calls = []
    monkeypatch.setattr(graph, "_WRITE_BLOCK_ENTRIES", block)
    monkeypatch.setattr(graph, "fmt_float", lambda mu: calls.append(mu) or fmt_float(mu))
    for name, g in _WRITER_GRAPHS.items():
        calls.clear()
        gc.write_edge_list(g, tmp_path / "g.edges")
        write_edge_list_ref(g, tmp_path / "ref.edges")
        assert (tmp_path / "g.edges").read_bytes() == (tmp_path / "ref.edges").read_bytes(), name
        weights = [mu for _, _, mu in g.edges]
        changes = [mu for k, mu in enumerate(weights) if k == 0 or mu != weights[k - 1]]
        assert calls == changes, name


# One bad edge-list line per kind of error, with the error it raises as the
# first bad line (k: its record number, n: its line number). Lines that do
# not parse are found while reading, before any record is checked.
_BAD_LINES = {
    "fields": ("c a", gc.FileFormatError, lambda k, n: rf"^.*bad\.edges:{n}: expected `<x> <y> <mu>`, got 'c a'$"),
    "number": ("c a 1,5", gc.FileFormatError, lambda k, n: rf"^.*bad\.edges:{n}: weight '1,5' is not a number$"),
    "loop": ("c c 1", gc.SelfLoopError, lambda k, n: rf"^record {k}: self-loop at vertex 'c'$"),
    "weight": (
        "c a -1",
        gc.NonPositiveWeightError,
        lambda k, n: rf"^record {k}: edge \('c', 'a'\) has non-positive weight -1.0$",
    ),
    "nan": (
        "c a nan",
        gc.NonPositiveWeightError,
        lambda k, n: rf"^record {k}: edge \('c', 'a'\) has non-positive weight nan$",
    ),
    "duplicate": (
        "b a 1",
        gc.DuplicateEdgeError,
        lambda k, n: rf"^record {k}: unordered pair \('a', 'b'\) already seen at record 0$",
    ),
}
_PARSE_ERRORS = ("fields", "number")


@pytest.mark.parametrize("order", list(itertools.permutations(_BAD_LINES, 2)), ids="-".join)
def test_edge_list_first_bad_line_decides(tmp_path, order):
    # good records, so a bad weight follows a parsed one; comments of three
    # and of four tokens
    head = ["# a comment", "a b 1", "", "#x y z w", "b c 1"]
    lines = head + [_BAD_LINES[kind][0] for kind in order] + ["c d 1"]
    parse = [kind for kind in order if kind in _PARSE_ERRORS]
    first = parse[0] if parse else order[0]
    _, error, message = _BAD_LINES[first]
    n = len(head) + order.index(first) + 1
    path = tmp_path / "bad.edges"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=message(order.index(first) + 2, n)):
        gc.read_edge_list(path)
    if not parse:
        # the same records given to the constructor raise the same error
        records = [tuple(line.split()) for line in lines if line and line[0] != "#"]
        with pytest.raises(error, match=message(order.index(first) + 2, n)):
            gc.WeightedGraph(records)


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
    # a repeated key is not last-wins
    path.write_text('{"a": 1, "a": 5, "b": 0, "c": 0}')
    with pytest.raises(gc.FileFormatError, match="invalid JSON \\(key 'a' repeated in one object\\)$"):
        gc.read_vertex_function(path, p3)
    # a bool is not a number, alone or in a pair, and a pair has two parts
    for bad in ("true", "[1, false]", "[1, 2, 3]"):
        path.write_text(f'{{"a": {bad}, "b": 2.0, "c": 3.0}}')
        with pytest.raises(gc.FileFormatError):
            gc.read_vertex_function(path, p3)
    # every number is read as a double: an integer beyond the double range
    # is infinite, as 1e400 is, in a real value or a pair
    for big in ("1" * 400, "[1, -" + "1" * 400 + "]", "1e400"):
        path.write_text(f'{{"a": 1, "b": {big}, "c": 3}}')
        with pytest.raises(gc.NonFiniteValueError, match="^non-finite value at vertex 'b'$"):
            gc.read_vertex_function(path, p3)


# -- vertex functions ------------------------------------------------------------------


def test_vertex_function_rejects_nonfinite(p3):
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": float("nan"), "c": 0.0})
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": float("inf"), "c": 0.0})
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": complex("nan"), "c": 0.0})
    # only the imaginary part is non-finite
    with pytest.raises(gc.NonFiniteValueError):
        gc.VertexFunction.from_dict(p3, {"a": 1.0, "b": complex(1.0, float("inf")), "c": 0.0})
    # a None value, beside a real or a numpy complex one
    for other in (1.0, np.complex64(1j)):
        with pytest.raises(gc.NonFiniteValueError):
            gc.VertexFunction.from_dict(p3, {"a": other, "b": None, "c": 0.0})


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
    # a numpy complex64 constant keeps its imaginary part
    z = gc.VertexFunction.constant(p3, np.complex64(1 + 1j))
    assert z.is_complex
    assert z.values.dtype == np.complex128
    assert z.as_dict() == {"a": 1 + 1j, "b": 1 + 1j, "c": 1 + 1j}
    # and so does a numpy complex64 value in a mapping
    w = gc.VertexFunction.from_dict(p3, {"a": np.complex64(1 + 1j), "b": 0.0, "c": 2})
    assert w.is_complex
    assert w.as_dict() == {"a": 1 + 1j, "b": 0j, "c": 2 + 0j}
    # numpy holds an int beyond int64 as an object; it still converts
    assert gc.VertexFunction.constant(p3, 10**20).as_dict() == {"a": 1e20, "b": 1e20, "c": 1e20}


def test_random_vertex_function_properties(k5):
    rng = np.random.default_rng(0)
    u = gc.random_vertex_function(k5, rng, zero_prob=0.5)
    assert not u.is_complex
    assert np.all(np.abs(u.values) <= 1.0)
    z = gc.random_vertex_function(k5, rng, complex_values=True, scale=2.0)
    assert z.is_complex
    assert np.all(np.abs(z.values) <= 2.0)
