"""Finite weighted graphs and vertex functions.

Vertices are opaque strings with a canonical (lexicographic) total order.
That order fixes vertex indexing, neighbor summation order, and file layout
everywhere else in the package, so repeated runs are bitwise reproducible.
"""

# Annotations stay unevaluated: np.random.Generator in them would import
# numpy.random in every process, even where nothing is drawn.
from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    BadParamsError,
    DisconnectedDrawError,
    DisconnectedError,
    DomainMismatchError,
    DuplicateEdgeError,
    FileFormatError,
    NonFiniteValueError,
    NonPositiveWeightError,
    SelfLoopError,
    _require_count,
    _require_finite,
)
from .serialize import fmt_float, read_json, write_json

EdgeRecord = tuple[str, str, float]

GNP_RETRY_BUDGET = 100
# Vertex indices are C ints (np.intc, 32 bits) in records, ranks,
# connectivity labels and CSR columns, so a graph has at most this many
# vertices; generate and the build refuse more.
MAX_VERTICES = int(np.iinfo(np.intc).max)
# at most this many G(n, p) pairs get a uniform at once (unless one row has more)
_GNP_BLOCK_PAIRS = 1 << 16
# at most this many CSR entries are turned into Python objects at once when
# an edge list is written
_WRITE_BLOCK_ENTRIES = 1 << 15
# the build gathers the sorted keys of at most this many CSR entries at once
_BUILD_BLOCK_ENTRIES = 1 << 16


def _is_vertex_id(v) -> bool:
    # str.split() splits on exactly the characters str.isspace() accepts
    return isinstance(v, str) and v.split() == [v]


def _raise_record_error(record_no: int, record, seen_at: int | None = None):
    """Raise the error of a bad record, testing it the way a record is read:
    its shape, both vertex ids, then self-loop, weight and repeated pair
    (first seen at record ``seen_at``)."""
    try:
        x, y, mu = record
    except (TypeError, ValueError):
        raise BadParamsError(
            f"record {record_no}: expected an (x, y, mu) triple, got {record!r}"
        ) from None
    for v in (x, y):
        if not _is_vertex_id(v):
            raise BadParamsError(
                f"vertex ids must be non-empty strings without whitespace, got {v!r}"
            )
    if x == y:
        raise SelfLoopError(f"record {record_no}: self-loop at vertex {x!r}")
    try:
        mu = float(mu)
    except (TypeError, ValueError, OverflowError):
        raise NonPositiveWeightError(
            f"record {record_no}: edge ({x!r}, {y!r}) has weight {mu!r}, "
            "which does not convert to a float"
        ) from None
    if not math.isfinite(mu) or mu <= 0.0:
        raise NonPositiveWeightError(
            f"record {record_no}: edge ({x!r}, {y!r}) has non-positive weight {mu!r}"
        )
    key = (x, y) if x < y else (y, x)
    raise DuplicateEdgeError(
        f"record {record_no}: unordered pair {key!r} already seen at record {seen_at}"
    )


def _check_records(names, xi, yi, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the index and weight arrays of the records
    ``(names[xi[k]], names[yi[k]], w[k])``, or raise the error of the first
    bad one.

    A record is bad if it is a self-loop, its weight is not finite and
    positive, or it repeats the unordered pair of an earlier record.
    ``names`` must be distinct valid vertex ids, so equal names mean equal
    indices.
    """
    xi = np.asarray(xi, dtype=np.intc)
    yi = np.asarray(yi, dtype=np.intc)
    w = np.asarray(w, dtype=np.float64)
    # min * n + max overflows 32 bits, so the key is int64
    pair = np.minimum(xi, yi, dtype=np.int64)
    pair *= len(names)
    pair += np.maximum(xi, yi)
    # a stable sort lists each pair's records in record order, so every
    # record after the first of its pair follows an equal key
    order = np.argsort(pair, kind="stable")
    ranked = pair.take(order)
    repeat = np.zeros(len(pair), dtype=bool)
    repeat[order[1:]] = ranked[1:] == ranked[:-1]
    del order, ranked
    bad = (xi == yi) | ~(np.isfinite(w) & (w > 0.0)) | repeat
    if bad.any():
        k = int(bad.argmax())
        seen_at = int(np.flatnonzero(pair[:k] == pair[k])[0]) if repeat[k] else None
        _raise_record_error(k, (names[xi[k]], names[yi[k]], float(w[k])), seen_at)
    return xi, yi, w


def _frombuffers(xi: array, yi: array, w: array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index and weight arrays collected in ``array('i')`` and
    ``array('d')`` buffers, as numpy arrays sharing their memory."""
    return (
        np.frombuffer(xi, dtype=np.intc),
        np.frombuffer(yi, dtype=np.intc),
        np.frombuffer(w, dtype=np.float64),
    )


def _records_to_arrays(edge_records) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct vertex names in order of appearance, plus the index and weight
    arrays of ``(x, y, mu)`` records."""
    ids: dict = {}
    xi, yi, w = array("i"), array("i"), array("d")
    for record_no, record in enumerate(edge_records):
        try:
            x, y, mu = record
            n = len(ids)
            i, j, mu = ids.setdefault(x, n), ids.setdefault(y, len(ids)), float(mu)
            # a name is checked once, in the record that brings it in
            ok = (i < n or _is_vertex_id(x)) and (j < n or _is_vertex_id(y))
        except (TypeError, ValueError, OverflowError):
            # not a triple, an unhashable id, or a weight float() rejects
            ok = False
        if not ok:
            # the records before this one decide first
            _check_records(list(ids), *_frombuffers(xi, yi, w))
            _raise_record_error(record_no, record)
        xi.append(i)
        yi.append(j)
        w.append(mu)
    return (list(ids), *_frombuffers(xi, yi, w))


class WeightedGraph:
    """Immutable finite simple connected graph with positive symmetric edge weights.

    An unordered edge {x, y} carries a single weight mu_xy = mu_yx > 0, and
    each vertex has degree d_x = sum of the weights of its incident edges.
    Self-loops, duplicate edges, disconnected inputs and degrees beyond the
    largest double are rejected at construction, so every instance satisfies
    0 < d_x < inf.

    The CSR arrays (``_row_ptr``, and per entry ``_ent_cols`` and
    ``_ent_w``, rows and columns ascending in vertex order) are the only
    store of the edges: 12 bytes per CSR entry (a 32-bit column and a
    double weight), two entries per edge. Vertex indices are C ints, so a
    graph has at most ``MAX_VERTICES`` = 2^31 - 1 vertices. Every other form
    is derived from the CSR arrays. An entry's row (``_per_entry``) and its
    random-walk coefficient mu_xy / d_x are derived by each call that needs
    them, never stored. Two derived forms are cached on first use:
    ``_weight_matrix`` and ``_slot_plan``, the neighbour-sum layout of
    ``calculus``. Neither takes part in equality, hashing or ``repr``. No
    solver reads ``weight_matrix``; it is kept for the tests' scipy
    references and the benchmark's tracing.

    Construction holds no Python object per edge: records are collected in
    32-bit index arrays, and the CSR arrays are sorted and gathered from one
    key array covering both orientations of each edge, so that few arrays
    of 2|E| entries are alive at once.
    """

    __slots__ = (
        "_vertices",
        "_index",
        "_degrees",
        "_weight_matrix",
        "_ent_cols",
        "_ent_w",
        "_row_ptr",
        "_slot_plan",
    )

    def __init__(self, edge_records: Iterable[tuple[str, str, float]]):
        names, *records = _records_to_arrays(edge_records)
        self._build(names, records)

    @classmethod
    def _from_arrays(cls, names, records: list) -> "WeightedGraph":
        """Build the graph of the records ``(names[xi[k]], names[yi[k]], w[k])``
        with ``records = [xi, yi, w]``.

        This is the one construction path: every generator, the edge-list
        reader and the record constructor end here. ``names`` are distinct
        valid vertex ids, and each occurs in some record. The build takes the
        arrays out of ``records``, so that, with no other reference to them,
        each is freed once the build no longer needs it. It re-ranks the
        index arrays in place, so they must not share memory.
        """
        g = cls.__new__(cls)
        g._build(names, records)
        return g

    def _build(self, names, records: list) -> None:
        n = len(names)
        if n > MAX_VERTICES:
            raise BadParamsError(f"a graph has at most {MAX_VERTICES} vertices, got {n}")
        xi, yi, w = _check_records(names, *records)
        records.clear()
        if not len(w):
            raise BadParamsError("a graph needs at least one edge")

        # Each whole-graph temporary is dropped (del) once no later step
        # needs it, so that few of them are alive at once. Indices are
        # 32-bit throughout; the sort key and its permutation are the only
        # 8-byte index arrays of 2|E| entries.

        # canonical vertex order, and each name's position in it
        m = len(w)
        perm = sorted(range(n), key=names.__getitem__)
        vertices = tuple(map(names.__getitem__, perm))
        rank = np.empty(n, dtype=np.intc)
        rank[perm] = np.arange(n, dtype=np.intc)
        del perm
        # re-ranked in place: with an output, mode="wrap" writes straight
        # into it, where the default mode would buffer a copy
        np.take(rank, xi, out=xi, mode="wrap")
        np.take(rank, yi, out=yi, mode="wrap")
        del rank
        self._check_connected(vertices, xi, yi)

        # Both orientations of every edge in row-major order, each row's
        # columns ascending: (row, col) pairs are unique, so one sort on
        # row * n + col orders them. Records mostly come in sorted runs,
        # which the stable sort (a merge sort) is quickest on. Entry k < m
        # is record k, entry m + k its reverse; an entry's column is its
        # key mod n.
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        counts = np.bincount(xi, minlength=n)
        counts += np.bincount(yi, minlength=n)
        np.cumsum(counts, out=row_ptr[1:])
        del counts
        # row * n + col overflows 32 bits, so the key is int64
        key = np.empty(2 * m, dtype=np.int64)
        np.multiply(xi, n, out=key[:m], dtype=np.int64)
        key[:m] += yi
        np.multiply(yi, n, out=key[m:], dtype=np.int64)
        key[m:] += xi
        del xi, yi
        order = np.argsort(key, kind="stable")
        # the columns are written a block at a time straight into 32-bit
        # storage, so that no second 8-byte array of 2|E| entries is formed
        cols = np.empty(2 * m, dtype=np.intc)
        for start in range(0, 2 * m, _BUILD_BLOCK_ENTRIES):
            block = slice(start, start + _BUILD_BLOCK_ENTRIES)
            np.remainder(key.take(order[block]), n, out=cols[block])
        del key
        data = w.take(order, mode="wrap")
        del order, w

        # Degrees accumulate per row via reduceat in ascending neighbor
        # order; recomputing with the same reduction matches bitwise.
        with np.errstate(over="ignore"):
            degrees = np.add.reduceat(data, row_ptr[:-1])
        infinite = ~np.isfinite(degrees)
        if infinite.any():
            bad = vertices[int(infinite.argmax())]
            raise BadParamsError(
                f"the degree of vertex {bad!r} overflows: its weights sum beyond the largest double"
            )

        self._vertices = vertices
        # vertex -> position, built on the first lookup
        self._index = None
        self._degrees = degrees
        self._weight_matrix = None
        self._ent_cols = cols
        self._ent_w = data
        self._row_ptr = row_ptr
        # built by the first neighbour sum (calculus._slot_plan)
        self._slot_plan = None
        for arr in (self._degrees, self._ent_cols, self._ent_w, self._row_ptr):
            arr.setflags(write=False)

    @staticmethod
    def _check_connected(vertices, xi, yi) -> None:
        # Hook and shortcut: every root hooks onto the smallest root across
        # its edges, then pointer jumping flattens the trees to depth one.
        # root[i] <= i throughout, so vertex 0 is the root of its component.
        root = np.arange(len(vertices), dtype=np.intc)
        while True:
            rx, ry = root[xi], root[yi]
            differ = rx != ry
            if not differ.any():
                break
            rx, ry = rx[differ], ry[differ]
            np.minimum.at(root, np.maximum(rx, ry), np.minimum(rx, ry))
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped
        if root.any():
            missing = [vertices[i] for i in np.flatnonzero(root)[:8]]
            raise DisconnectedError(
                f"graph is disconnected; unreachable component contains {missing!r}"
            )

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    def _per_entry(self, values: np.ndarray) -> np.ndarray:
        """``values[x]`` at every CSR entry of row x, in entry order: with
        ``np.arange(n)`` each entry's row."""
        ptr = self._row_ptr
        return values.repeat(ptr[1:] - ptr[:-1])

    def _upper(self, block: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and weight arrays of the CSR entries above the diagonal
        (of those in ``block``): one entry per edge, in canonical edge order."""
        start, stop, _ = block.indices(len(self._ent_cols))
        # the rows the block spans, each cut to its entries inside the block
        ptr = self._row_ptr
        lo = int(np.searchsorted(ptr, start, side="right")) - 1
        hi = int(np.searchsorted(ptr, stop, side="left"))
        rows = np.repeat(np.arange(lo, hi), np.diff(np.clip(ptr[lo : hi + 1], start, stop)))
        cols = self._ent_cols[start:stop]
        upper = cols > rows
        return rows[upper], cols[upper], self._ent_w[start:stop][upper]

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """Canonical edge list: (x, y, mu) with x < y, sorted lexicographically.

        Built from the CSR arrays on each call.
        """
        xi, yi, w = self._upper()
        v = self._vertices
        return tuple(
            (v[i], v[j], mu) for i, j, mu in zip(xi.tolist(), yi.tolist(), w.tolist())
        )

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._ent_cols) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Read-only degree vector aligned with ``vertices``."""
        return self._degrees

    @property
    def weight_matrix(self) -> "scipy.sparse.csr_matrix":
        """Symmetric CSR weight matrix aligned with ``vertices``.

        Built on first access (this is where scipy is imported) and cached;
        its ``data``, ``indices`` and ``indptr`` arrays are read-only.
        """
        if self._weight_matrix is None:
            import scipy.sparse as sp

            n = len(self._vertices)
            matrix = sp.csr_matrix((self._ent_w, self._ent_cols, self._row_ptr), shape=(n, n))
            # scipy copies the int64 row pointers down to int32 where they fit
            for arr in (matrix.data, matrix.indices, matrix.indptr):
                arr.setflags(write=False)
            self._weight_matrix = matrix
        return self._weight_matrix

    def index_of(self, vertex: str) -> int:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._vertices)}
        try:
            return self._index[vertex]
        except KeyError:
            raise DomainMismatchError(f"vertex {vertex!r} is not in the graph") from None

    def degree(self, vertex: str) -> float:
        return float(self._degrees[self.index_of(vertex)])

    def neighbors(self, vertex: str) -> tuple[str, ...]:
        i = self.index_of(vertex)
        cols = self._ent_cols[self._row_ptr[i] : self._row_ptr[i + 1]]
        return tuple(self._vertices[j] for j in cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and np.array_equal(self._row_ptr, other._row_ptr)
            and np.array_equal(self._ent_cols, other._ent_cols)
            and np.array_equal(self._ent_w, other._ent_w)
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._ent_cols.tobytes(), self._ent_w.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def build_graph(edge_records: Iterable[tuple[str, str, float]]) -> WeightedGraph:
    """Validate edge records and construct a :class:`WeightedGraph`.

    Parameters
    ----------
    edge_records : iterable of (x, y, mu)
        Vertex id pairs with positive weights. Self-loops, repeated unordered
        pairs, non-positive weights, and disconnected inputs raise, and so do
        a record that is not a triple and a weight ``float()`` rejects. The
        first bad record decides the error.
    """
    return WeightedGraph(edge_records)


class VertexFunction:
    """Total map from a fixed vertex tuple to real or complex scalars.

    Values are held in a read-only numpy array aligned with the vertex order;
    NaN and infinite entries are rejected.
    """

    __slots__ = ("_vertices", "_values", "_index")

    def __init__(self, vertices: tuple[str, ...], values: np.ndarray):
        values = np.asarray(values)
        if values.shape != (len(vertices),):
            raise DomainMismatchError(
                f"expected {len(vertices)} values, got shape {values.shape}"
            )
        # a copy; an object array (say of ints beyond int64) becomes float64
        values = values.astype(np.complex128 if np.iscomplexobj(values) else np.float64)
        finite = np.isfinite(values)
        if not finite.all():
            bad = vertices[int(np.flatnonzero(~finite)[0])]
            raise NonFiniteValueError(f"non-finite value at vertex {bad!r}")
        values.setflags(write=False)
        self._vertices = tuple(vertices)
        self._values = values
        # vertex -> position, built on the first lookup
        self._index = None

    @classmethod
    def from_dict(cls, graph: WeightedGraph, mapping: Mapping[str, complex]) -> "VertexFunction":
        extra = set(mapping) - set(graph.vertices)
        missing = set(graph.vertices) - set(mapping)
        if extra or missing:
            raise DomainMismatchError(
                f"function domain must equal the vertex set exactly "
                f"(missing {sorted(missing)[:5]!r}, extra {sorted(extra)[:5]!r})"
            )
        raw = [mapping[v] for v in graph.vertices]
        # not np.array(raw), which makes a None value a TypeError, not non-finite
        is_complex = any(isinstance(x, (complex, np.complexfloating)) for x in raw)
        return cls(graph.vertices, np.array(raw, dtype=np.complex128 if is_complex else np.float64))

    @classmethod
    def constant(cls, graph: WeightedGraph, value: complex) -> "VertexFunction":
        return cls(graph.vertices, np.full(graph.n_vertices, value))

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def is_complex(self) -> bool:
        return self._values.dtype.kind == "c"

    def __getitem__(self, vertex: str):
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._vertices)}
        try:
            i = self._index[vertex]
        except (KeyError, TypeError):  # TypeError: an unhashable key
            raise DomainMismatchError(f"vertex {vertex!r} not in function domain") from None
        return self._values[i].item()

    def __len__(self) -> int:
        return len(self._vertices)

    def as_dict(self) -> dict[str, complex]:
        return dict(zip(self._vertices, self._values.tolist()))

    def __repr__(self) -> str:
        kind = "complex" if self.is_complex else "real"
        return f"VertexFunction({kind}, n={len(self._vertices)})"


def require_same_domain(graph: WeightedGraph, u: VertexFunction) -> np.ndarray:
    """Return u's value array after checking it is defined on exactly graph's vertices."""
    # functions built from graph.vertices share the tuple; the identity test
    # spares an element-wise comparison of n strings
    if u.vertices is not graph.vertices and u.vertices != graph.vertices:
        raise DomainMismatchError(
            "vertex function domain does not match the graph's vertex set"
        )
    return u.values


# -- generators ------------------------------------------------------------


def _vertex_names(n: int, prefix: str = "v") -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _edge_weights(m: int, weight, weight_sampler, rng) -> np.ndarray:
    if weight_sampler is not None:
        w = np.asarray(weight_sampler(rng, m), dtype=np.float64)
        if w.shape != (m,):
            raise BadParamsError("weight sampler must return one weight per edge")
        return w
    _require_finite("uniform edge weight", weight, positive=True)
    return np.full(m, float(weight))


def _gnp_pairs(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One G(n, p) draw: the kept pairs i < j, in the row-major order of the
    nested loop over i < j, with one uniform per pair in that order.

    The uniforms are drawn a block of rows at a time, so memory grows with
    n + _GNP_BLOCK_PAIRS rather than with the n(n - 1)/2 pairs.
    """
    # starts[i] is the row-major position of pair (i, i + 1); starts[n - 1]
    # is the number of pairs
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    kept = []
    r0 = 0
    while r0 < n - 1:
        r1 = int(np.searchsorted(starts, starts[r0] + _GNP_BLOCK_PAIRS, side="right")) - 1
        r1 = max(r1, r0 + 1)
        kept.append(starts[r0] + np.flatnonzero(rng.random(starts[r1] - starts[r0]) < p))
        r0 = r1
    k = np.concatenate(kept)
    i = np.searchsorted(starts, k, side="right") - 1
    return i.astype(np.intc), (k - starts[i] + i + 1).astype(np.intc)


def generate(
    family: str,
    *,
    n: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    p: float | None = None,
    weight: float = 1.0,
    seed: int | None = None,
    weight_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
) -> WeightedGraph:
    """Generate a standard graph family, deterministically for a fixed seed.

    Families: ``path``, ``cycle``, ``complete``, ``star`` (n total vertices,
    center first), ``grid2d`` (rows x cols lattice), ``gnp`` (Erdos-Renyi,
    retried up to 100 draws for connectivity).
    """
    # Only gnp and a weight sampler draw; the other families never load numpy.random.
    rng = np.random.default_rng(seed) if family == "gnp" or weight_sampler is not None else None
    if family == "grid2d":
        _require_count("rows", rows, 2)
        _require_count("cols", cols, 2)
        _require_count("rows * cols", int(rows) * int(cols), 4, MAX_VERTICES)
        wr, wc = len(str(rows - 1)), len(str(cols - 1))
        heads = [f"r{i:0{wr}d}" for i in range(rows)]
        tails = [f"c{j:0{wc}d}" for j in range(cols)]
        names = [head + tail for head in heads for tail in tails]
        # Vertex i * cols + j is (i, j). In row-major vertex order each
        # vertex has a record to its right neighbor, then one to the
        # neighbor below, where those exist.
        v = np.arange(rows * cols, dtype=np.intc).reshape(rows, cols)
        right = np.broadcast_to(np.arange(cols) < cols - 1, (rows, cols))
        down = np.broadcast_to((np.arange(rows) < rows - 1)[:, None], (rows, cols))
        keep = np.stack([right, down], axis=2).ravel()
        records = [np.repeat(v.ravel(), 2)[keep], np.stack([v + 1, v + cols], axis=2).ravel()[keep]]
        del v, keep  # not kept alive through the build
        return _with_weights(names, records, weight, weight_sampler, rng)

    # the count rule first, so that a bad n is worded as any count is
    minimum = 3 if family == "cycle" else 2
    _require_count("n", n, minimum)
    _require_count("n", n, minimum, MAX_VERTICES)
    names = _vertex_names(n)

    # The build re-ranks the index arrays in place, so no two share memory.
    if family == "path":
        records = [np.arange(n - 1, dtype=np.intc), np.arange(1, n, dtype=np.intc)]
    elif family == "cycle":
        records = [np.arange(n, dtype=np.intc), np.arange(1, n + 1, dtype=np.intc) % n]
    elif family == "complete":
        records = [a.astype(np.intc) for a in np.triu_indices(n, 1)]
    elif family == "star":
        records = [np.zeros(n - 1, dtype=np.intc), np.arange(1, n, dtype=np.intc)]
    elif family == "gnp":
        _require_finite("p", p, positive=True)
        if p > 1.0:
            raise BadParamsError(f"p must be at most 1, got {p!r}")
        for _ in range(GNP_RETRY_BUDGET):
            records = list(_gnp_pairs(n, p, rng))
            # a draw with an isolated vertex is redrawn before any weight
            # is sampled for it
            if len(np.union1d(*records)) < n:
                continue
            try:
                return _with_weights(names, records, weight, weight_sampler, rng)
            except DisconnectedError:
                continue
        raise DisconnectedDrawError(
            f"no connected G(n={n}, p={p}) draw within {GNP_RETRY_BUDGET} attempts"
        )
    else:
        raise BadParamsError(f"unknown graph family {family!r}")

    return _with_weights(names, records, weight, weight_sampler, rng)


def _with_weights(names, records: list, weight, weight_sampler, rng) -> WeightedGraph:
    """The graph of the index arrays ``records = [xi, yi]`` with each
    record's weight drawn or set; the build takes the arrays out of the list."""
    records.append(_edge_weights(len(records[0]), weight, weight_sampler, rng))
    return WeightedGraph._from_arrays(names, records)


def d_constant(g: WeightedGraph) -> float:
    """Largest ratio d_x / mu_xy over all incident vertex-edge pairs (always >= 1)."""
    # d_x / mu_xy at every CSR entry of row x: a repeat of each degree over
    # its row, with no gather through the columns
    ratios = g._per_entry(g.degrees)
    np.divide(ratios, g._ent_w, out=ratios)
    return float(ratios.max())


# -- random vertex functions (shared by CLI and test corpora) ---------------


def random_vertex_function(
    g: WeightedGraph,
    rng: np.random.Generator,
    *,
    complex_values: bool = False,
    zero_prob: float = 0.0,
    scale: float = 1.0,
) -> VertexFunction:
    """Draw i.i.d. per-vertex values: uniform on [-scale, scale] (real) or the
    radius-``scale`` disk (complex), then zero each vertex with ``zero_prob``."""
    n = g.n_vertices
    if complex_values:
        radius = scale * np.sqrt(rng.random(n))
        theta = 2.0 * np.pi * rng.random(n)
        vals = radius * np.exp(1j * theta)
    else:
        vals = rng.uniform(-scale, scale, n)
    if zero_prob > 0.0:
        vals = np.where(rng.random(n) < zero_prob, 0.0, vals)
    return VertexFunction(g.vertices, vals)


# -- file formats ------------------------------------------------------------


def write_edge_list(g: WeightedGraph, path) -> None:
    """Write the canonical edge list: one `<x> <y> <mu>` line per edge."""
    v = g.vertices
    # Every graph `gen` writes has one weight, so a weight is formatted
    # only where it differs from the previous line's.
    last, text = None, ""
    with open(path, "w", encoding="utf-8") as fh:
        # a block of CSR entries at a time, so the Python objects of one
        # block at most are alive
        for start in range(0, len(g._ent_cols), _WRITE_BLOCK_ENTRIES):
            xi, yi, w = g._upper(slice(start, start + _WRITE_BLOCK_ENTRIES))
            for i, j, mu in zip(xi.tolist(), yi.tolist(), w.tolist()):
                if mu != last:
                    last, text = mu, fmt_float(mu)
                fh.write(f"{v[i]} {v[j]} {text}\n")


def read_edge_list(path) -> WeightedGraph:
    """Parse an edge-list file. Lines starting with '#' are comments."""
    names, *records = _parse_edge_list(path)
    return WeightedGraph._from_arrays(names, records)


def _parse_edge_list(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The distinct vertex ids of an edge-list file in order of first
    appearance, and the index and weight arrays of its records."""
    # vertex id -> position; freed on return, before the graph is built
    ids: dict[str, int] = {}
    xi, yi, w = array("i"), array("i"), array("d")
    add_x, add_y, add_w, index = xi.append, yi.append, w.append, ids.setdefault
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            # one test passes a record line; the others are sorted out inside
            if len(tokens) != 3 or tokens[0][0] == "#":
                if not tokens or tokens[0][0] == "#":
                    continue
                raise FileFormatError(
                    f"{path}:{line_no}: expected `<x> <y> <mu>`, got {line.strip()!r}"
                )
            x, y, mu = tokens
            try:
                add_w(float(mu))
            except ValueError:
                raise FileFormatError(f"{path}:{line_no}: weight {mu!r} is not a number") from None
            add_x(index(x, len(ids)))
            add_y(index(y, len(ids)))
    if not w:
        raise FileFormatError(f"{path}: no edge records found")
    return (list(ids), *_frombuffers(xi, yi, w))


def write_vertex_function(u: VertexFunction, path) -> None:
    """Write the JSON function format: vertex -> number, or -> [re, im] if complex."""
    write_json(u.as_dict(), path)


def read_vertex_function(path, g: WeightedGraph) -> VertexFunction:
    """Read the JSON function format; every graph vertex must appear exactly.

    Every number is read as a double, so an integer beyond the double range
    is infinite, as 1e400 is, and the function rejects it.
    """
    obj = read_json(path, parse_int=float)
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object mapping vertex -> value")
    for key, val in obj.items():
        if isinstance(val, list) and len(val) == 2 and all(isinstance(c, float) for c in val):
            obj[key] = complex(*val)
        elif not isinstance(val, float):
            raise FileFormatError(f"{path}: value for {key!r} must be a number or a [re, im] pair")
    return VertexFunction.from_dict(g, obj)
