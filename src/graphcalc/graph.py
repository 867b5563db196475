"""Finite weighted graphs and vertex functions.

Vertices are opaque strings with a canonical (lexicographic) total order.
That order fixes vertex indexing, neighbor summation order, and file layout
everywhere else in the package, so repeated runs are bitwise reproducible.
"""

import math
import sys
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
)
from .serialize import fmt_float

EdgeRecord = tuple[str, str, float]

GNP_RETRY_BUDGET = 100


def _validate_vertex_id(v) -> str:
    # str.split() splits on exactly the characters str.isspace() accepts
    if not isinstance(v, str) or v.split() != [v]:
        raise BadParamsError(
            f"vertex ids must be non-empty strings without whitespace, got {v!r}"
        )
    return v


class WeightedGraph:
    """Immutable finite simple connected graph with positive symmetric edge weights.

    An unordered edge {x, y} carries a single weight mu_xy = mu_yx > 0, and
    each vertex has degree d_x = sum of the weights of its incident edges.
    Self-loops, duplicate edges, and disconnected inputs are rejected at
    construction, so every instance satisfies d_x > 0.
    """

    __slots__ = (
        "_vertices",
        "_index",
        "_edges",
        "_degrees",
        "_weight_matrix",
        "_ent_rows",
        "_ent_cols",
        "_ent_coef",
        "_ent_w",
        "_row_ptr",
        "_edge_xi",
        "_edge_yi",
        "_edge_w",
    )

    def __init__(self, edge_records: Iterable[tuple[str, str, float]]):
        seen: dict[tuple[str, str], int] = {}
        valid_ids: set[str] = set()
        normalized: list[EdgeRecord] = []
        for record_no, (x, y, mu) in enumerate(edge_records):
            for v in (x, y):
                if not (isinstance(v, str) and v in valid_ids):
                    valid_ids.add(_validate_vertex_id(v))
            if x == y:
                raise SelfLoopError(f"record {record_no}: self-loop at vertex {x!r}")
            mu = float(mu)
            if not math.isfinite(mu) or mu <= 0.0:
                raise NonPositiveWeightError(
                    f"record {record_no}: edge ({x!r}, {y!r}) has non-positive weight {mu!r}"
                )
            key = (x, y) if x < y else (y, x)
            if key in seen:
                raise DuplicateEdgeError(
                    f"record {record_no}: unordered pair {key!r} already seen at record {seen[key]}"
                )
            seen[key] = record_no
            normalized.append((key[0], key[1], mu))
        if not normalized:
            raise BadParamsError("a graph needs at least one edge")

        # (x, y) pairs are unique, so the weights never take part in the order
        normalized.sort()
        vertices = tuple(sorted(valid_ids))
        index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)

        xi = np.fromiter((index[x] for x, _, _ in normalized), dtype=np.int64)
        yi = np.fromiter((index[y] for _, y, _ in normalized), dtype=np.int64)
        w = np.fromiter((mu for _, _, mu in normalized), dtype=np.float64)

        # Each row holds its lower neighbours (edges (x, r), ascending in x
        # because ``normalized`` is sorted) before its upper ones (edges
        # (r, y), ascending in y); a stable sort by row keeps both runs, so
        # every row's columns come out ascending.
        ent_rows = np.concatenate([yi, xi])
        order = np.argsort(ent_rows, kind="stable")
        rows = ent_rows[order]
        cols = np.concatenate([xi, yi])[order]
        data = np.concatenate([w, w])[order]
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])

        # Degrees accumulate per row via reduceat in ascending neighbor
        # order; recomputing with the same reduction matches bitwise.
        degrees = np.add.reduceat(data, row_ptr[:-1])
        self._check_connected(vertices, xi, yi)

        self._vertices = vertices
        self._index = index
        self._edges = tuple(normalized)
        self._degrees = degrees
        self._weight_matrix = None
        self._ent_rows = rows
        self._ent_cols = cols
        self._ent_coef = data / degrees[rows]
        self._ent_w = data
        self._row_ptr = row_ptr
        self._edge_xi = xi
        self._edge_yi = yi
        self._edge_w = w
        for arr in (
            self._degrees,
            self._ent_rows,
            self._ent_cols,
            self._ent_coef,
            self._ent_w,
            self._row_ptr,
            self._edge_xi,
            self._edge_yi,
            self._edge_w,
        ):
            arr.setflags(write=False)

    @staticmethod
    def _check_connected(vertices, xi, yi) -> None:
        # Hook and shortcut: every root hooks onto the smallest root across
        # its edges, then pointer jumping flattens the trees to depth one.
        # root[i] <= i throughout, so vertex 0 is the root of its component.
        root = np.arange(len(vertices))
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

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """Canonical edge list: (x, y, mu) with x < y, sorted lexicographically."""
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

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
            # scipy may copy the int64 index arrays down to int32
            for arr in (matrix.data, matrix.indices, matrix.indptr):
                arr.setflags(write=False)
            self._weight_matrix = matrix
        return self._weight_matrix

    def index_of(self, vertex: str) -> int:
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

    def dense_transition(self) -> np.ndarray:
        """Dense random-walk matrix P with P[x, y] = mu_xy / d_x."""
        n = len(self._vertices)
        p = np.zeros((n, n))
        p[self._ent_rows, self._ent_cols] = self._ent_coef
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def build_graph(edge_records: Iterable[tuple[str, str, float]]) -> WeightedGraph:
    """Validate edge records and construct a :class:`WeightedGraph`.

    Parameters
    ----------
    edge_records : iterable of (x, y, mu)
        Vertex id pairs with positive weights. Self-loops, repeated unordered
        pairs, non-positive weights, and disconnected inputs raise.
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
        if np.iscomplexobj(values):
            values = values.astype(np.complex128)
            finite = np.isfinite(values.real) & np.isfinite(values.imag)
        else:
            values = values.astype(np.float64)
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
    def from_array(cls, graph: WeightedGraph, values) -> "VertexFunction":
        return cls(graph.vertices, np.asarray(values))

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
        if any(isinstance(x, complex) for x in raw):
            return cls(graph.vertices, np.array(raw, dtype=np.complex128))
        return cls(graph.vertices, np.array(raw, dtype=np.float64))

    @classmethod
    def constant(cls, graph: WeightedGraph, value: complex) -> "VertexFunction":
        dtype = np.complex128 if isinstance(value, complex) else np.float64
        return cls(graph.vertices, np.full(graph.n_vertices, value, dtype=dtype))

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
        return {v: self._values[i].item() for i, v in enumerate(self._vertices)}

    def __repr__(self) -> str:
        kind = "complex" if self.is_complex else "real"
        return f"VertexFunction({kind}, n={len(self._vertices)})"


def require_same_domain(graph: WeightedGraph, u: VertexFunction) -> np.ndarray:
    """Return u's value array after checking it is defined on exactly graph's vertices."""
    if u.vertices != graph.vertices:
        raise DomainMismatchError(
            "vertex function domain does not match the graph's vertex set"
        )
    return u.values


# -- generators ------------------------------------------------------------


def _vertex_names(n: int, prefix: str = "v") -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _apply_weights(pairs, weight, weight_sampler, rng):
    if weight_sampler is not None:
        w = np.asarray(weight_sampler(rng, len(pairs)), dtype=np.float64)
        if w.shape != (len(pairs),):
            raise BadParamsError("weight sampler must return one weight per edge")
        return [(x, y, float(wi)) for (x, y), wi in zip(pairs, w)]
    weight = float(weight)
    if not np.isfinite(weight) or weight <= 0:
        raise BadParamsError(f"uniform edge weight must be positive, got {weight!r}")
    return [(x, y, weight) for x, y in pairs]


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
    rng = np.random.default_rng(seed)
    if family == "grid2d":
        if rows is None or cols is None or rows < 2 or cols < 2:
            raise BadParamsError("grid2d requires rows >= 2 and cols >= 2")
        wr, wc = len(str(rows - 1)), len(str(cols - 1))
        name = [[f"r{i:0{wr}d}c{j:0{wc}d}" for j in range(cols)] for i in range(rows)]
        pairs = []
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    pairs.append((name[i][j], name[i][j + 1]))
                if i + 1 < rows:
                    pairs.append((name[i][j], name[i + 1][j]))
        return build_graph(_apply_weights(pairs, weight, weight_sampler, rng))

    if n is None or n < 2:
        raise BadParamsError(f"family {family!r} requires n >= 2, got {n!r}")
    names = _vertex_names(n)

    if family == "path":
        pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
    elif family == "cycle":
        if n < 3:
            raise BadParamsError("cycle requires n >= 3")
        pairs = [(names[i], names[(i + 1) % n]) for i in range(n)]
    elif family == "complete":
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    elif family == "star":
        pairs = [(names[0], names[i]) for i in range(1, n)]
    elif family == "gnp":
        if p is None or not (0.0 < p <= 1.0):
            raise BadParamsError(f"gnp requires 0 < p <= 1, got {p!r}")
        # row-major upper triangle: the pair order of the nested loop i < j
        rows_i, cols_j = np.triu_indices(n, 1)
        for _ in range(GNP_RETRY_BUDGET):
            mask = rng.random(len(rows_i)) < p
            kept_i, kept_j = rows_i[mask], cols_j[mask]
            # vertices are derived from edge records, so an isolated vertex
            # shows up as a too-small vertex set, not a Disconnected error
            if len(np.union1d(kept_i, kept_j)) < n:
                continue
            pairs = [(names[i], names[j]) for i, j in zip(kept_i.tolist(), kept_j.tolist())]
            try:
                return build_graph(_apply_weights(pairs, weight, weight_sampler, rng))
            except DisconnectedError:
                continue
        raise DisconnectedDrawError(
            f"no connected G(n={n}, p={p}) draw within {GNP_RETRY_BUDGET} attempts"
        )
    else:
        raise BadParamsError(f"unknown graph family {family!r}")

    return build_graph(_apply_weights(pairs, weight, weight_sampler, rng))


def d_constant(g: WeightedGraph) -> float:
    """Largest ratio d_x / mu_xy over all incident vertex-edge pairs (always >= 1)."""
    ratios = g.degrees[g._ent_rows] / g._ent_w
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
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, mu in g.edges:
            fh.write(f"{x} {y} {fmt_float(mu)}\n")


def read_edge_list(path) -> WeightedGraph:
    """Parse an edge-list file. Lines starting with '#' are comments."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 3:
                raise FileFormatError(
                    f"{path}:{line_no}: expected `<x> <y> <mu>`, got {stripped!r}"
                )
            try:
                mu = float(tokens[2])
            except ValueError:
                raise FileFormatError(
                    f"{path}:{line_no}: weight {tokens[2]!r} is not a number"
                ) from None
            # one string object per vertex id, shared by every record naming it
            records.append((sys.intern(tokens[0]), sys.intern(tokens[1]), mu))
    if not records:
        raise FileFormatError(f"{path}: no edge records found")
    return build_graph(records)


def write_vertex_function(u: VertexFunction, path) -> None:
    """Write the JSON function format: vertex -> number, or -> [re, im] if complex."""
    from .serialize import write_json

    if u.is_complex:
        obj = {v: [u.values[i].real, u.values[i].imag] for i, v in enumerate(u.vertices)}
    else:
        obj = {v: float(u.values[i]) for i, v in enumerate(u.vertices)}
    write_json(obj, path)


def read_vertex_function(path, g: WeightedGraph) -> VertexFunction:
    """Read the JSON function format; every graph vertex must appear exactly."""
    import json as _json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = _json.load(fh)
        except _json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object mapping vertex -> value")
    parsed: dict[str, complex] = {}
    for key, val in obj.items():
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            parsed[key] = float(val)
        elif (
            isinstance(val, list)
            and len(val) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in val)
        ):
            parsed[key] = complex(val[0], val[1])
        else:
            raise FileFormatError(
                f"{path}: value for {key!r} must be a number or a [re, im] pair"
            )
    return VertexFunction.from_dict(g, parsed)
