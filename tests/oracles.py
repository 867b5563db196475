"""Independent brute-force reference implementations for the test suite.

Everything here works from a graph's public edge list with plain Python
loops (or separately assembled dense matrices), deliberately avoiding the
package's CSR fast paths, so the two sides can disagree when one is wrong.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

import graphcalc as gc
from graphcalc.serialize import fmt_float


def adjacency(g):
    """vertex -> list of (neighbor, weight), neighbors sorted lexicographically."""
    adj = {v: [] for v in g.vertices}
    for x, y, w in g.edges:
        adj[x].append((y, w))
        adj[y].append((x, w))
    for v in adj:
        adj[v].sort()
    return adj


def construction_ref(records):
    """A graph's CSR arrays, degrees and connectivity verdict, assembled
    from raw (x, y, mu) records with scipy.sparse.

    This is how the graph was built before construction moved to numpy:
    a symmetric COO matrix converted to CSR with sorted indices, degrees
    reduced over each row in ascending neighbor order, and
    ``connected_components`` for connectivity. Returns a dict of arrays and
    the CSR ``weights`` matrix, with ``disconnected`` set to the expected
    DisconnectedError message, or None for a connected graph.
    """
    vertices = sorted({v for x, y, _ in records for v in (x, y)})
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    xi = np.array([index[x] for x, _, _ in records], dtype=np.int64)
    yi = np.array([index[y] for _, y, _ in records], dtype=np.int64)
    w = np.array([mu for _, _, mu in records], dtype=np.float64)
    weights = scipy.sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([xi, yi]), np.concatenate([yi, xi]))),
        shape=(n, n),
    ).tocsr()
    weights.sort_indices()
    degrees = np.add.reduceat(weights.data, weights.indptr[:-1])
    rows = np.repeat(np.arange(n), np.diff(weights.indptr))
    n_components, labels = connected_components(weights, directed=False)
    disconnected = None
    if n_components > 1:
        missing = [vertices[i] for i in np.flatnonzero(labels != labels[0])]
        disconnected = f"graph is disconnected; unreachable component contains {missing[:8]!r}"
    return {
        "vertices": tuple(vertices),
        "row_ptr": weights.indptr.astype(np.int64),
        "cols": weights.indices.astype(np.int64),
        "w": weights.data,
        "coef": weights.data / degrees[rows],
        "degrees": degrees,
        "weights": weights,
        "disconnected": disconnected,
    }


def generate_ref(
    family, *, n=None, rows=None, cols=None, p=None, weight=1.0, seed=None,
    weight_sampler=None, rejected=None,
):
    """``gc.generate`` built the way it was before construction took index
    arrays: nested loops list (x, y) name pairs, each pair gets its weight as
    a Python float, and the record list goes through ``gc.build_graph``.

    Parameter checks are left to ``gc.generate``. For gnp, ``rejected`` (a
    list) collects why each redrawn sample was rejected: ``"isolated"`` or
    ``"disconnected"``.
    """
    rng = np.random.default_rng(seed)

    def records(pairs):
        if weight_sampler is not None:
            w = np.asarray(weight_sampler(rng, len(pairs)), dtype=np.float64)
            return [(x, y, float(wi)) for (x, y), wi in zip(pairs, w)]
        return [(x, y, float(weight)) for x, y in pairs]

    if family == "grid2d":
        wr, wc = len(str(rows - 1)), len(str(cols - 1))
        name = [[f"r{i:0{wr}d}c{j:0{wc}d}" for j in range(cols)] for i in range(rows)]
        pairs = []
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    pairs.append((name[i][j], name[i][j + 1]))
                if i + 1 < rows:
                    pairs.append((name[i][j], name[i + 1][j]))
        return gc.build_graph(records(pairs))

    names = [f"v{i:0{len(str(n - 1))}d}" for i in range(n)]
    if family == "path":
        pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
    elif family == "cycle":
        pairs = [(names[i], names[(i + 1) % n]) for i in range(n)]
    elif family == "complete":
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    elif family == "star":
        pairs = [(names[0], names[i]) for i in range(1, n)]
    elif family == "gnp":
        all_pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        for _ in range(gc.graph.GNP_RETRY_BUDGET):
            mask = rng.random(len(all_pairs)) < p
            pairs = [pq for pq, keep in zip(all_pairs, mask) if keep]
            if len({v for pq in pairs for v in pq}) < n:
                if rejected is not None:
                    rejected.append("isolated")
                continue
            try:
                return gc.build_graph(records(pairs))
            except gc.DisconnectedError:
                if rejected is not None:
                    rejected.append("disconnected")
        return None
    return gc.build_graph(records(pairs))


def write_edge_list_ref(g, path):
    """``gc.write_edge_list`` as it was before it wrote in blocks: one pass
    over the whole edge list, each weight formatted only where it differs
    from the previous line's."""
    last, text = None, ""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, mu in g.edges:
            if mu != last:
                last, text = mu, fmt_float(mu)
            fh.write(f"{x} {y} {text}\n")


def neighbor_sum_ref(g, values, f=None):
    """The CSR neighbour-sum kernels as first written: the terms
    ``coef * f(u[cols] - u[rows])`` of every entry, summed per row by
    ``np.add.reduceat`` along the last axis (f = identity if None)."""
    diff = values[..., g._ent_cols] - values[..., g._ent_rows]
    terms = g._ent_coef * (diff if f is None else f(diff))
    return np.add.reduceat(terms, g._row_ptr[:-1], axis=-1)


def abs2_ref(values):
    """|z|^2 as the kernels compute it: re^2 + im^2, or x * x for real x."""
    if np.iscomplexobj(values):
        return values.real**2 + values.imag**2
    return values * values


def degrees_ref(g):
    # Independently assembled incident-weight lists, reduced with the same
    # documented reduction (reduceat over the canonical neighbor order).
    adj = adjacency(g)
    return {
        v: float(
            np.add.reduceat(np.array([w for _, w in adj[v]], dtype=np.float64), [0])[0]
        )
        for v in g.vertices
    }


def d_constant_ref(g):
    deg = degrees_ref(g)
    best = 0.0
    for x, y, w in g.edges:
        best = max(best, deg[x] / w, deg[y] / w)
    return best


def laplacian_ref(g, u: dict) -> dict:
    adj = adjacency(g)
    deg = degrees_ref(g)
    return {
        x: sum((w / deg[x]) * (u[y] - u[x]) for y, w in adj[x]) for x in g.vertices
    }


def grad_sq_ref(g, u: dict) -> dict:
    adj = adjacency(g)
    deg = degrees_ref(g)
    return {
        x: sum((w / deg[x]) * abs(u[y] - u[x]) ** 2 for y, w in adj[x])
        for x in g.vertices
    }


def mass_ref(g, u: dict) -> float:
    deg = degrees_ref(g)
    return sum(deg[x] * abs(u[x]) ** 2 for x in g.vertices)


def dirichlet_ref(g, u: dict) -> float:
    return sum(w * abs(u[x] - u[y]) ** 2 for x, y, w in g.edges)


def free_energy_ref(g, u: dict) -> float:
    deg = degrees_ref(g)
    well = sum(deg[x] * (1.0 - abs(u[x]) ** 2) ** 2 for x in g.vertices)
    return 0.5 * dirichlet_ref(g, u) + 0.25 * well


def d_inner_ref(g, u: dict, v: dict):
    deg = degrees_ref(g)
    return sum(deg[x] * u[x] * np.conj(v[x]) for x in g.vertices)


def laplacian_matrix_ref(g) -> np.ndarray:
    """Dense matrix of the operator, assembled column by column from the
    pointwise definition applied to basis functions."""
    n = g.n_vertices
    mat = np.zeros((n, n))
    for j, vj in enumerate(g.vertices):
        basis = {v: 1.0 if v == vj else 0.0 for v in g.vertices}
        col = laplacian_ref(g, basis)
        mat[:, j] = [col[v] for v in g.vertices]
    return mat


def eigenvalues_ref(g) -> np.ndarray:
    """Sorted eigenvalues of -lap from a dense nonsymmetric eigensolver."""
    evals = scipy.linalg.eigvals(-laplacian_matrix_ref(g))
    return np.sort(evals.real)


def heat_final_ref(g, u0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Implicit Euler by repeated dense solves of (I - dt lap) u' = u."""
    mat = np.eye(g.n_vertices) - dt * laplacian_matrix_ref(g)
    u = u0.astype(float).copy()
    for _ in range(steps):
        u = np.linalg.solve(mat, u)
    return u


def cn_final_ref(g, u0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Crank-Nicolson by dense solves of (I - i dt lap / 2) u' = (I + i dt lap / 2) u."""
    lap = laplacian_matrix_ref(g)
    a = np.eye(g.n_vertices) - 0.5j * dt * lap
    b = np.eye(g.n_vertices) + 0.5j * dt * lap
    u = u0.astype(complex).copy()
    for _ in range(steps):
        u = np.linalg.solve(a, b @ u)
    return u


def cap_root_ref(m: float, p: float) -> tuple[float, float]:
    """Two adjacent doubles lo < hi with t + t^p - m <= 0 at lo and >= 0 at hi,
    where t + t^p = m (m >= 0) has its root; (0, 0) for m = 0.

    Bisection over the bit patterns of the nonnegative doubles, whose order
    as int64 is their order as floats. The bracket starts at [0, m] (or at
    [0, 2 m^(1/p)] for p > 1, which keeps t^p finite unless m is near the
    largest double; a probe whose t^p overflows lies above the root).
    """
    def as_float(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    def f(t: float) -> float:
        try:
            return t + t**p - m
        except OverflowError:  # t^p is above the largest double, so above m
            return float("inf")

    if m == 0.0:
        return 0.0, 0.0
    hi_t = min(m, 2.0 * m ** (1.0 / p)) if p > 1.0 else m
    lo, hi = 0, int(np.float64(hi_t).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(as_float(mid)) <= 0.0:
            lo = mid
        else:
            hi = mid
    return as_float(lo), as_float(hi)
