"""Independent brute-force reference implementations for the test suite.

Everything here works from a graph's public edge list with plain Python
loops (or separately assembled dense matrices), deliberately avoiding the
package's CSR fast paths, so the two sides can disagree when one is wrong.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components


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
