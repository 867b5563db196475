"""The solvers' numpy-built matrices against scipy's own construction.

Every linear solve factorizes a matrix that ``calculus._csc`` assembles with
numpy and hands to SuperLU's extension module directly. Each kind must equal,
bit for bit, the CSC arrays that scipy.sparse gives for the same algebra
(followed by ``.tocsc()``), and its factors must solve exactly as
``scipy.sparse.linalg.splu`` of that matrix does. This is also the guard if
scipy ever changes the private entry point the solvers call.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import graphcalc as gc
from graphcalc.calculus import _splu
from graphcalc.elliptic import _gl_jacobian, _schrodinger_system
from graphcalc.evolution import _cayley_matrix, _heat_matrix

def _weights(rng, m):
    return rng.uniform(0.2, 3.0, m)


GRAPHS = {
    "gnp9": lambda: gc.generate("gnp", n=9, p=0.5, seed=2, weight_sampler=_weights),
    "grid12": lambda: gc.generate("grid2d", rows=12, cols=12),
    # rows with many boundary terms, whose sum depends on their order
    "complete12": lambda: gc.generate("complete", n=12, seed=3, weight_sampler=_weights),
}


@pytest.fixture(params=sorted(GRAPHS))
def g(request):
    return GRAPHS[request.param]()


def _same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _assert_same_matrix(csc, ref) -> None:
    """``csc`` (a calculus._CSC) holds exactly the arrays of scipy's ``ref``,
    and its SuperLU factors solve bitwise as splu(ref) does."""
    ref = ref.tocsc()
    assert ref.shape == (csc.n, csc.n)
    _same_bits(csc.data, ref.data)
    assert np.array_equal(csc.indices, ref.indices)
    assert np.array_equal(csc.indptr, ref.indptr)
    rng = np.random.default_rng(csc.n)
    rhs = rng.uniform(-1.0, 1.0, csc.n)
    if ref.dtype.kind == "c":
        rhs = rhs + 1j * rng.uniform(-1.0, 1.0, csc.n)
    try:
        expected = spla.splu(ref).solve(rhs)
    except RuntimeError:  # exactly singular
        with pytest.raises(np.linalg.LinAlgError):
            _splu(csc, np.linalg.LinAlgError)
        return
    _same_bits(_splu(csc, np.linalg.LinAlgError).solve(rhs), expected)


def _laplacian_ref(g):
    return (sp.diags(g.degrees) - g.weight_matrix).tocsr()


@pytest.mark.parametrize("dt", [1e-3, 0.1, 0.37, 1.0, 25.0])
def test_heat_matrix_matches_scipy(g, dt):
    ref = (1.0 + dt) * sp.diags(g.degrees) - dt * g.weight_matrix
    _assert_same_matrix(_heat_matrix(g, dt), ref)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, -0.3])
def test_cayley_matrix_matches_scipy(g, dt):
    ref = sp.diags(g.degrees) + 0.5j * dt * _laplacian_ref(g)
    _assert_same_matrix(_cayley_matrix(g, dt), ref)


def _potential(g, rng):
    q = rng.uniform(0.0, 2.0, g.n_vertices)
    q[rng.random(g.n_vertices) < 0.3] = 0.0
    return q


@pytest.mark.parametrize("complex_data", [False, True])
def test_schrodinger_free_block_and_coupling_match_scipy(g, complex_data):
    rng = np.random.default_rng(5)
    n = g.n_vertices
    qv = _potential(g, rng)
    bidx = np.sort(rng.choice(n, size=n // 2, replace=False))
    free = np.setdiff1d(np.arange(n), bidx)
    u = np.zeros(n, dtype=np.complex128 if complex_data else np.float64)
    u[bidx] = rng.uniform(-2.0, 2.0, len(bidx))
    if complex_data:
        u[bidx] += 1j * rng.uniform(-2.0, 2.0, len(bidx))
    u[bidx[0]] = -0.0  # a signed zero among the boundary values

    S = (_laplacian_ref(g) + sp.diags(g.degrees * qv)).tocsr()
    matrix, coupling = _schrodinger_system(g, qv, free, u, bordered=False)
    _assert_same_matrix(matrix, S[np.ix_(free, free)].astype(u.dtype))
    _same_bits(coupling, S[np.ix_(free, bidx)] @ u[bidx])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_bordered_neumann_system_matches_scipy(g, dtype):
    n = g.n_vertices
    qv = np.zeros(n)
    free = np.arange(n)
    S = (_laplacian_ref(g) + sp.diags(g.degrees * qv)).tocsr()
    gauge = sp.csr_matrix(g.degrees[None, :])
    ref = sp.bmat([[S[np.ix_(free, free)], gauge.T], [gauge, None]]).astype(dtype)
    matrix, coupling = _schrodinger_system(g, qv, free, np.zeros(n, dtype=dtype), bordered=True)
    _assert_same_matrix(matrix, ref)
    _same_bits(coupling, np.zeros(n, dtype=dtype))


def _gl_jacobian_ref(g, v):
    n = g.n_vertices
    P = sp.csr_matrix((g._ent_coef, g._ent_cols, g._row_ptr), shape=(n, n))
    if not np.iscomplexobj(v):
        return P - sp.diags(3.0 * v * v)
    a, b = v.real, v.imag
    cross = sp.diags(-2.0 * a * b)
    return sp.bmat(
        [
            [P - sp.diags(3.0 * a * a + b * b), cross],
            [cross, P - sp.diags(a * a + 3.0 * b * b)],
        ]
    )


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gl_jacobian_matches_scipy(g, dtype):
    rng = np.random.default_rng(7)
    n = g.n_vertices
    v = rng.uniform(-1.5, 1.5, n).astype(dtype)
    if dtype is np.complex128:
        v += 1j * rng.uniform(-1.5, 1.5, n)
        v[1] = v[1].real  # b = 0: a dropped cross entry
    v[0] = 0.0  # an exactly zero, dropped diagonal entry
    _assert_same_matrix(_gl_jacobian(g, v), _gl_jacobian_ref(g, v))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gl_jacobian_with_zero_diagonal_matches_scipy(p3, dtype):
    # at v = (0, 0.5, 0) the diagonal entries of the ends are exactly zero
    # and dropped, and the Jacobian is exactly singular
    v = np.array([0.0, 0.5, 0.0], dtype=dtype)
    jac = _gl_jacobian(p3, v)
    assert len(jac.data) < len(_gl_jacobian_ref(p3, v + 1.0).tocsc().data)
    _assert_same_matrix(jac, _gl_jacobian_ref(p3, v))
