"""The solvers' numpy-built matrices against scipy's own construction.

Every linear solve factorizes a matrix that ``calculus._csc`` assembles with
numpy and hands to SuperLU's extension module directly. Each kind must equal,
bit for bit, the CSC arrays that scipy.sparse gives for the same algebra
(followed by ``.tocsc()``), and its factors must solve exactly as
``scipy.sparse.linalg.splu`` of that matrix does. The spectrum's normalized
operator is held to the same standard, and its eigenpairs to those of
scipy's own shift-invert ``eigsh``. This is also the guard if scipy ever
changes the private entry point the solvers call.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import graphcalc as gc
from graphcalc.calculus import _csc, _splu
from graphcalc.elliptic import _gl_jacobian, _normalized_entries, _schrodinger_system
from graphcalc.evolution import _step_matrix

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
    _assert_same_matrix(_step_matrix(g, dt), ref)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, -0.3])
def test_cayley_matrix_matches_scipy(g, dt):
    ref = sp.diags(g.degrees) + 0.5j * dt * _laplacian_ref(g)
    _assert_same_matrix(_step_matrix(g, 0.5j * dt), ref)


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
    matrix, coupling = _schrodinger_system(g, qv, free, u)
    _assert_same_matrix(matrix, S[np.ix_(free, free)].astype(u.dtype))
    _same_bits(coupling, S[np.ix_(free, bidx)] @ u[bidx])


def _gl_jacobian_ref(g, v):
    n = g.n_vertices
    coef = g._ent_w / np.repeat(g.degrees, np.diff(g._row_ptr))
    P = sp.csr_matrix((coef, g._ent_cols, g._row_ptr), shape=(n, n))
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


# -- the spectrum -------------------------------------------------------------------

SPECTRAL_GRAPHS = {
    **GRAPHS,
    "gnp200": lambda: gc.generate("gnp", n=200, p=0.05, seed=4, weight_sampler=_weights),
}


SIGMA = -0.1  # the shift of spectrum_smallest's eigsh


@pytest.fixture(params=sorted(SPECTRAL_GRAPHS), scope="module")
def sg(request):
    return SPECTRAL_GRAPHS[request.param]()


def _normalized_ref(g):
    """I - D^{-1/2} W D^{-1/2} as scipy's sparse arithmetic builds it."""
    inv = sp.diags(1.0 / np.sqrt(g.degrees))
    return (sp.identity(g.n_vertices) - inv @ g.weight_matrix @ inv).tocsc()


def test_normalized_operator_matches_scipy(sg):
    n = sg.n_vertices
    ref = _normalized_ref(sg)
    _assert_same_matrix(_csc(n, *_normalized_entries(sg, 0.0)), ref)
    # the shifted matrix eigsh factorizes in shift-invert mode
    _assert_same_matrix(_csc(n, *_normalized_entries(sg, SIGMA)), ref - SIGMA * sp.eye(n))


def _assert_same_pairs(g, pairs, evals, evecs):
    """``pairs`` are the eigenpairs (evals, evecs) of the normalized
    operator, in their order, taken back to -lap as spectrum_smallest does,
    bit for bit."""
    dsqrt = np.sqrt(g.degrees)
    assert len(pairs) == len(evals)
    for pair, lam, vec in zip(pairs, evals, evecs.T):
        assert pair.eigenvalue.hex() == min(max(float(lam), 0.0), 2.0).hex()
        phi = vec / dsqrt
        _same_bits(pair.eigenvector.values, -phi if phi[np.argmax(np.abs(phi))] < 0 else phi)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_shift_invert_eigenpairs_match_scipy(sg, k):
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, sg.n_vertices)
    evals, evecs = spla.eigsh(_normalized_ref(sg), k=k, sigma=SIGMA, which="LM", v0=v0)
    order = np.argsort(evals)
    _assert_same_pairs(sg, gc.spectrum_smallest(sg, k), evals[order], evecs[:, order])


@pytest.mark.parametrize("below", [1, 0])
def test_dense_eigenpairs_match_scipy(sg, below):
    k = sg.n_vertices - below
    evals, evecs = np.linalg.eigh(_normalized_ref(sg).toarray())
    _assert_same_pairs(sg, gc.spectrum_smallest(sg, k), evals[:k], evecs[:, :k])


_SPECTRUM_AFTER_SOLVE = """
import hashlib, sys
import numpy as np
import graphcalc as gc
g = gc.generate("grid2d", rows=12, cols=12)
if sys.argv[1] == "after-solve":
    # the solve loads SuperLU's extension module by itself, no scipy package
    f = gc.VertexFunction(g.vertices, np.ones(g.n_vertices))
    gc.solve_linear_schrodinger(g, gc.Potential.zero(g), f, {g.vertices[0]: 0.0})
    assert "scipy.sparse.linalg._dsolve._superlu" in sys.modules
    assert "scipy.sparse.linalg" not in sys.modules
digest = hashlib.sha256()
for pair in gc.spectrum_smallest(g, 4):
    digest.update(np.float64(pair.eigenvalue).tobytes())
    digest.update(np.float64(pair.residual).tobytes())
    digest.update(pair.eigenvector.values.tobytes())
print(digest.hexdigest())
"""


def test_spectrum_after_a_solve_matches_a_fresh_process(tmp_path):
    # scipy.sparse.linalg is imported after the solve registered the SuperLU
    # module, which then is no attribute of its package; eigsh must not care
    env = dict(os.environ)
    src = str(Path(gc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    digests = []
    for mode in ("fresh", "after-solve"):
        proc = subprocess.run(
            [sys.executable, "-c", _SPECTRUM_AFTER_SOLVE, mode],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split()[-1])
    assert digests[0] == digests[1]
