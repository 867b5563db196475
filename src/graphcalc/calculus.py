"""Discrete differential operators, energies, and pointwise certificates.

The Laplacian here is the random-walk normalization

    (lap u)(x) = sum over edges (x, y) of (mu_xy / d_x) * (u(y) - u(x)),

whose spectrum (of -lap) lies in [0, 2] and which is self-adjoint in the
degree-weighted inner product <u, v> = sum_x d_x u(x) conj(v(x)).

Certificates turn pointwise identities and inequalities (Kato's inequality,
the product rule for u^2, and their corollaries) into per-vertex slack
records: slack >= 0 means the claim holds at that vertex.
"""

import importlib.machinery
import importlib.util
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ComplexNotAllowedError, _require_finite
from .graph import VertexFunction, WeightedGraph, require_same_domain
from .serialize import JsonRecord

DEFAULT_TOL = 1e-10


class SlackView(Mapping):
    """Read-only ``{key: slack}`` mapping over a float64 slack array.

    Entry ``i`` belongs to ``keys[i]``, or to ``keys[index[i]]`` when an
    index array selects a subset of the keys. The per-key dict is built only
    on the first lookup.
    """

    __slots__ = ("_keys", "_index", "_values", "_dict")

    def __init__(self, keys: tuple[str, ...], values: np.ndarray, *, index=None):
        values = np.asarray(values, dtype=np.float64)
        values.setflags(write=False)
        self._keys = keys
        self._index = index
        self._values = values
        self._dict = None

    def first_min(self) -> float:
        """The first minimal entry, as the builtin ``min`` returns it on NaN-free
        input (so ``[0.0, -0.0]`` gives ``0.0``); NaN if any entry is NaN,
        infinity if there are no entries."""
        if not len(self._values):
            return float("inf")
        # argmin returns the first minimal entry, and the first NaN if any
        return float(self._values[np.argmin(self._values)])

    def worst_key(self) -> str | None:
        """The smallest key among the minimal entries (among the NaN entries,
        if any); None if there are no entries."""
        if not len(self._values):
            return None
        m = self._values[np.argmin(self._values)]
        tied = np.flatnonzero(np.isnan(self._values) if np.isnan(m) else self._values == m)
        if self._index is not None:
            tied = self._index[tied]
        keys = self._keys
        return min(keys[i] for i in tied.tolist())

    def _as_dict(self) -> dict[str, float]:
        if self._dict is None:
            keys = self._keys if self._index is None else [self._keys[i] for i in self._index.tolist()]
            self._dict = dict(zip(keys, self._values.tolist()))
        return self._dict

    def __getitem__(self, key: str) -> float:
        return self._as_dict()[key]

    def __iter__(self):
        return iter(self._as_dict())

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"SlackView({self._as_dict()!r})"


@dataclass(frozen=True)
class CertificateReport(JsonRecord):
    """Per-vertex slack record for one inequality or identity check.

    ``slack`` is a read-only :class:`SlackView`: the slack values live in a
    float64 array aligned with the checked keys (usually ``g.vertices``), and
    a ``{key: float}`` dict is built only when something reads it. A plain
    mapping passed to the constructor is wrapped in a view.

    Both verdict fields derive from the slack: ``min_slack`` is the first
    minimal slack, and ``passed`` is true exactly when ``min_slack >= -tol``,
    so ``tol`` must be nonnegative and finite, else :class:`BadParamsError`
    is raised. A NaN slack makes ``min_slack`` NaN, so the report fails, and
    ``worst_vertex()`` names the first NaN key. ``info`` carries optional
    extras that are never asserted.
    """

    check: str
    tol: float
    slack: Mapping[str, float]
    info: dict | None = None

    def __post_init__(self):
        _require_finite("tol", self.tol)
        if not isinstance(self.slack, SlackView):
            view = SlackView(tuple(self.slack), list(self.slack.values()))
            object.__setattr__(self, "slack", view)

    @property
    def min_slack(self) -> float:
        return self.slack.first_min()

    @property
    def passed(self) -> bool:
        return bool(self.min_slack >= -self.tol)

    @classmethod
    def from_array(
        cls, check: str, keys: tuple[str, ...], values: np.ndarray, tol: float, info=None,
        *, index=None,
    ) -> "CertificateReport":
        """Build a report over the slack array ``values``; see :class:`SlackView`
        for ``keys`` and ``index``. The report keeps ``values`` and makes it
        read-only."""
        _require_finite("tol", tol)
        return cls(check, float(tol), SlackView(keys, values, index=index), info)

    def worst_vertex(self) -> str | None:
        return self.slack.worst_key()

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "tol": self.tol,
            "pass": self.passed,
            "min_slack": self.min_slack,
            "slack": dict(self.slack),
        }
        if self.info is not None:
            out["info"] = {
                k: dict(v) if isinstance(v, SlackView) else v for k, v in self.info.items()
            }
        return out


def _abs2(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "c":
        return values.real**2 + values.imag**2
    return values * values


# -- neighbour sums ---------------------------------------------------------------
#
# Every operator here is a row sum over the CSR entries of x,
#
#     S(x) = sum over k of coef_k * d_k  (or of coef_k * |d_k|^2),
#     d_k = u(col_k) - u(x),
#
# defined as np.add.reduceat does it: the row's first term t0 plus numpy's
# pairwise sum of the rest. While fewer than 8 scalars follow t0, that sum
# is a plain loop from -0.0, so the row comes out as
#
#     t0 + (((-0.0 + t1) + t2) + ...),   and -0.0 + t1 == t1 bitwise.
#
# A complex term counts as two scalars, so the loop covers rows of degree
# <= 8 for float64 terms and <= 4 for complex128 terms; beyond that numpy
# sums in 8-accumulator blocks. Rows of degree <= _FOLD_DEGREE (one limit
# for both dtypes) are therefore summed slot by slot, all rows at once.
# Slot j holds the j-th term T_j of each such row. With the rows sorted by
# descending degree, the c_j rows that have a j-th term come first, and
#
#     out = T0;  s = T1;  s[:c_j] += T_j for j >= 2;  out[:c_1] += s
#
# equals reduceat exactly, since a + b == b + a bitwise. Rows of higher
# degree keep reduceat over their own entries. Each row of a batched
# (..., n) input equals its one-row call bitwise.

_FOLD_DEGREE = 4


@dataclass(eq=False)
class _SlotPlan:
    """Where the terms of each slot come from; built once per graph. Its
    index arrays are intp: numpy would convert the graph's 32-bit columns on
    every gather (at 5 * 10^4 entries, np.take 6x and fancy indexing 3x
    slower)."""

    # (k + 1, m): row j < k holds the column of each fold row's j-th entry,
    # row k the fold row itself. Fold rows are the rows of degree at most
    # _FOLD_DEGREE, by descending degree; k is their largest degree. A row
    # with no j-th entry repeats its first one, which the fold never reads.
    cols: np.ndarray
    coef: np.ndarray  # (k, m): the coefficients of those entries
    counts: tuple[int, ...]  # c_j, the number of fold rows with a j-th entry
    high: tuple | None  # (cols, rows, coef, row starts) of the other rows
    inv: np.ndarray  # the position of each vertex in descending-degree order
    # (rows, cols, weights) of the entries above the diagonal, one per edge
    # in canonical edge order; built by the first dirichlet_energy call
    upper: tuple | None = None


def _slot_plan(g: WeightedGraph) -> _SlotPlan:
    """The neighbour-sum layout of ``g``, built on the first call and cached."""
    if g._slot_plan is None:
        row_ptr = g._row_ptr
        deg = np.diff(row_ptr)
        order = np.argsort(-deg, kind="stable")
        n_high = int(np.count_nonzero(deg > _FOLD_DEGREE))
        fold_rows = order[n_high:]
        fold_deg = deg[fold_rows]
        k = int(fold_deg.max(initial=1))
        slot = np.arange(k)[:, None]
        ent = row_ptr[fold_rows] + np.where(slot < fold_deg, slot, 0)
        high = None
        if n_high:
            rows = order[:n_high]
            ptr = np.concatenate([[0], np.cumsum(deg[rows])[:-1]])
            # the entries of the high rows, row after row, and their rows
            hent = np.repeat(row_ptr[rows] - ptr, deg[rows]) + np.arange(int(deg[rows].sum()))
            hrows = np.repeat(rows, deg[rows])
            high = (g._ent_cols[hent].astype(np.intp), hrows, g._ent_w[hent] / g.degrees[hrows], ptr)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        # Unlike the CSR arrays these stay writeable: np.take copies a
        # read-only index array on every call (5x the gather at n = 10^4).
        g._slot_plan = _SlotPlan(
            cols=np.concatenate([g._ent_cols[ent], fold_rows[None, :]], dtype=np.intp),
            coef=g._ent_w[ent] / g.degrees[fold_rows],
            counts=tuple(int(np.count_nonzero(fold_deg > j)) for j in range(k)),
            high=high,
            inv=inv,
        )
    return g._slot_plan


def _neighbor_sum(g: WeightedGraph, values: np.ndarray, squared: bool = False) -> np.ndarray:
    """S(x) = sum over the CSR entries of x of coef * d, or of coef * |d|^2
    if ``squared``, with d = u(col) - u(x), along the last axis of
    ``values``; bitwise equal to np.add.reduceat over the CSR rows."""
    plan = _slot_plan(g)
    gathered = np.take(values, plan.cols, axis=-1)
    terms = gathered[..., :-1, :]
    terms -= gathered[..., -1:, :]
    if squared:
        # real terms are squared in place: with a fresh array, real grad_sq
        # at n = 10^4 measured up to 3x slower
        terms = _abs2(terms) if terms.dtype.kind == "c" else np.multiply(terms, terms, out=terms)
    terms *= plan.coef
    out = terms[..., 0, :]
    counts = plan.counts
    if len(counts) > 1:
        s = terms[..., 1, : counts[1]]
        for j in range(2, len(counts)):
            s[..., : counts[j]] += terms[..., j, : counts[j]]
        out[..., : counts[1]] += s
    if plan.high is not None:
        cols, rows, coef, ptr = plan.high
        diff = np.take(values, cols, axis=-1) - np.take(values, rows, axis=-1)
        high = np.add.reduceat(coef * (_abs2(diff) if squared else diff), ptr, axis=-1)
        out = np.concatenate([high, out], axis=-1)
    return np.take(out, plan.inv, axis=-1)


def _laplacian_values(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    return _neighbor_sum(g, values)


def _grad_sq_values(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    return _neighbor_sum(g, values, squared=True)


# -- sparse LU ------------------------------------------------------------------
#
# Every linear solve factorizes one matrix with SuperLU, through the
# extension module that scipy.sparse.linalg.splu calls; it is loaded by
# itself, so that no solve imports scipy.sparse. The matrices are assembled
# here with numpy as the very CSC arrays scipy's own construction gave them,
# since the factors depend on every bit:
#
# - each entry is computed in scipy's operation order; an entry present in
#   one operand of a sparse sum only is op(a, 0) or op(0, b), e.g.
#   0.0 - dt w for the off-diagonal entries of (1 + dt) D - dt W;
# - exact zeros are dropped, as scipy's canonical sums and its dia -> coo
#   conversion drop them;
# - entries are ordered by (column, row).


class _CSC(NamedTuple):
    """An n x n sparse matrix in compressed sparse column form."""

    n: int
    data: np.ndarray
    indices: np.ndarray  # the row of each entry (int32, as SuperLU takes it)
    indptr: np.ndarray  # where each column starts (int32)


def _csc(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> _CSC:
    """The n x n matrix with ``values[k]`` at (``rows[k]``, ``cols[k]``), the
    positions distinct: exact zeros dropped, entries in (column, row) order.
    The stable sort (a merge sort) takes linear time on entries that come
    in a few runs already in that order, as ``_graph_entries`` gives them."""
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    order = np.argsort(cols * n + rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return _CSC(n, values[order], rows[order].astype(np.intc), indptr)


def _graph_entries(g: WeightedGraph, diag: np.ndarray, off: np.ndarray):
    """(rows, cols, values) of the n x n matrix with diagonal ``diag`` and
    ``off[k]`` at (y, x) for the k-th CSR entry (x, y) of g, its transpose.
    The pattern of g is symmetric, so the CSR entries read transposed come
    column by column, each column's rows ascending: the diagonal first,
    then the entries, two runs in the (column, row) order of ``_csc``."""
    index = np.arange(g.n_vertices)
    return (
        np.concatenate([index, g._ent_cols]),
        np.concatenate([index, g._per_entry(index)]),
        np.concatenate([diag, off]),
    )


_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _superlu():
    """scipy's SuperLU extension module, loaded from its folder on first use,
    so that no scipy package ``__init__`` runs (find_spec of a top-level
    package does not import it)."""
    module = sys.modules.get(_SUPERLU)
    if module is None:
        folder = Path(importlib.util.find_spec("scipy").origin).parent / "sparse" / "linalg" / "_dsolve"
        spec = importlib.machinery.PathFinder.find_spec(_SUPERLU, [str(folder)])
        if spec is None:
            raise ImportError(f"no SuperLU extension module {_SUPERLU} in {folder}")
        module = importlib.util.module_from_spec(spec)
        # a later import of scipy.sparse.linalg takes this module from here
        sys.modules[_SUPERLU] = module
        spec.loader.exec_module(module)
    return module


def _splu(csc: _CSC, error: type[Exception]):
    """The SuperLU factors of ``csc``, as scipy.sparse.linalg.splu gives them
    (its default options); ``error`` is raised when SuperLU meets an exactly
    zero pivot. Only ``solve`` of the result is used: its L and U are not
    built."""
    options = {"DiagPivotThresh": None, "ColPerm": None, "PanelSize": None, "Relax": None}
    try:
        return _superlu().gstrf(
            csc.n, len(csc.data), csc.data, csc.indices, csc.indptr,
            csc_construct_func=None, ilu=False, options=options,
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise error(f"factorization failed: {exc}") from None


def laplacian(g: WeightedGraph, u: VertexFunction) -> VertexFunction:
    """Random-walk Laplacian of u, evaluated vertex by vertex.

    Neighbor sums run in canonical vertex order, so repeated evaluation is
    bitwise reproducible. Linear in u; same scalar kind as the input.
    """
    values = require_same_domain(g, u)
    return VertexFunction(g.vertices, _laplacian_values(g, values))


def grad_sq(g: WeightedGraph, u: VertexFunction) -> VertexFunction:
    """Pointwise squared gradient: sum of (mu_xy/d_x) |u(y) - u(x)|^2.

    Always real and nonnegative; zero exactly where u matches all neighbors.
    """
    values = require_same_domain(g, u)
    return VertexFunction(g.vertices, _grad_sq_values(g, values))


# -- pointwise maps ----------------------------------------------------------


def abs_fn(u: VertexFunction) -> VertexFunction:
    """Pointwise absolute value (modulus for complex input); always real."""
    return VertexFunction(u.vertices, np.abs(u.values))


def _require_real(u: VertexFunction, op: str) -> np.ndarray:
    if u.is_complex:
        raise ComplexNotAllowedError(f"{op} requires a real-valued function")
    return u.values


def pos_part(u: VertexFunction) -> VertexFunction:
    """Pointwise positive part max(u, 0); equals (|u| + u) / 2 exactly."""
    return VertexFunction(u.vertices, np.maximum(_require_real(u, "pos_part"), 0.0))


def sign_fn(u: VertexFunction) -> VertexFunction:
    """Pointwise sign with sign(0) = 0."""
    return VertexFunction(u.vertices, np.sign(_require_real(u, "sign_fn")))


def sign_plus(u: VertexFunction) -> VertexFunction:
    """Indicator of strict positivity: 1 where u > 0, else 0 (including at 0)."""
    return VertexFunction(u.vertices, (_require_real(u, "sign_plus") > 0.0).astype(np.float64))


# -- energies and inner products ---------------------------------------------


def d_inner(g: WeightedGraph, u: VertexFunction, v: VertexFunction):
    """Degree-weighted inner product sum_x d_x u(x) conj(v(x))."""
    uv = require_same_domain(g, u)
    vv = require_same_domain(g, v)
    out = np.sum(g.degrees * uv * np.conj(vv))
    return complex(out) if np.iscomplexobj(out) else float(out)

def mass(g: WeightedGraph, u: VertexFunction) -> float:
    """Squared degree-weighted L2 norm: sum_x d_x |u(x)|^2."""
    values = require_same_domain(g, u)
    return float(np.sum(g.degrees * _abs2(values)))


def dirichlet_energy(g: WeightedGraph, u: VertexFunction) -> float:
    """Sum over unordered edges of mu_xy |u(x) - u(y)|^2.

    Equals <-lap u, u> in the degree-weighted inner product.
    """
    values = require_same_domain(g, u)
    plan = _slot_plan(g)
    if plan.upper is None:
        rows, cols, w = g._upper()
        plan.upper = (rows, cols.astype(np.intp), w)
    rows, cols, w = plan.upper
    return float(np.sum(w * _abs2(np.take(values, rows) - np.take(values, cols))))


def free_energy(g: WeightedGraph, u: VertexFunction) -> float:
    """Ginzburg-Landau free energy: half the Dirichlet energy plus the
    quartic well sum_x d_x (1 - |u(x)|^2)^2 / 4."""
    return _free_energy(g, require_same_domain(g, u), dirichlet_energy(g, u))


def _free_energy(g: WeightedGraph, values: np.ndarray, energy: float) -> float:
    """The free energy of ``values``, given their Dirichlet energy."""
    well = np.sum(g.degrees * (1.0 - _abs2(values)) ** 2)
    return float(0.5 * energy + 0.25 * well)


# -- certificates -------------------------------------------------------------


def check_kato1(g: WeightedGraph, u: VertexFunction, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Certify |grad u|^2 >= |grad |u||^2 at every vertex (Kato's inequality).

    Holds for every real or complex u; a failure beyond tolerance is a bug.
    """
    values = require_same_domain(g, u)
    slack = _grad_sq_values(g, values) - _grad_sq_values(g, np.abs(values))
    return CertificateReport.from_array("kato1", g.vertices, slack, tol)


def check_product_rule(
    g: WeightedGraph, u: VertexFunction, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Certify the discrete product rule lap(u^2) = 2 u lap(u) + |grad u|^2.

    For complex u, u^2 means |u|^2 and the middle term is 2 Re(conj(u) lap u),
    which reduces to 2 u lap(u) for real input. Slack is the negated absolute
    residual, so zero means the identity holds exactly.
    """
    values = require_same_domain(g, u)
    lap_usq = _laplacian_values(g, _abs2(values))
    lap_u = _laplacian_values(g, values)
    middle = 2.0 * np.real(np.conj(values) * lap_u)
    residual = lap_usq - middle - _grad_sq_values(g, values)
    return CertificateReport.from_array("product_rule", g.vertices, -np.abs(residual), tol)


def check_kato2(
    g: WeightedGraph, u: VertexFunction, tol: float = DEFAULT_TOL
) -> tuple[CertificateReport, CertificateReport]:
    """Certify both Kato lower bounds for real u:

    lap|u| >= sign(u) lap(u)   and   lap(u_+) >= sign_+(u) lap(u),

    with sign(0) = 0 and sign_+(u) = 1 only for u > 0, so vertices where u
    vanishes are covered by the weaker (trivial) bound.
    """
    values = _require_real(u, "check_kato2")
    require_same_domain(g, u)
    lap_u = _laplacian_values(g, values)
    slack_abs = _laplacian_values(g, np.abs(values)) - np.sign(values) * lap_u
    pos = np.maximum(values, 0.0)
    slack_pos = _laplacian_values(g, pos) - (values > 0.0).astype(np.float64) * lap_u
    return (
        CertificateReport.from_array("kato2_abs", g.vertices, slack_abs, tol),
        CertificateReport.from_array("kato2_pos_part", g.vertices, slack_pos, tol),
    )
