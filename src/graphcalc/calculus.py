"""Discrete differential operators, energies, and pointwise certificates.

The Laplacian here is the random-walk normalization

    (lap u)(x) = sum over edges (x, y) of (mu_xy / d_x) * (u(y) - u(x)),

whose spectrum (of -lap) lies in [0, 2] and which is self-adjoint in the
degree-weighted inner product <u, v> = sum_x d_x u(x) conj(v(x)).

Certificates turn pointwise identities and inequalities (Kato's inequality,
the product rule for u^2, and their corollaries) into per-vertex slack
records: slack >= 0 means the claim holds at that vertex.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import BadParamsError, ComplexNotAllowedError
from .graph import VertexFunction, WeightedGraph, require_same_domain
from .serialize import json_dumps

DEFAULT_TOL = 1e-10


class SlackView(Mapping):
    """Read-only ``{key: slack}`` mapping over a float64 slack array.

    Entry ``i`` belongs to ``keys[i]``, or to ``keys[index[i]]`` when an
    index array selects a subset of the keys. The per-key dict is built only
    on the first lookup.
    """

    __slots__ = ("_keys", "_index", "_values", "_imin", "_dict")

    def __init__(self, keys: tuple[str, ...], values: np.ndarray, *, index=None):
        values = np.asarray(values, dtype=np.float64)
        values.setflags(write=False)
        self._keys = keys
        self._index = index
        self._values = values
        self._imin = None
        self._dict = None

    def _first_min_index(self) -> int:
        # argmin returns the first minimal entry, and the first NaN if any
        if self._imin is None:
            self._imin = int(np.argmin(self._values))
        return self._imin

    def first_min(self) -> float:
        """The first minimal entry, as the builtin ``min`` returns it on NaN-free
        input (so ``[0.0, -0.0]`` gives ``0.0``); NaN if any entry is NaN,
        infinity if there are no entries."""
        if not len(self._values):
            return float("inf")
        return float(self._values[self._first_min_index()])

    def worst_key(self) -> str | None:
        """The smallest key among the minimal entries (among the NaN entries,
        if any); None if there are no entries."""
        if not len(self._values):
            return None
        m = self._values[self._first_min_index()]
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
class CertificateReport:
    """Per-vertex slack record for one inequality or identity check.

    ``slack`` is a read-only :class:`SlackView`: the slack values live in a
    float64 array aligned with the checked keys (usually ``g.vertices``), and
    a ``{key: float}`` dict is built only when something reads it. A plain
    mapping passed to the constructor is wrapped in a view.

    ``min_slack`` is the first minimal slack, and ``passed`` is true exactly
    when ``min_slack >= -tol``. A NaN slack makes ``min_slack`` NaN, so the
    report fails, and ``worst_vertex()`` names the first NaN key. ``info``
    carries optional informational extras that are reported but never
    asserted.
    """

    check: str
    tol: float
    passed: bool
    min_slack: float
    slack: Mapping[str, float]
    info: dict | None = None

    def __post_init__(self):
        if not isinstance(self.slack, SlackView):
            view = SlackView(tuple(self.slack), list(self.slack.values()))
            object.__setattr__(self, "slack", view)
        expected = self.slack.first_min()
        same = self.min_slack == expected or (math.isnan(self.min_slack) and math.isnan(expected))
        if not same or self.passed != (self.min_slack >= -self.tol):
            raise ValueError("inconsistent certificate report")

    @classmethod
    def from_array(
        cls, check: str, keys: tuple[str, ...], values: np.ndarray, tol: float, info=None,
        *, index=None,
    ) -> "CertificateReport":
        """Build a report over the slack array ``values``; see :class:`SlackView`
        for ``keys`` and ``index``. The report keeps ``values`` and makes it
        read-only. A non-finite ``tol`` raises :class:`BadParamsError`."""
        if not math.isfinite(tol):  # min_slack >= -inf always holds, >= -nan never
            raise BadParamsError(f"tol must be finite, got {tol!r}")
        slack = SlackView(keys, values, index=index)
        min_slack = slack.first_min()
        return cls(check, float(tol), bool(min_slack >= -tol), min_slack, slack, info)

    @classmethod
    def from_slack(cls, check: str, slack: Mapping[str, float], tol: float, info=None):
        return cls.from_array(check, tuple(slack), list(slack.values()), tol, info)

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

    def to_json(self) -> str:
        return json_dumps(self.to_json_dict())


def _abs2(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "c":
        return values.real**2 + values.imag**2
    return values * values


def _laplacian_values(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    terms = g._ent_coef * (values[g._ent_cols] - values[g._ent_rows])
    return np.add.reduceat(terms, g._row_ptr[:-1])


def _grad_sq_values(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    diff = values[g._ent_cols] - values[g._ent_rows]
    terms = g._ent_coef * _abs2(diff)
    return np.add.reduceat(terms, g._row_ptr[:-1])


def _combinatorial_laplacian(g: WeightedGraph) -> "scipy.sparse.csr_matrix":
    """L = D - W, the symmetric form with lap = -D^{-1} L."""
    import scipy.sparse as sp

    return (sp.diags(g.degrees) - g.weight_matrix).tocsr()


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
    diff = values[g._edge_xi] - values[g._edge_yi]
    return float(np.sum(g._edge_w * _abs2(diff)))


def free_energy(g: WeightedGraph, u: VertexFunction) -> float:
    """Ginzburg-Landau free energy: half the Dirichlet energy plus the
    quartic well sum_x d_x (1 - |u(x)|^2)^2 / 4."""
    values = require_same_domain(g, u)
    well = np.sum(g.degrees * (1.0 - _abs2(values)) ** 2)
    return float(0.5 * dirichlet_energy(g, u) + 0.25 * well)


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
