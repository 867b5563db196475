"""Stationary solvers and theorem certificates.

Covers linear Schrodinger systems -lap(u) + Q u = f on truncations, the
Ginzburg-Landau equation lap(u) + u (1 - |u|^2) = 0 with its |u| <= 1 bound,
sub-solution and gradient-estimate certificates, the Keller-Osserman chain
mechanism behind the Liouville theorem, the strong maximum principle, and
eigenpairs of -lap.
"""

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .calculus import (
    DEFAULT_TOL,
    CertificateReport,
    SlackView,
    _abs2,
    _csc,
    _CSC,
    _graph_entries,
    _grad_sq_values,
    _laplacian_values,
    _require_real,
    _splu,
)
from .errors import (
    BadParamsError,
    BadStartError,
    ConvergenceFailureError,
    IncompatibleRHSError,
    NegativeInputError,
    NotASolutionError,
    SingularJacobianError,
    SingularSystemError,
    _require_count,
    _require_finite,
)
from .graph import VertexFunction, WeightedGraph, d_constant, require_same_domain
from .serialize import JsonRecord


@dataclass(frozen=True)
class Potential:
    """Nonnegative real coefficient function for -lap(u) + Q u = f."""

    values: VertexFunction

    def __post_init__(self):
        values = _require_real(self.values, "Potential")
        if np.any(values < 0.0):
            raise NegativeInputError("a potential must be nonnegative everywhere")

    @classmethod
    def zero(cls, g: WeightedGraph) -> "Potential":
        return cls(VertexFunction.constant(g, 0.0))


@dataclass(frozen=True)
class SolverConfig(JsonRecord):
    """Shared nonlinear/linear solver knobs; `damping` is the fixed-point step size."""

    tol: float = 1e-12
    max_iters: int = 200_000
    damping: float = 0.2
    seed: int | None = None

    def __post_init__(self):
        _require_finite("tol", self.tol, positive=True)
        _require_count("max_iters", self.max_iters, 0)
        _require_finite("damping", self.damping, positive=True)
        if self.damping > 1:
            raise BadParamsError(f"damping must be at most 1, got {self.damping!r}")

    @classmethod
    def from_json_dict(cls, obj) -> "SolverConfig":
        """Build a config from a JSON object of fields; a missing field keeps its default."""
        types = {f.name: f.type for f in fields(cls)}
        if not isinstance(obj, dict) or not set(obj) <= set(types):
            raise BadParamsError(
                f"solver configuration must be an object with keys among {list(types)}, got {obj!r}"
            )
        kwargs = {}
        for name, value in obj.items():  # a float field takes any JSON number, no field a bool
            accepted = (int, float) if types[name] is float else types[name]
            if isinstance(value, bool) or not isinstance(value, accepted):
                expected = getattr(types[name], "__name__", types[name])
                raise BadParamsError(f"solver configuration {name!r} must be {expected}, got {value!r}")
            if types[name] is float:
                try:
                    value = float(value)
                except OverflowError:  # an integer beyond the double range, read as 1e400 is
                    value = math.inf if value > 0 else -math.inf
            kwargs[name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class SolveReport(JsonRecord):
    converged: bool
    iterations: int
    final_residual: float
    damping_events: int = 0


# -- linear Schrodinger systems on truncations --------------------------------


def _schrodinger_system(g: WeightedGraph, qv: np.ndarray, free: np.ndarray, u: np.ndarray):
    """The free-vertex block S_ff of S = (D - W) + D Q, in the dtype of ``u``,
    and S_fb u_b, the boundary values ``u`` carries seen by the free rows.

    S has the diagonal d + d q and the entries 0 - w, as scipy's sparse sum
    gives them, and each free row sums its boundary terms in column order.
    """
    n = g.n_vertices
    is_free = np.zeros(n, dtype=bool)
    is_free[free] = True
    at = np.cumsum(is_free) - 1  # a free vertex's position among the free ones
    d = g.degrees
    rows, cols, entries = _graph_entries(g, d + d * qv, 0.0 - g._ent_w)
    coupling = is_free[rows] & ~is_free[cols]
    s_fb_u = np.zeros(free.size, dtype=np.result_type(entries, u))
    np.add.at(s_fb_u, at[rows[coupling]], entries[coupling] * u[cols[coupling]])
    inner = is_free[rows] & is_free[cols]
    rows, cols, entries = at[rows[inner]], at[cols[inner]], entries[inner]
    return _csc(free.size, rows, cols, entries.astype(u.dtype)), s_fb_u


def solve_linear_schrodinger(
    g: WeightedGraph,
    Q: Potential,
    f: VertexFunction,
    dirichlet=None,
    tol: float = 1e-10,
) -> tuple[VertexFunction, SolveReport]:
    """Solve -lap(u) + Q u = f on non-Dirichlet vertices.

    Vertices listed in ``dirichlet`` (mapping or (vertex, value) pairs) are
    clamped to the given values and exempt from the equation. Without any
    Dirichlet vertex and with Q identically zero the system is singular and
    ``f`` must satisfy |sum_x d_x f(x)| <= tol * sum_x d_x; that incompatibility
    is projected out of ``f``, the first vertex is pinned at 0, and the
    solution is shifted to the gauge sum_x d_x u(x) = 0.

    Every case is one sparse LU factorization of the free-vertex block of
    S = D - W + D Q, in complex arithmetic when ``f`` or the Dirichlet data
    is complex.
    """
    _require_finite("tol", tol)
    fv = require_same_domain(g, f)
    qv = require_same_domain(g, Q.values)
    n = g.n_vertices

    pairs = dict(dirichlet or ())
    bidx = np.array(sorted(g.index_of(v) for v in pairs), dtype=np.int64)
    bverts = tuple(g.vertices[i] for i in bidx.tolist())
    # as a function on its vertices, a non-finite value is rejected before any solve
    bvals = VertexFunction(bverts, [pairs[v] for v in bverts]).values
    complex_mode = np.iscomplexobj(fv) or np.iscomplexobj(bvals)
    dtype = np.complex128 if complex_mode else np.float64

    free = np.setdiff1d(np.arange(n), bidx, assume_unique=True)
    rhs_full = g.degrees * fv

    u = np.zeros(n, dtype=dtype)
    u[bidx] = bvals

    pure_neumann = len(bidx) == 0 and float(np.max(qv)) == 0.0
    solved = free
    if pure_neumann:
        # the projection leaves the residual |sum d f| / sum d at every vertex
        compat, dsum = np.sum(g.degrees * fv).item(), float(np.sum(g.degrees))
        if abs(compat) > tol * dsum:
            raise IncompatibleRHSError(f"singular system: sum d_x f(x) = {compat!r} must vanish")
        rhs_full -= g.degrees * (compat / dsum)
        solved = free[1:]  # the graph is connected, so pinning one vertex makes S_ff nonsingular
    if solved.size:
        matrix, coupling = _schrodinger_system(g, qv, solved, u)
        u[solved] = _splu(matrix, SingularSystemError).solve(rhs_full[solved].astype(dtype) - coupling)
    if pure_neumann:
        u -= np.sum(g.degrees * u) / np.sum(g.degrees)

    residual = _laplacian_values(g, u) * -1.0 + qv * u - fv
    res = float(np.max(np.abs(residual[free]))) if free.size else 0.0
    return (
        VertexFunction(g.vertices, u),
        SolveReport(converged=res <= tol, iterations=1, final_residual=res),
    )


# -- Ginzburg-Landau -----------------------------------------------------------


def _gl_residual(g: WeightedGraph, v: np.ndarray) -> np.ndarray:
    return _laplacian_values(g, v) + v * (1.0 - _abs2(v))


def _gl_jacobian(g: WeightedGraph, v: np.ndarray) -> _CSC:
    """The Jacobian of lap(v) + v (1 - |v|^2).

    With the random-walk matrix P = D^{-1} W (entries mu_xy / d_x, no
    diagonal), lap = P - I and the Jacobian is J = P - diag(3 v^2) for real
    v. For complex v = a + i b the map is not complex-linear, and J acts on
    (Re delta, Im delta) as the real 2n x 2n block system

        [[P - diag(3a^2 + b^2), diag(-2ab)], [diag(-2ab), P - diag(a^2 + 3b^2)]].

    Each diagonal entry of a block P - diag(x) is 0 - x, as scipy's sparse
    difference gives it.
    """
    # P at the transpose (y, x) of the CSR entry (x, y) is mu_xy / d_y
    coef = g._ent_w / g.degrees[g._ent_cols]
    if not np.iscomplexobj(v):
        return _csc(len(v), *_graph_entries(g, 0.0 - 3.0 * v * v, coef))
    n = len(v)
    a, b = v.real, v.imag
    # both diagonal blocks have the entries of P, at the same positions
    rows, cols, top = _graph_entries(g, 0.0 - (3.0 * a * a + b * b), coef)
    bottom = np.concatenate([0.0 - (a * a + 3.0 * b * b), coef])
    index = np.arange(n)
    cross = -2.0 * a * b
    return _csc(
        2 * n,
        np.concatenate([rows, rows + n, index, index + n]),
        np.concatenate([cols, cols + n, index + n, index]),
        np.concatenate([top, bottom, cross, cross]),
    )


def _gl_newton_step(g: WeightedGraph, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve the linearized system J delta = -r by sparse LU, J the
    Jacobian of :func:`_gl_jacobian`.

    Raises LinAlgError when SuperLU meets an exactly zero pivot or the step
    is not finite, which sends the caller to its fixed-point fallback.
    """
    rhs = -np.concatenate([r.real, r.imag]) if np.iscomplexobj(v) else -r
    delta = _splu(_gl_jacobian(g, v), np.linalg.LinAlgError).solve(rhs)
    if not np.all(np.isfinite(delta)):
        raise np.linalg.LinAlgError("non-finite Newton step")
    if np.iscomplexobj(v):
        n = len(v)
        return delta[:n] + 1j * delta[n:]
    return delta


def solve_ginzburg_landau(
    g: WeightedGraph,
    init: VertexFunction,
    config: SolverConfig | None = None,
) -> tuple[VertexFunction, SolveReport]:
    """Damped Newton iteration for lap(u) + u (1 - |u|^2) = 0.

    Each round attempts a Newton step with backtracking line search on the
    sup-norm residual. When the Jacobian is singular or no backtracked step
    decreases the residual (Newton stagnates near sign-changing saddle
    configurations, where it keeps getting pulled back toward the saddle),
    the solver switches to a streak of fixed-point updates
    u <- u + damping * r, which follow the preconditioned gradient flow of
    the free energy away from the saddle; the streak length doubles after
    consecutive failures so slowly translating domain walls can annihilate.
    A streak whose residual grows a hundredfold or stops being finite is
    rolled back to the state it started from. Every state update counts
    toward ``max_iters``; the report carries ``converged=False`` rather than
    raising when the budget runs out.
    """
    cfg = config or SolverConfig()
    v = require_same_domain(g, init).copy()
    max_backtracks = 12

    damping_events = 0
    singular_stalls = 0
    streak = 50
    best_level = np.inf
    r = _gl_residual(g, v)
    rn = float(np.max(np.abs(r)))
    iterations = 0
    while iterations < cfg.max_iters and rn > cfg.tol:
        # Newton only gets exclusive control while the residual level keeps
        # improving; once it stalls (cycling near a fold between basins) the
        # flow phases below grow until they carry the state past it.
        if rn < 0.95 * best_level:
            best_level = rn
            streak = 50
            stagnant = False
        else:
            stagnant = True

        took_step = False
        try:
            delta = _gl_newton_step(g, v, r)
        except np.linalg.LinAlgError:
            delta = None
        if delta is not None:
            for k in range(max_backtracks):
                t = 0.5**k
                cand = v + t * delta
                cand_r = _gl_residual(g, cand)
                cand_rn = float(np.max(np.abs(cand_r)))
                if np.isfinite(cand_rn) and cand_rn < rn:
                    if t < 1.0:
                        damping_events += 1
                    v, r, rn = cand, cand_r, cand_rn
                    iterations += 1
                    took_step = True
                    break

        if not took_step or stagnant:
            damping_events += 1
            entry_v, entry_r, entry_rn = v, r, rn
            # a diverging streak may overflow; the guard below catches it
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(streak):
                    v = v + cfg.damping * r
                    r = _gl_residual(g, v)
                    rn = float(np.max(np.abs(r)))
                    iterations += 1
                    if not np.isfinite(rn) or rn > 100.0 * max(entry_rn, 1e-8):
                        v, r, rn = entry_v, entry_r, entry_rn
                        break
                    if iterations >= cfg.max_iters or rn <= cfg.tol:
                        break
            streak = min(2 * streak, 50_000)
            if delta is None and rn >= entry_rn:
                singular_stalls += 1
                if singular_stalls >= 10:
                    raise SingularJacobianError(
                        "Jacobian singular and fixed-point fallback is stalled"
                    )
            else:
                singular_stalls = 0

    return (
        VertexFunction(g.vertices, v),
        SolveReport(
            converged=rn <= cfg.tol,
            iterations=iterations,
            final_residual=rn,
            damping_events=damping_events,
        ),
    )


def verify_gl_bound(g: WeightedGraph, u: VertexFunction, tol: float = 1e-9) -> CertificateReport:
    """Certify |u| <= 1 (+ tol) for a Ginzburg-Landau solution.

    The bound is only claimed for solutions, so the residual of
    lap(u) + u (1 - |u|^2) must already be below ``tol``; otherwise
    :class:`NotASolutionError` is raised. Slack is 1 - |u(x)| + tol and the
    report passes iff the minimum slack is nonnegative. ``tol`` must be
    nonnegative and finite.
    """
    _require_finite("tol", tol)
    values = require_same_domain(g, u)
    res = float(np.max(np.abs(_gl_residual(g, values))))
    if res > tol:
        raise NotASolutionError(
            f"residual {res:.3e} exceeds {tol:.3e}; the bound only applies to solutions"
        )
    slack = 1.0 - np.abs(values) + tol
    return CertificateReport.from_array(
        "gl_bound", g.vertices, slack, 0.0, {"residual_sup": res, "solution_tol": tol}
    )


# -- sub-solutions and the gradient estimate -----------------------------------


def check_subsolution(
    g: WeightedGraph, u: VertexFunction, Q: Potential, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Certify that u_+ is a sub-solution: lap(u_+) - Q u_+ >= 0 pointwise.

    This holds at every vertex where -lap(u) + Q u = 0; on truncations,
    restrict attention to the slack entries of interior vertices.
    """
    _require_real(u, "check_subsolution")
    values = require_same_domain(g, u)
    qv = require_same_domain(g, Q.values)
    pos = np.maximum(values, 0.0)
    slack = _laplacian_values(g, pos) - qv * pos
    return CertificateReport.from_array("subsolution", g.vertices, slack, tol)


def verify_gradient_estimate(
    g: WeightedGraph, u: VertexFunction, tol: float = DEFAULT_TOL
) -> CertificateReport:
    """Certify the local gradient estimate for nonnegative u.

    At each qualifying vertex (u > 0 and lap(u) >= 0) the potential
    Q = lap(u)/u makes -lap(u) + Q u = 0 hold there, and the certified bound is

        |grad u|^2 <= (d (1 + Q)^2 - 2 Q - 1) u^2,

    with d the graph constant sup d_x / mu_xy. Vertices outside the
    qualifying set are omitted. The further bound d Q^2 u^2 is reported in
    ``info`` but not asserted: it requires d <= 1, which fails on any graph
    with a vertex of two or more neighbors.
    """
    _require_real(u, "verify_gradient_estimate")
    values = require_same_domain(g, u)
    if np.any(values < 0.0):
        bad = g.vertices[int(np.argmin(values))]
        raise NegativeInputError(f"u must be nonnegative; u({bad!r}) < 0")
    lap = _laplacian_values(g, values)
    gsq = _grad_sq_values(g, values)
    d = d_constant(g)

    idx = np.flatnonzero((values > 0.0) & (lap >= 0.0))
    uq, gq = values[idx], gsq[idx]
    q = lap[idx] / uq
    usq = uq * uq
    slack = (d * (1.0 + q) ** 2 - 2.0 * q - 1.0) * usq - gq
    second = SlackView(g.vertices, d * q * q * usq - gq, index=idx)
    info = {
        "d_constant": d,
        "second_bound_min_slack": second.first_min(),
        "second_bound_slack": second,
    }
    return CertificateReport.from_array(
        "gradient_estimate", g.vertices, slack, tol, info, index=idx
    )


# -- Liouville machinery ---------------------------------------------------------


def _require_liouville_params(p: float, bound: float) -> None:
    _require_finite("p", p, positive=True)
    _require_finite("bound", bound, positive=True)


def _premise_slacks(g: WeightedGraph, values: np.ndarray, p: float, bound: float):
    """The slacks of u >= 0, u <= bound and lap(u) >= u^p along the last axis
    of ``values``, preceded by their elementwise minimum."""
    s_upper = bound - values
    # Clipping keeps u^p finite for fractional p; the nonnegativity slack
    # already fails wherever the clip is active.
    s_super = _laplacian_values(g, values) - np.power(np.maximum(values, 0.0), p)
    return np.minimum(np.minimum(values, s_upper), s_super), values, s_upper, s_super


def check_liouville_premises(
    g: WeightedGraph,
    u: VertexFunction,
    p: float,
    bound: float,
    tol: float = DEFAULT_TOL,
) -> CertificateReport:
    """Check the premises 0 <= u <= bound and lap(u) >= u^p at every vertex.

    The per-vertex slack is the minimum of the three premise slacks; the
    three families are also reported separately in ``info``. The only
    function satisfying all premises is u = 0, so any passing input must be
    zero up to tolerance effects.
    """
    _require_real(u, "check_liouville_premises")
    _require_liouville_params(p, bound)
    values = require_same_domain(g, u)
    combined, s_nonneg, s_upper, s_super = _premise_slacks(g, values, p, bound)
    info = {
        "nonnegative_min": float(np.min(s_nonneg)),
        "upper_bound_min": float(np.min(s_upper)),
        "supersolution_min": float(np.min(s_super)),
    }
    return CertificateReport.from_array("liouville_premises", g.vertices, combined, tol, info)


class ChainOutcome(str, Enum):
    ESCAPED_BOUND = "escaped_bound"
    REVISIT_CONTRADICTION = "revisit_contradiction"
    PREMISE_VIOLATION = "premise_violation"


@dataclass(frozen=True)
class ChainCertificate(JsonRecord):
    """Greedy growth chain witnessing the Keller-Osserman dichotomy.

    Starting from x0 with rho = u(x0) > 0 and w = u / rho, each step moves to
    the neighbor with the largest w. While lap(u) >= u^p holds along the way,
    the weighted-average identity forces w(next) >= w(current) +
    rho^(p-1) w^p(current), so the recorded values climb; on a finite graph
    the chain must then revisit a vertex (contradiction), exceed the stated
    bound, or expose a vertex where the premise fails.
    """

    outcome: ChainOutcome
    chain: tuple[str, ...]
    values: tuple[float, ...]
    increments: tuple[float, ...]
    rho: float
    p: float
    bound: float
    tol: float
    violation_vertex: str | None = None
    premise_slack: float | None = None


def keller_osserman_chain(
    g: WeightedGraph,
    u: VertexFunction,
    p: float,
    x0: str,
    tol: float = 1e-12,
    bound: float | None = None,
) -> ChainCertificate:
    """Grow the greedy chain from ``x0`` and report how it terminates.

    ``bound`` is the a-priori upper bound on u (defaults to max(u), in which
    case the escape outcome is unreachable and the chain ends in a revisit or
    a premise violation); ``p`` and ``bound`` must be positive and finite,
    ``tol`` nonnegative and finite. Each step without a verdict adds a new
    vertex, so one comes within |X| steps.
    """
    _require_real(u, "keller_osserman_chain")
    _require_finite("tol", tol)
    values = require_same_domain(g, u)
    if np.any(values < 0.0):
        raise NegativeInputError("u must be nonnegative")
    i0 = g.index_of(x0)
    rho = float(values[i0])
    if rho <= 0.0:
        raise BadStartError(f"u({x0!r}) = {rho!r} must be positive")

    a = float(bound) if bound is not None else float(np.max(values))
    _require_liouville_params(p, a)
    w = values / rho
    w_cap = a / rho

    chain = [i0]
    increments: list[float] = []
    visited = {i0}
    violation_vertex = None
    premise_slack = None

    while True:
        x = chain[-1]
        inc = rho ** (p - 1.0) * w[x] ** p
        lo, hi = g._row_ptr[x], g._row_ptr[x + 1]
        cols = g._ent_cols[lo:hi]
        best = int(cols[np.argmax(w[cols])])
        if w[best] < w[x] + inc - tol:
            # The best neighbor falls short, so the weighted average does too:
            # the premise lap(u) >= u^p cannot hold at x.
            outcome = ChainOutcome.PREMISE_VIOLATION
            violation_vertex = g.vertices[x]
            premise_slack = float(_premise_slacks(g, values, p, a)[3][x])
            break
        increments.append(float(inc))
        chain.append(best)
        if best in visited:
            outcome = ChainOutcome.REVISIT_CONTRADICTION
            break
        if w[best] > w_cap + tol:
            outcome = ChainOutcome.ESCAPED_BOUND
            break
        visited.add(best)

    return ChainCertificate(
        outcome=outcome,
        chain=tuple(g.vertices[i] for i in chain),
        values=tuple(w[chain].tolist()),
        increments=tuple(increments),
        rho=rho,
        p=float(p),
        bound=a,
        tol=tol,
        violation_vertex=violation_vertex,
        premise_slack=premise_slack,
    )


LIOUVILLE_NORM_THRESHOLD = 1e-6
# The largest dense float64 array liouville_search builds, the n x n operator
# or the restarts x n state, in bytes: 1 GiB, which admits n up to 11,585.
LIOUVILLE_MAX_OPERATOR_BYTES = 2**30


@dataclass(frozen=True)
class LiouvilleSearchReport(JsonRecord):
    """Outcome of an attempted counterexample search for the Liouville claim."""

    p: float
    bound: float
    restarts: int
    steps: int
    seed: int
    norm_threshold: float
    exact_feasible: int
    max_feasible_sup_norm: float
    counterexample: dict | None = None

    @property
    def found_counterexample(self) -> bool:
        return self.counterexample is not None


_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
_LARGEST_DOUBLE = float(np.finfo(np.float64).max)
# np.spacing overflows at the largest double; the double below it has the same ulp.
_BELOW_LARGEST_DOUBLE = float(np.nextafter(_LARGEST_DOUBLE, 0.0))


@functools.lru_cache(maxsize=16)
def _finite_power_limit(p: float) -> float:
    """The largest double t whose np.power(t, p) is finite (p > 1)."""
    t = np.power(_LARGEST_DOUBLE, 1.0 / p)
    with np.errstate(over="ignore"):
        while not np.isfinite(np.power(t, p)):
            t = np.nextafter(t, 0.0)
        while np.isfinite(np.power(np.nextafter(t, np.inf), p)):
            t = np.nextafter(t, np.inf)
    return float(t)


def _cap_root(m: np.ndarray, p: float) -> np.ndarray:
    """Elementwise nonnegative root of t + t^p = m (m >= 0)."""
    if p == 1.0:
        return 0.5 * m
    if p == 2.0:
        # (sqrt(1 + 4m) - 1) / 2, rationalized so that small m does not cancel
        return m / (0.5 + np.sqrt(0.25 + m))
    if p == 3.0:
        # Cardano: the one real root is A - 1/(3A), A = cbrt(h + sqrt(h^2 + 1/27)),
        # h = m/2, written as m / (A^2 + 1/3 + 1/(9A^2)) so that small m does
        # not cancel. Above h = 1e150 the sqrt rounds to h, and max(h, .)
        # returns h without squaring it.
        h = 0.5 * m
        hc = np.minimum(h, 1e150)
        a2 = np.cbrt(h + np.maximum(h, np.sqrt(hc * hc + 1.0 / 27.0))) ** 2
        t = m / (a2 + 1.0 / 3.0 + 1.0 / (9.0 * a2))
        # One Newton step takes the worst point from 2 ulps off to 1. Its
        # residual t + t^3 - m is halved, as t^3 can round above the
        # largest double when m is near it.
        half_res = 0.5 * t + 0.5 * t * t * t - h
        return np.maximum(t - 2.0 * half_res / (1.0 + 3.0 * t * t), 0.0)
    # For p < 1, m^(1/p) overflows only where it exceeds m, and min picks m.
    # For p > 1, m^(1/p) can round up to a t whose t^p overflows, when m is
    # near the largest double. So the start and every iterate are capped at
    # the largest t with t^p finite; the root is at most one double above
    # that cap, and where t^p stays finite the cap changes nothing.
    top = _finite_power_limit(p) if p > 1.0 else math.inf
    with np.errstate(over="ignore"):
        t = np.minimum(np.minimum(m, np.power(np.maximum(m, 0.0), 1.0 / p)), top)
    for _ in range(30):
        tp = np.power(t, p)
        # Near the largest double t + t^p can overflow where t + t^p - m does
        # not; only there is the residual summed as (t - m) + t^p.
        with np.errstate(over="ignore"):
            t_plus_tp = t + tp
        ft = np.where(np.isinf(t_plus_tp), (t - m) + tp, t_plus_tp - m)
        # The floor keeps 0^(p-1) finite for p < 1; where t^(p-1) still
        # overflows (tiny p, subnormal t), dft = inf leaves t in place.
        with np.errstate(over="ignore"):
            dft = 1.0 + p * np.power(np.maximum(t, _SMALLEST_SUBNORMAL), p - 1.0)
        t_next = np.clip(t - ft / dft, 0.0, top)
        # Once the roots have converged, further sweeps only flip last bits.
        if np.all(np.abs(t_next - t) <= 2.0 * np.spacing(np.minimum(t, _BELOW_LARGEST_DOUBLE))):
            return t_next
        t = t_next
    return t


def liouville_search(
    g: WeightedGraph,
    p: float,
    bound: float,
    restarts: int = 10_000,
    steps: int = 1000,
    seed: int = 0,
) -> LiouvilleSearchReport:
    """Projected random search plus ascent for a nonzero function satisfying
    0 <= u <= bound and lap(u) >= u^p.

    Random starts are pushed upward (ascent on sum u) and repaired toward
    feasibility by capping each vertex at the root of t + t^p = (weighted
    neighbor mean); every row is then checked against the exact premises
    (zero tolerance) by the kernel of :func:`check_liouville_premises`. A
    counterexample is any exactly feasible function with sup norm above
    ``LIOUVILLE_NORM_THRESHOLD``; the Liouville theorem predicts none. A
    search whose operator or state would exceed ``LIOUVILLE_MAX_OPERATOR_BYTES``
    raises BadParamsError before anything is allocated.
    """
    _require_liouville_params(p, bound)
    _require_count("restarts", restarts, 1)
    _require_count("steps", steps, 1)
    n = g.n_vertices
    nbytes = 8 * n * max(n, restarts)
    if nbytes > LIOUVILLE_MAX_OPERATOR_BYTES:
        raise BadParamsError(
            f"liouville_search on n = {n} vertices with {restarts} restarts needs a dense array "
            f"of {nbytes} bytes, above LIOUVILLE_MAX_OPERATOR_BYTES = {LIOUVILLE_MAX_OPERATOR_BYTES}"
        )
    rng = np.random.default_rng(seed)
    # The transposed random-walk matrix, pt[y, x] = mu_xy / d_x, so that
    # u @ pt gives every row's weighted neighbor means. A dense matmul is
    # faster than the CSR kernel at the sizes the search runs on.
    pt = np.zeros((n, n))
    rows = g._per_entry(np.arange(n))
    pt[g._ent_cols, rows] = g._ent_w / g.degrees[rows]
    u = rng.uniform(0.0, bound, (restarts, n))
    eta = 0.01 * bound

    prev = None
    for it in range(steps):
        u += eta
        np.clip(u, 0.0, bound, out=u)
        m = u @ pt
        np.minimum(u, _cap_root(m, p), out=u)
        if it % 25 == 24:
            if prev is not None and float(np.max(np.abs(u - prev))) < 1e-13:
                break
            prev = u.copy()
    for _ in range(60):
        np.minimum(u, _cap_root(u @ pt, p), out=u)

    feasible = u[np.min(_premise_slacks(g, u, p, bound)[0], axis=1) >= 0.0]
    sups = np.max(np.abs(feasible), axis=1)
    large = np.flatnonzero(sups > LIOUVILLE_NORM_THRESHOLD)
    counterexample = dict(zip(g.vertices, feasible[large[0]].tolist())) if len(large) else None
    return LiouvilleSearchReport(
        p=float(p),
        bound=float(bound),
        restarts=restarts,
        steps=steps,
        seed=seed,
        norm_threshold=LIOUVILLE_NORM_THRESHOLD,
        exact_feasible=len(feasible),
        max_feasible_sup_norm=float(np.max(sups, initial=0.0)),
        counterexample=counterexample,
    )


# -- strong maximum principle -----------------------------------------------------


class MaxPrincipleOutcome(str, Enum):
    NOT_SUBHARMONIC = "not_subharmonic"
    CONSTANT_CONFIRMED = "constant_confirmed"
    VIOLATION = "violation"


@dataclass(frozen=True)
class MaxPrincipleResult(JsonRecord):
    outcome: MaxPrincipleOutcome
    vertex: str | None = None


def check_strong_max_principle(
    g: WeightedGraph, u: VertexFunction, tol: float = DEFAULT_TOL
) -> MaxPrincipleResult:
    """Desk-scale strong maximum principle check.

    If lap(u) dips below -tol anywhere the input is simply not subharmonic.
    Otherwise the maximum is attained (finite graph) and u must be constant
    up to the tolerance: by optional stopping of the random walk from x at
    its first visit to y, lap(u) >= -tol gives u(x) - u(y) <= tol * H(x, y),
    with H(x, y) >= 1 the expected hitting time. A spread of at most tol is
    confirmed at once; a larger one is held against H from the argmax to the
    argmin, one Dirichlet solve of -lap(H) = 1 with H(y) = 0, with margins
    for the rounding of the float Laplacian and of the solve. A
    ``violation`` return would falsify the principle and indicates a bug.
    """
    _require_real(u, "check_strong_max_principle")
    _require_finite("tol", tol)
    values = require_same_domain(g, u)
    lap = _laplacian_values(g, values)
    imin = int(np.argmin(lap))
    if lap[imin] < -tol:
        return MaxPrincipleResult(MaxPrincipleOutcome.NOT_SUBHARMONIC, g.vertices[imin])
    top, bottom = int(np.argmax(values)), int(np.argmin(values))
    spread = float(values[top] - values[bottom])
    if spread <= tol:
        return MaxPrincipleResult(MaxPrincipleOutcome.CONSTANT_CONFIRMED)
    hitting, _ = solve_linear_schrodinger(
        g, Potential.zero(g), VertexFunction.constant(g, 1.0), {g.vertices[bottom]: 0.0}
    )
    # a float row of k terms coef * (u(y) - u(x)), the coefficients summing
    # to 1, errs by at most gamma_(2k+1) * 2 max|u| < (2k + 4) eps max|u|
    k = int(np.max(np.diff(g._row_ptr)))
    rounding = (2 * k + 4) * np.finfo(np.float64).eps * float(np.max(np.abs(values)))
    if spread <= (tol + rounding) * hitting.values[top] * (1.0 + 1e-8):
        return MaxPrincipleResult(MaxPrincipleOutcome.CONSTANT_CONFIRMED)
    return MaxPrincipleResult(MaxPrincipleOutcome.VIOLATION, g.vertices[top])


# -- spectra ------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralPair(JsonRecord):
    """Eigenpair of -lap with the eigenvector normalized in the degree norm."""

    eigenvalue: float
    residual: float
    eigenvector: VertexFunction

    def __post_init__(self):
        if not (0.0 <= self.eigenvalue <= 2.0):
            raise ValueError(f"eigenvalue {self.eigenvalue!r} outside [0, 2]")


def _normalized_entries(g: WeightedGraph, shift: float):
    """(rows, cols, values) of N - shift I, N = I - D^{-1/2} W D^{-1/2}, as
    scipy's sparse arithmetic gives them: the diagonal 1 - shift, the entries
    0 - (inv_x w) inv_y with inv = 1 / sqrt(d)."""
    inv = 1.0 / np.sqrt(g.degrees)
    # the entry at the transpose (y, x) of the CSR entry (x, y)
    off = 0.0 - (inv[g._ent_cols] * g._ent_w) * g._per_entry(inv)
    return _graph_entries(g, np.full(g.n_vertices, 1.0 - shift), off)


def spectrum_smallest(g: WeightedGraph, k: int, tol: float = 1e-8) -> list[SpectralPair]:
    """The k smallest eigenpairs of -lap.

    Computed on the symmetrically normalized operator (conjugation by the
    square root of the degree measure), whose spectrum lies in [0, 2]; the
    returned eigenvectors are orthonormal in the degree-weighted inner
    product. The smallest eigenvalue of a connected graph is 0 with a
    constant eigenvector. The solver follows from k, never from n: dense
    ``eigh`` for k >= n - 1, where ARPACK cannot run, and otherwise
    shift-invert ``eigsh`` from a fixed start vector, so that repeated calls
    return the same eigenvectors.
    """
    import scipy.sparse.linalg as spla

    n = g.n_vertices
    _require_count("k", k, 1, n)
    _require_finite("tol", tol, positive=True)
    dsqrt = np.sqrt(g.degrees)
    if k >= n - 1:
        # ARPACK needs k < n - 1; eigh reads only the lower triangle.
        rows, cols, entries = _normalized_entries(g, 0.0)
        dense = np.zeros((n, n))
        dense[rows, cols] = entries
        evals, evecs = np.linalg.eigh(dense)
    else:
        sigma = -0.1
        lu = _splu(_csc(n, *_normalized_entries(g, sigma)), ConvergenceFailureError)
        # given OPinv, eigsh reads only the shape and dtype of its matrix
        op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            evals, evecs = spla.eigsh(op, k=k, sigma=sigma, which="LM", v0=v0, OPinv=op)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from None
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]

    pairs = []
    for j in range(k):
        lam = float(evals[j])
        if lam < -tol or lam > 2.0 + tol:
            raise ConvergenceFailureError(f"eigenvalue {lam!r} outside [0, 2] beyond tolerance")
        lam = min(max(lam, 0.0), 2.0)
        phi = evecs[:, j] / dsqrt
        peak = int(np.argmax(np.abs(phi)))
        if phi[peak] < 0:
            phi = -phi
        residual = float(np.max(np.abs(-_laplacian_values(g, phi) - lam * phi)))
        if residual > tol:
            raise ConvergenceFailureError(
                f"eigenpair {j} residual {residual:.3e} exceeds {tol:.3e}"
            )
        pairs.append(
            SpectralPair(
                eigenvalue=lam,
                residual=residual,
                eigenvector=VertexFunction(g.vertices, phi),
            )
        )
    return pairs
