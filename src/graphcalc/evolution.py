"""Time evolution on weighted graphs: heat, Schrodinger, Gross-Pitaevskii.

Heat flow uses implicit Euler, which preserves the discrete maximum
principle unconditionally: the step operator has nonnegative entries and
unit row sums, so the running max never grows and the min never falls.

The Schrodinger flow i u_t + lap(u) = 0 uses the Crank-Nicolson (Cayley)
step, which is exactly unitary in the degree-weighted norm because lap is
self-adjoint there; mass and Dirichlet energy along the run are conserved
up to the linear-solve residual. The Gross-Pitaevskii flow adds the cubic
term via Strang splitting with a modulus-preserving phase rotation, so mass
is still conserved exactly while the free energy drifts at second order in
the step size.

Every step matrix is factorized once per run with sparse LU (SuperLU) and
each step is a pair of triangular solves. One method serves every graph
size, so the per-solve residual check means the same thing at every n.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import (
    CertificateReport,
    _combinatorial_laplacian,
    _laplacian_values,
    dirichlet_energy,
    free_energy,
    mass,
)
from .errors import (
    BadParamsError,
    ComplexNotAllowedError,
    FileFormatError,
    LinearSolveFailureError,
)
from .graph import VertexFunction, WeightedGraph, require_same_domain
from .serialize import fmt_float

ENVELOPE_TOL = 1e-12

TRACE_HEADER = "step,t,mass,dirichlet_energy,free_energy,max_abs"


class EvolutionScheme(str, Enum):
    HEAT_IMPLICIT = "heat_implicit"
    SCHRODINGER_CN = "schrodinger_cn"
    GP_STRANG = "gp_strang"


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    scheme: EvolutionScheme
    solve_tol: float = 1e-12
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scheme", EvolutionScheme(self.scheme))
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise BadParamsError(f"dt must be positive and finite, got {self.dt!r}")
        if self.steps < 1:
            raise BadParamsError(f"steps must be >= 1, got {self.steps!r}")
        if not (np.isfinite(self.solve_tol) and self.solve_tol > 0):
            raise BadParamsError(f"solve_tol must be positive and finite, got {self.solve_tol!r}")
        if self.stride < 1:
            raise BadParamsError(f"stride must be >= 1, got {self.stride!r}")


@dataclass
class EvolutionTrace:
    """Mass/energy/envelope time series sampled every ``stride`` steps.

    Rows cover steps 0, stride, 2*stride, ...; with N total steps there are
    floor(N / stride) + 1 rows including the initial state.
    """

    steps: list[int]
    times: list[float]
    mass: list[float]
    dirichlet_energy: list[float]
    free_energy: list[float]
    max_abs: list[float]

    @classmethod
    def empty(cls) -> "EvolutionTrace":
        return cls([], [], [], [], [], [])

    def record(self, g: WeightedGraph, step: int, dt: float, values: np.ndarray) -> None:
        u = VertexFunction(g.vertices, values)
        self.steps.append(step)
        self.times.append(step * dt)
        self.mass.append(mass(g, u))
        self.dirichlet_energy.append(dirichlet_energy(g, u))
        self.free_energy.append(free_energy(g, u))
        self.max_abs.append(float(np.max(np.abs(values))))

    def n_rows(self) -> int:
        return len(self.steps)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TRACE_HEADER + "\n")
            for i in range(self.n_rows()):
                fh.write(
                    f"{self.steps[i]},{fmt_float(self.times[i])},{fmt_float(self.mass[i])},"
                    f"{fmt_float(self.dirichlet_energy[i])},{fmt_float(self.free_energy[i])},"
                    f"{fmt_float(self.max_abs[i])}\n"
                )

    @classmethod
    def read_csv(cls, path) -> "EvolutionTrace":
        trace = cls.empty()
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise FileFormatError(f"{path}: unexpected header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                parts = line.strip().split(",")
                if len(parts) != 6:
                    raise FileFormatError(f"{path}: bad row {line!r}")
                trace.steps.append(int(parts[0]))
                trace.times.append(float(parts[1]))
                trace.mass.append(float(parts[2]))
                trace.dirichlet_energy.append(float(parts[3]))
                trace.free_energy.append(float(parts[4]))
                trace.max_abs.append(float(parts[5]))
        return trace


@dataclass(frozen=True)
class MaxPrincipleDiag:
    """Signed per-step max/min envelopes of a heat run (recorded every step)."""

    max_values: tuple[float, ...]
    min_values: tuple[float, ...]
    tol: float
    monotone: bool
    first_violation_step: int | None = None


class _Factorized:
    """Linear solver for a fixed step matrix, with a per-solve residual check.

    The matrix is factorized once with sparse LU; each call solves with the
    stored factors. LinearSolveFailureError is raised when the factorization
    meets an exactly zero pivot, and when a solve's residual exceeds
    100 * solve_tol relative to the right-hand side.
    """

    def __init__(self, matrix: "scipy.sparse.spmatrix", solve_tol: float):
        import scipy.sparse.linalg as spla

        self._matrix = matrix.tocsr()
        self._solve_tol = solve_tol
        try:
            self._lu = spla.splu(matrix.tocsc())
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveFailureError(f"factorization failed: {exc}") from None

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        out = self._lu.solve(rhs)
        residual = float(np.max(np.abs(self._matrix @ out - rhs)))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if not np.isfinite(residual) or residual > self._solve_tol * scale * 100.0:
            raise LinearSolveFailureError(
                f"linear solve residual {residual:.3e} exceeds tolerance"
            )
        return out


def _heat_stepper(g: WeightedGraph, dt: float, solve_tol: float):
    """One implicit-Euler step of u_t = lap(u) in deviation form.

    Solving ((1 + dt) D - dt W) delta = dt * D * lap(u) for the increment,
    with lap evaluated through the neighbor-difference formula, keeps
    constant states exactly stationary (the right-hand side vanishes
    identically instead of up to round-off).
    """
    import scipy.sparse as sp

    d = sp.diags(g.degrees)
    solver = _Factorized((1.0 + dt) * d - dt * g.weight_matrix, solve_tol)

    def step(v: np.ndarray) -> np.ndarray:
        rhs = dt * g.degrees * _laplacian_values(g, v)
        return v + solver(rhs)

    return step


def _cayley_stepper(g: WeightedGraph, dt: float, solve_tol: float):
    """One Crank-Nicolson step of i u_t + lap(u) = 0 in deviation form.

    (D + i dt L / 2) delta = i dt D lap(u), u <- u + delta; functions in the
    kernel of lap are bitwise fixed points.
    """
    import scipy.sparse as sp

    solver = _Factorized(sp.diags(g.degrees) + 0.5j * dt * _combinatorial_laplacian(g), solve_tol)

    def step(v: np.ndarray) -> np.ndarray:
        rhs = 1j * dt * g.degrees * _laplacian_values(g, v)
        return v + solver(rhs)

    return step


def evolve_heat(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace, MaxPrincipleDiag]:
    """Implicit-Euler heat flow u_t = lap(u) with max-principle diagnostics.

    Returns the final state, the strided trace, and the per-step signed
    envelope record (max non-increasing, min non-decreasing to ENVELOPE_TOL).
    """
    if cfg.scheme is not EvolutionScheme.HEAT_IMPLICIT:
        raise BadParamsError(f"evolve_heat needs scheme=heat_implicit, got {cfg.scheme}")
    if u0.is_complex:
        raise ComplexNotAllowedError("heat flow requires a real initial state")
    values = require_same_domain(g, u0).copy()
    step = _heat_stepper(g, cfg.dt, cfg.solve_tol)

    trace = EvolutionTrace.empty()
    trace.record(g, 0, cfg.dt, values)
    maxes = [float(np.max(values))]
    mins = [float(np.min(values))]
    violation = None
    for k in range(1, cfg.steps + 1):
        values = step(values)
        maxes.append(float(np.max(values)))
        mins.append(float(np.min(values)))
        if violation is None and (
            maxes[-1] > maxes[-2] + ENVELOPE_TOL or mins[-1] < mins[-2] - ENVELOPE_TOL
        ):
            violation = k
        if k % cfg.stride == 0:
            trace.record(g, k, cfg.dt, values)
    diag = MaxPrincipleDiag(
        max_values=tuple(maxes),
        min_values=tuple(mins),
        tol=ENVELOPE_TOL,
        monotone=violation is None,
        first_violation_step=violation,
    )
    return VertexFunction(g.vertices, values), trace, diag


def schrodinger_step(
    g: WeightedGraph, u: VertexFunction, dt: float, solve_tol: float = 1e-12
) -> VertexFunction:
    """A single Cayley step; ``dt`` may be negative, which inverts the step."""
    if dt == 0.0:
        raise BadParamsError("dt must be nonzero")
    values = require_same_domain(g, u).astype(np.complex128)
    return VertexFunction(g.vertices, _cayley_stepper(g, dt, solve_tol)(values))


def schrodinger_evolve(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace]:
    """Crank-Nicolson flow for i u_t + lap(u) = 0.

    The step is unitary in the degree norm, so the mass and Dirichlet-energy
    columns of the trace are constant up to the linear-solve residual.
    """
    if cfg.scheme is not EvolutionScheme.SCHRODINGER_CN:
        raise BadParamsError(
            f"schrodinger_evolve needs scheme=schrodinger_cn, got {cfg.scheme}"
        )
    values = require_same_domain(g, u0).astype(np.complex128)
    step = _cayley_stepper(g, cfg.dt, cfg.solve_tol)

    trace = EvolutionTrace.empty()
    trace.record(g, 0, cfg.dt, values)
    for k in range(1, cfg.steps + 1):
        values = step(values)
        if k % cfg.stride == 0:
            trace.record(g, k, cfg.dt, values)
    return VertexFunction(g.vertices, values), trace


def gp_evolve(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace]:
    """Strang-split flow for i u_t + lap(u) = u (|u|^2 - 1).

    Each step is phase(dt/2) . CN(dt) . phase(dt/2), where the exact
    nonlinear phase u <- u exp(-i (|u|^2 - 1) dt / 2) preserves |u|
    pointwise. Both sub-flows are degree-norm isometries, so mass is
    conserved to solver tolerance; the free energy drifts at O(dt^2).
    """
    if cfg.scheme is not EvolutionScheme.GP_STRANG:
        raise BadParamsError(f"gp_evolve needs scheme=gp_strang, got {cfg.scheme}")
    values = require_same_domain(g, u0).astype(np.complex128)
    step = _cayley_stepper(g, cfg.dt, cfg.solve_tol)
    half = 0.5 * cfg.dt

    def phase(v: np.ndarray) -> np.ndarray:
        return v * np.exp(-1j * ((v.real**2 + v.imag**2) - 1.0) * half)

    trace = EvolutionTrace.empty()
    trace.record(g, 0, cfg.dt, values)
    for k in range(1, cfg.steps + 1):
        values = phase(step(phase(values)))
        if k % cfg.stride == 0:
            trace.record(g, k, cfg.dt, values)
    return VertexFunction(g.vertices, values), trace


def check_parabolic_max(diag: MaxPrincipleDiag, tol: float = ENVELOPE_TOL) -> CertificateReport:
    """Certify monotone envelopes from a heat-run diagnostic.

    Per transition n -> n+1 the slacks are max_n - max_{n+1} and
    min_{n+1} - min_n, both required >= -tol. Additionally, if some step
    after the start reaches the initial max while the state is not constant
    (which would contradict the strong parabolic maximum principle), a
    negative `interior_sup` slack entry records the violation. A max that
    falls by less than ``tol`` has still fallen: reaching the initial max
    means equalling or exceeding it, not coming within ``tol`` of it.
    """
    maxes = np.asarray(diag.max_values, dtype=np.float64)
    mins = np.asarray(diag.min_values, dtype=np.float64)
    n_steps = len(maxes) - 1
    width = max(1, len(str(n_steps)))
    labels = [f"{n:0{width}d}" for n in range(1, n_steps + 1)]
    keys = [f"{kind}[{label}]" for label in labels for kind in ("max", "min")]
    # maxes[n] - maxes[n + 1], not -np.diff(maxes), which turns 0.0 into -0.0
    slack = np.column_stack((maxes[:-1] - maxes[1:], np.diff(mins))).ravel()

    spread = maxes[1:] - mins[1:]
    hits = np.flatnonzero((maxes[1:] >= maxes[0]) & (spread > tol))
    interior_violation = None
    if len(hits):
        interior_violation = int(hits[0]) + 1
        keys.append(f"interior_sup[{labels[hits[0]]}]")
        slack = np.append(slack, -spread[hits[0]])

    return CertificateReport.from_array(
        "parabolic_max",
        tuple(keys),
        slack,
        tol,
        info={
            "interior_sup_violation": interior_violation is not None,
            "violating_step": interior_violation,
        },
    )
