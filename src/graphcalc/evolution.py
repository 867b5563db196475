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

All three flows run through one implicit stepper and one time loop. The
stepper builds M = D + c L = D (I - c lap) from c (L = D - W, W the weight
matrix) and solves M delta = b D lap(u): b = c = dt for heat, b = i dt and
c = i dt/2 for Crank-Nicolson. M is factorized once per run with sparse LU
(SuperLU), each step is a pair of triangular solves, and every solve's
residual D (delta - c lap(delta)) - rhs is checked, the same way at every n.
Each entry point rejects a solve_tol that is not positive and finite and a
dt that is not finite (nonzero for one step, positive for a run).
"""

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .calculus import (
    CertificateReport,
    _abs2,
    _csc,
    _CSC,
    _graph_entries,
    _laplacian_values,
    _require_real,
    _splu,
    dirichlet_energy,
    free_energy,
    mass,
)
from .errors import (
    BadParamsError,
    FileFormatError,
    LinearSolveFailureError,
    _require_count,
    _require_finite,
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
        _require_finite("dt", self.dt, positive=True)
        _require_count("steps", self.steps, 1)
        _require_finite("solve_tol", self.solve_tol, positive=True)
        _require_count("stride", self.stride, 1)


@dataclass
class EvolutionTrace:
    """Mass/energy/envelope time series sampled every ``stride`` steps.

    Rows cover steps 0, stride, 2*stride, ...; with N total steps there are
    floor(N / stride) + 1 rows including the initial state. The fields are
    the CSV columns, in file order: the step, then floats.
    """

    steps: list[int]
    times: list[float]
    mass: list[float]
    dirichlet_energy: list[float]
    free_energy: list[float]
    max_abs: list[float]

    @classmethod
    def empty(cls) -> "EvolutionTrace":
        return cls(*([] for _ in fields(cls)))

    def _columns(self) -> list[list]:
        return [getattr(self, f.name) for f in fields(self)]

    def record(self, g: WeightedGraph, step: int, dt: float, values: np.ndarray) -> None:
        u = VertexFunction(g.vertices, values)
        row = (step, step * dt, mass(g, u), dirichlet_energy(g, u), free_energy(g, u),
               float(np.max(np.abs(values))))
        for column, value in zip(self._columns(), row):
            column.append(value)

    def n_rows(self) -> int:
        return len(self.steps)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TRACE_HEADER + "\n")
            for step, *rest in zip(*self._columns()):
                fh.write(",".join([str(step), *map(fmt_float, rest)]) + "\n")

    @classmethod
    def read_csv(cls, path) -> "EvolutionTrace":
        trace = cls.empty()
        columns = trace._columns()
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise FileFormatError(f"{path}: unexpected header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                step, *rest = line.strip().split(",")
                try:  # a cell that does not parse, or a wrong count of cells
                    for column, value in zip(columns, (int(step), *map(float, rest)), strict=True):
                        column.append(value)
                except ValueError:
                    raise FileFormatError(f"{path}: bad row {line!r}") from None
        return trace


def _envelope_slack(diag: "MaxPrincipleDiag") -> np.ndarray:
    """The (steps, 2) array of envelope slacks: row k - 1 holds
    max[k-1] - max[k] and min[k] - min[k-1], each required >= -tol."""
    maxes = np.asarray(diag.max_values, dtype=np.float64)
    mins = np.asarray(diag.min_values, dtype=np.float64)
    # maxes[k] - maxes[k + 1], not -np.diff(maxes), which turns 0.0 into -0.0
    return np.column_stack((maxes[:-1] - maxes[1:], np.diff(mins)))


@dataclass(frozen=True)
class MaxPrincipleDiag:
    """Signed per-step max/min envelopes of a heat run (recorded every step).

    ``first_violation_step`` is the first step k whose envelope slack, as
    :func:`check_parabolic_max` reports it, is not >= -tol, or None;
    ``monotone`` says there is none.
    """

    max_values: tuple[float, ...]
    min_values: tuple[float, ...]
    tol: float

    @property
    def first_violation_step(self) -> int | None:
        bad = np.flatnonzero(~(_envelope_slack(self) >= -self.tol).all(axis=1))
        return int(bad[0]) + 1 if len(bad) else None

    @property
    def monotone(self) -> bool:
        return self.first_violation_step is None


def _step_matrix(g: WeightedGraph, c) -> _CSC:
    """M = D + c L = (1 + c) D - c W, entry by entry as scipy's sparse sum gives it."""
    # (1 + c) d, not d + c d, which rounds differently for some degrees
    return _csc(g.n_vertices, *_graph_entries(g, (1.0 + c) * g.degrees, 0.0 - c * g._ent_w))


def _implicit_stepper(g: WeightedGraph, b, c, solve_tol: float):
    """The implicit step v <- v + M^{-1} (b D lap(v)) for M = D + c L = D (I - c lap).

    Every flow steps in this deviation form: with lap evaluated through the
    neighbor-difference formula, a function in the kernel of lap is a bitwise
    fixed point (the right-hand side vanishes identically instead of up to
    round-off). M is factorized once with sparse LU. LinearSolveFailureError
    is raised at an exactly zero pivot, and when a solve's residual
    D (delta - c lap(delta)) - rhs exceeds 100 * solve_tol relative to rhs.
    """
    lu = _splu(_step_matrix(g, c), LinearSolveFailureError)

    def step(v: np.ndarray) -> np.ndarray:
        rhs = b * g.degrees * _laplacian_values(g, v)
        delta = lu.solve(rhs)
        residual = float(np.max(np.abs(g.degrees * (delta - c * _laplacian_values(g, delta)) - rhs)))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if not np.isfinite(residual) or residual > solve_tol * scale * 100.0:
            raise LinearSolveFailureError(
                f"linear solve residual {residual:.3e} exceeds tolerance"
            )
        return v + delta

    return step


def _cayley_start(g: WeightedGraph, u: VertexFunction, dt: float, solve_tol: float):
    """Complex initial values and the Crank-Nicolson step of i u_t + lap(u) = 0:
    b = i dt and c = i dt / 2."""
    values = require_same_domain(g, u).astype(np.complex128)
    return values, _implicit_stepper(g, 1j * dt, 0.5j * dt, solve_tol)


def _require_scheme(cfg: EvolutionConfig, scheme: EvolutionScheme, caller: str) -> None:
    if cfg.scheme is not scheme:
        raise BadParamsError(f"{caller} needs scheme={scheme.value}, got {cfg.scheme}")


def _evolve(g: WeightedGraph, cfg: EvolutionConfig, values: np.ndarray, step):
    """The time loop of every flow: ``cfg.steps`` steps of ``step`` from
    ``values``, traced every ``cfg.stride``."""
    trace = EvolutionTrace.empty()
    trace.record(g, 0, cfg.dt, values)
    for k in range(1, cfg.steps + 1):
        values = step(values)
        if k % cfg.stride == 0:
            trace.record(g, k, cfg.dt, values)
    return VertexFunction(g.vertices, values), trace


def evolve_heat(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace, MaxPrincipleDiag]:
    """Implicit-Euler heat flow u_t = lap(u) with max-principle diagnostics.

    The step has b = c = dt, so M = (1 + dt) D - dt W. Returns the final
    state, the strided trace, and the per-step signed envelope record (max
    non-increasing, min non-decreasing to ENVELOPE_TOL).
    """
    _require_scheme(cfg, EvolutionScheme.HEAT_IMPLICIT, "evolve_heat")
    _require_real(u0, "evolve_heat")
    values = require_same_domain(g, u0)
    implicit = _implicit_stepper(g, cfg.dt, cfg.dt, cfg.solve_tol)
    maxes = [float(np.max(values))]
    mins = [float(np.min(values))]

    def step(v: np.ndarray) -> np.ndarray:
        v = implicit(v)
        maxes.append(float(np.max(v)))
        mins.append(float(np.min(v)))
        return v

    final, trace = _evolve(g, cfg, values, step)
    return final, trace, MaxPrincipleDiag(tuple(maxes), tuple(mins), ENVELOPE_TOL)


def schrodinger_step(
    g: WeightedGraph, u: VertexFunction, dt: float, solve_tol: float = 1e-12
) -> VertexFunction:
    """A single Cayley step; ``dt`` may be negative, which inverts the step."""
    if not (np.isfinite(dt) and dt != 0.0):
        raise BadParamsError(f"dt must be nonzero and finite, got {dt!r}")
    _require_finite("solve_tol", solve_tol, positive=True)
    values, step = _cayley_start(g, u, dt, solve_tol)
    return VertexFunction(g.vertices, step(values))


def schrodinger_evolve(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace]:
    """Crank-Nicolson flow for i u_t + lap(u) = 0.

    The step is unitary in the degree norm, so the mass and Dirichlet-energy
    columns of the trace are constant up to the linear-solve residual.
    """
    _require_scheme(cfg, EvolutionScheme.SCHRODINGER_CN, "schrodinger_evolve")
    return _evolve(g, cfg, *_cayley_start(g, u0, cfg.dt, cfg.solve_tol))


def gp_evolve(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace]:
    """Strang-split flow for i u_t + lap(u) = u (|u|^2 - 1).

    Each step is phase(dt/2) . CN(dt) . phase(dt/2), where the exact
    nonlinear phase u <- u exp(-i (|u|^2 - 1) dt / 2) preserves |u|
    pointwise. Both sub-flows are degree-norm isometries, so mass is
    conserved to solver tolerance; the free energy drifts at O(dt^2).
    """
    _require_scheme(cfg, EvolutionScheme.GP_STRANG, "gp_evolve")
    values, cn = _cayley_start(g, u0, cfg.dt, cfg.solve_tol)
    half = 0.5 * cfg.dt

    def phase(v: np.ndarray) -> np.ndarray:
        return v * np.exp(-1j * (_abs2(v) - 1.0) * half)

    return _evolve(g, cfg, values, lambda v: phase(cn(phase(v))))


def check_parabolic_max(diag: MaxPrincipleDiag) -> CertificateReport:
    """Certify monotone envelopes from a heat-run diagnostic at the diag's
    own tolerance, tol = ``diag.tol``.

    Per transition n -> n+1 the slacks are max_n - max_{n+1} and
    min_{n+1} - min_n, both required >= -tol. Additionally, if some step
    after the start reaches the initial max while the state is not constant
    (which would contradict the strong parabolic maximum principle), a
    negative `interior_sup` slack entry records the violation. A max that
    falls by less than ``tol`` has still fallen: reaching the initial max
    means equalling or exceeding it, not coming within ``tol`` of it.
    """
    tol = diag.tol
    maxes = np.asarray(diag.max_values, dtype=np.float64)
    mins = np.asarray(diag.min_values, dtype=np.float64)
    n_steps = len(maxes) - 1
    width = max(1, len(str(n_steps)))
    labels = [f"{n:0{width}d}" for n in range(1, n_steps + 1)]
    keys = [f"{kind}[{label}]" for label in labels for kind in ("max", "min")]
    slack = _envelope_slack(diag).ravel()

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
