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
stepper solves M delta = b D lap(u) for the increment: heat passes
M = (1 + dt) D - dt W with b = dt, the Crank-Nicolson step M = D + (i dt/2) L
with b = i dt (W the weight matrix, L = D - W). M is factorized once per run
with sparse LU (SuperLU), each step is a pair of triangular solves, and
every solve's residual is checked. One method serves every graph size, so
the residual check means the same thing at every n.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import (
    CertificateReport,
    _abs2,
    _combinatorial_laplacian,
    _laplacian_values,
    _require_real,
    dirichlet_energy,
    free_energy,
    mass,
)
from .errors import (
    BadParamsError,
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
    """Signed per-step max/min envelopes of a heat run (recorded every step).

    ``first_violation_step`` is the first step k with max[k] > max[k-1] + tol
    or min[k] < min[k-1] - tol, or None; ``monotone`` says there is none.
    """

    max_values: tuple[float, ...]
    min_values: tuple[float, ...]
    tol: float

    @property
    def first_violation_step(self) -> int | None:
        maxes, mins, tol = self.max_values, self.min_values, self.tol
        return next(
            (k for k in range(1, len(maxes))
             if maxes[k] > maxes[k - 1] + tol or mins[k] < mins[k - 1] - tol),
            None,
        )

    @property
    def monotone(self) -> bool:
        return self.first_violation_step is None


def _implicit_stepper(g: WeightedGraph, matrix: "scipy.sparse.spmatrix", b, solve_tol: float):
    """The implicit step v <- v + M^{-1} (b D lap(v)) for a fixed step matrix M.

    Every flow steps in this deviation form: with lap evaluated through the
    neighbor-difference formula, a function in the kernel of lap is a bitwise
    fixed point (the right-hand side vanishes identically instead of up to
    round-off). M is factorized once with sparse LU. LinearSolveFailureError
    is raised when the factorization meets an exactly zero pivot, and when a
    solve's residual exceeds 100 * solve_tol relative to the right-hand side.
    """
    import scipy.sparse.linalg as spla

    csr = matrix.tocsr()
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveFailureError(f"factorization failed: {exc}") from None

    def step(v: np.ndarray) -> np.ndarray:
        rhs = b * g.degrees * _laplacian_values(g, v)
        delta = lu.solve(rhs)
        residual = float(np.max(np.abs(csr @ delta - rhs)))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if not np.isfinite(residual) or residual > solve_tol * scale * 100.0:
            raise LinearSolveFailureError(
                f"linear solve residual {residual:.3e} exceeds tolerance"
            )
        return v + delta

    return step


def _cayley_start(g: WeightedGraph, u: VertexFunction, dt: float, solve_tol: float):
    """Complex initial values and the Crank-Nicolson step of i u_t + lap(u) = 0:
    M = D + (i dt / 2) L with L = D - W, and b = i dt."""
    import scipy.sparse as sp

    values = require_same_domain(g, u).astype(np.complex128)
    matrix = sp.diags(g.degrees) + 0.5j * dt * _combinatorial_laplacian(g)
    return values, _implicit_stepper(g, matrix, 1j * dt, solve_tol)


def _evolve(g: WeightedGraph, cfg: EvolutionConfig, scheme: EvolutionScheme, caller: str, start):
    """The time loop of every flow: ``cfg.steps`` steps, traced every ``cfg.stride``.

    ``start()`` returns the initial values and the step function. It runs
    only after ``cfg.scheme`` has been checked, so a wrong scheme is rejected
    before anything is factorized.
    """
    if cfg.scheme is not scheme:
        raise BadParamsError(f"{caller} needs scheme={scheme.value}, got {cfg.scheme}")
    values, step = start()
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

    The step matrix is (1 + dt) D - dt W with b = dt. Returns the final
    state, the strided trace, and the per-step signed envelope record (max
    non-increasing, min non-decreasing to ENVELOPE_TOL).
    """
    maxes: list[float] = []
    mins: list[float] = []

    def envelope(v: np.ndarray) -> np.ndarray:
        maxes.append(float(np.max(v)))
        mins.append(float(np.min(v)))
        return v

    def start():
        import scipy.sparse as sp

        _require_real(u0, "evolve_heat")
        values = require_same_domain(g, u0)
        # (1 + dt) d, not d + dt d, which rounds differently for some degrees
        matrix = (1.0 + cfg.dt) * sp.diags(g.degrees) - cfg.dt * g.weight_matrix
        step = _implicit_stepper(g, matrix, cfg.dt, cfg.solve_tol)
        return envelope(values), lambda v: envelope(step(v))

    final, trace = _evolve(g, cfg, EvolutionScheme.HEAT_IMPLICIT, "evolve_heat", start)
    return final, trace, MaxPrincipleDiag(tuple(maxes), tuple(mins), ENVELOPE_TOL)


def schrodinger_step(
    g: WeightedGraph, u: VertexFunction, dt: float, solve_tol: float = 1e-12
) -> VertexFunction:
    """A single Cayley step; ``dt`` may be negative, which inverts the step."""
    if dt == 0.0:
        raise BadParamsError("dt must be nonzero")
    values, step = _cayley_start(g, u, dt, solve_tol)
    return VertexFunction(g.vertices, step(values))


def schrodinger_evolve(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace]:
    """Crank-Nicolson flow for i u_t + lap(u) = 0.

    The step is unitary in the degree norm, so the mass and Dirichlet-energy
    columns of the trace are constant up to the linear-solve residual.
    """
    return _evolve(
        g, cfg, EvolutionScheme.SCHRODINGER_CN, "schrodinger_evolve",
        lambda: _cayley_start(g, u0, cfg.dt, cfg.solve_tol),
    )


def gp_evolve(
    g: WeightedGraph, u0: VertexFunction, cfg: EvolutionConfig
) -> tuple[VertexFunction, EvolutionTrace]:
    """Strang-split flow for i u_t + lap(u) = u (|u|^2 - 1).

    Each step is phase(dt/2) . CN(dt) . phase(dt/2), where the exact
    nonlinear phase u <- u exp(-i (|u|^2 - 1) dt / 2) preserves |u|
    pointwise. Both sub-flows are degree-norm isometries, so mass is
    conserved to solver tolerance; the free energy drifts at O(dt^2).
    """
    half = 0.5 * cfg.dt

    def phase(v: np.ndarray) -> np.ndarray:
        return v * np.exp(-1j * (_abs2(v) - 1.0) * half)

    def start():
        values, cn = _cayley_start(g, u0, cfg.dt, cfg.solve_tol)
        return values, lambda v: phase(cn(phase(v)))

    return _evolve(g, cfg, EvolutionScheme.GP_STRANG, "gp_evolve", start)


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
