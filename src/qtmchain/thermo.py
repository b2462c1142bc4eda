"""Observables from free-energy evaluations: S, C, densities, susceptibilities.

Everything is finite differences on top of the integral-equation solver.
Temperature derivatives act in log T so relative steps are uniform across
decades; S = -(1/T) f_u and C = -(1/T)(f_uu - f_u) with u = log T.  Species
densities are n_i = -df/dmu_i and the response matrix chi_ij = dn_j/dmu_i
= -d2f/dmu_i dmu_j collects the compressibility on the diagonal and minus
the convertibility off it.  All stencils are five-point (fourth order); the
mixed second derivatives use the four-corner formula with one Richardson
level.  Stencil solves share the center solution as a warm start and can
run concurrently; results are assembled deterministically.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .solver import default_grid, free_energy, solve_nlie

__all__ = [
    "ThermoPoint",
    "thermo_point",
    "sweep",
    "parse_t_range",
]


def _max_workers():
    env = os.environ.get("QTM_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass
class ThermoPoint:
    T: float
    mu: tuple
    f: float
    S: float
    C: float
    n: np.ndarray
    chi: np.ndarray | None = None
    meta: dict | None = None

    def row(self):
        out = [self.T, *self.mu, self.f, self.S, self.C]
        out.extend(self.n if self.n is not None else [])
        if self.chi is not None:
            out.extend(self.chi.ravel())
        return out


class _FreeEnergyTable:
    """Memoized f(T, mu) evaluations sharing one warm start.

    solves records (iterations, residual, seconds) for every solve made."""

    def __init__(self, n, J, grid, tol=1e-12):
        self.n = n
        self.J = J
        self.grid = grid
        self.tol = tol
        self.warm = None
        self.cache = {}
        self.solves = []

    def _solve(self, T, mu):
        t0 = time.perf_counter()
        state = solve_nlie(
            self.n, T, mu=mu, J=self.J, grid=self.grid, tol=self.tol,
            logb0=self.warm,
        )
        record = (state.iterations, state.residual, time.perf_counter() - t0)
        return state, free_energy(state), record

    def _f(self, T, mu):
        return self._solve(T, mu)[1:]  # the worker drops the state

    def _add(self, point, f, record):
        self.cache[point] = f
        self.solves.append(record)

    def center(self, T, mu):
        """Solve (T, mu) cold and keep it as the warm start of later solves."""
        state, f, record = self._solve(T, mu)
        self._add((T, mu), f, record)
        self.warm = state.logb

    def request(self, points, workers=None):
        todo = [p for p in dict.fromkeys(points) if p not in self.cache]
        if todo:
            workers = workers or _max_workers()
            if workers > 1 and len(todo) > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    for p, r in zip(todo, pool.map(lambda q: self._f(*q), todo)):
                        self._add(p, *r)
            else:
                for p in todo:
                    self._add(p, *self._f(*p))

    def f(self, T, mu):
        key = (T, tuple(mu))
        if key not in self.cache:
            self.request([key])
        return self.cache[key]

    def meta(self):
        """Totals over every solve: count, iterations, worst residual and
        the slowest solve's wall time."""
        its, res, secs = zip(*self.solves)
        return {
            "solves": len(self.solves),
            "iterations": int(sum(its)),
            "residual": float(max(res)),
            "slowest_solve_s": float(max(secs)),
        }

    def derivative(self, stencil):
        """sum_p w_p f(p) / divisor, summed in stencil order."""
        pairs, divisor = stencil
        acc = 0.0
        for p, w in pairs:
            acc += w * self.f(*p)
        return acc / divisor


# (step multiple, weight) of the five-point fourth-order stencils:
# 12 h f'(0) and 12 h^2 f''(0)
_D1 = ((-2, 1), (-1, -8), (1, 8), (2, -1))
_D2 = ((-2, -1), (-1, 16), (0, -30), (1, 16), (2, -1))
# ((step i, step j), weight) of the four-corner 4 h^2 d2f/dx_i dx_j
_CORNERS = (((1, 1), 1), ((-1, -1), 1), ((1, -1), -1), ((-1, 1), -1))


def thermo_point(
    n,
    T,
    mu=None,
    J=1.0,
    fd_steps=None,
    with_chi=True,
    with_densities=True,
    workers=None,
    tol=1e-12,
):
    """One (T, mu) record of f, S, C, n_i and the response matrix.

    fd_steps: optional (dlogT, dmu_density, dmu_chi).  The chi step is kept
    larger than the density step so second differencing stays above solver
    noise.  Every derivative is one stencil, a list of ((T, mu), weight)
    pairs and a divisor: the same list names the points to solve and sums
    them.  Stencil failures propagate with the offending location attached.
    meta totals every solve of the point, the centre's and the stencils':
    solves, iterations, the worst residual and slowest_solve_s.
    """
    if T <= 0:
        raise DomainError("temperature must be positive")
    if mu is None:
        mu = (0.0,) * n
    mu = tuple(float(v) for v in mu)
    hu, hd, hx = fd_steps or (1e-3, 1e-4 * max(T, 1.0), 3e-3 * max(T, 1.0))
    grid = default_grid(T)

    table = _FreeEnergyTable(n, J, grid, tol=tol)
    table.center(T, mu)

    def at_T(s):
        return (T * np.exp(s * hu), mu)

    def at_mu(*steps):
        m = list(mu)
        for i, d in steps:
            m[i] += d
        return (T, tuple(m))

    fu_st = ([(at_T(s), w) for s, w in _D1], 12 * hu)
    fuu_st = ([(at_T(s), w) for s, w in _D2], 12 * hu * hu)
    dens_st = [
        ([(at_mu((i, s * hd)), w) for s, w in _D1], 12 * hd) for i in range(n)
    ] if with_densities else []
    chi_st = [
        ([(at_mu((i, s * hx)), w) for s, w in _D2], 12 * hx * hx) for i in range(n)
    ] if with_chi else []
    # mixed derivatives at steps hx and hx/2, combined by one Richardson level
    mixed_st = {
        (i, j, scale): (
            [(at_mu((i, si * scale * hx), (j, sj * scale * hx)), w)
             for (si, sj), w in _CORNERS],
            4 * (scale * hx) ** 2,
        )
        for i in range(n) for j in range(i + 1, n) for scale in (1.0, 0.5)
    } if with_chi else {}
    stencils = [fu_st, fuu_st, *dens_st, *chi_st, *mixed_st.values()]
    try:
        table.request([p for pairs, _ in stencils for p, _ in pairs], workers=workers)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"stencil solve failed near T={T}, mu={mu}: {err}",
            residual=err.residual,
            iterations=err.iterations,
        ) from err

    fu = table.derivative(fu_st)
    fuu = table.derivative(fuu_st)
    S = -fu / T
    C = -(fuu - fu) / T

    dens = None
    if with_densities:
        dens = np.array([-table.derivative(st) for st in dens_st])

    chi = None
    if with_chi:
        chi = np.diag([-table.derivative(st) for st in chi_st])
        for i in range(n):
            for j in range(i + 1, n):
                d2 = (4 * table.derivative(mixed_st[i, j, 0.5])
                      - table.derivative(mixed_st[i, j, 1.0])) / 3.0
                chi[i, j] = chi[j, i] = -d2

    return ThermoPoint(
        T=float(T),
        mu=mu,
        f=table.f(T, mu),
        S=float(S),
        C=float(C),
        n=dens,
        chi=chi,
        meta=table.meta(),
    )


def parse_t_range(spec):
    """'min:max:COUNTlog' or 'min:max:COUNTlin' -> array of temperatures."""
    lo, hi, cnt = spec.split(":")
    lo, hi = float(lo), float(hi)
    if cnt.endswith("log"):
        return np.geomspace(lo, hi, int(cnt[:-3]))
    if cnt.endswith("lin"):
        return np.linspace(lo, hi, int(cnt[:-3]))
    return np.geomspace(lo, hi, int(cnt))


def sweep(
    n,
    temperatures,
    mu=None,
    J=1.0,
    with_densities=False,
    with_chi=False,
    workers=None,
    tol=1e-12,
):
    """Thermo points in ascending T, each solved from a cold start;
    per-point failures are recorded and the sweep continues.  Returns
    (points, failures)."""
    if isinstance(temperatures, str):
        temperatures = parse_t_range(temperatures)
    points = []
    failures = []
    for T in sorted(float(t) for t in temperatures):
        try:
            points.append(thermo_point(
                n, T, mu=mu, J=J, with_chi=with_chi,
                with_densities=with_densities, workers=workers, tol=tol,
            ))
        except Exception as err:  # noqa: BLE001 - recorded, sweep continues
            failures.append((T, repr(err)))
    return points, failures
