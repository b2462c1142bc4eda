"""Observables from the free energy and its derivatives: S, C, densities,
susceptibilities.

With beta = 1/T and F = log Lambda(0) = -beta f, where

    F = beta J (G_n(0) - 1) + beta mean(mu) + l(log B),
    l(g) = Re (d^dagger * g)(0),

the observables are derivatives of F along beta and the mu_i:

    S = F - beta F_beta,   C = beta^2 F_beta,beta,
    n_i = T F_mu_i,        chi_ij = T F_mu_i,mu_j,

so the densities are n_i = -df/dmu_i and the response matrix
chi_ij = dn_j/dmu_i = -d2f/dmu_i dmu_j collects the compressibility on the
diagonal and minus the convertibility off it.  No derivative is a finite
difference: each comes from the tangent equations of the converged NLIE
state (solver._tangent_solver).  Along a direction theta the derivative
u_theta of log b solves the linear equation

    u_theta = -(dc + d(beta J) d(x) + K * (W u_theta)),      W = b/(1+b),

and F_theta = d_theta(beta J (G_n(0) - 1) + beta mean(mu)) + l(W u_theta).
A second derivative solves the same equation for w_theta,phi with zero
drive and source s = W(1-W) u_theta u_phi inside the convolution, and
F_theta,phi = l(W w_theta,phi + s): c is bilinear in (beta, mu) and
beta J d(x) linear in beta, so no second derivative of the drive or of the
explicit beta and mu terms enters S, C, n_i or chi.  One point takes one
nonlinear solve and linear solves: 2 for S and C, n more for the
densities, and n(n+1)/2 more for chi.  All of them take the solver's one
iteration (solver._iterate, preconditioned and Anderson-mixed) with the
preconditioner the nonlinear solve took, kept in its state
(NlieState.precondition) and taken at the state's own W(x): one table of
the modes below the grid's cut, where K-hat(k) still departs from its
large-k limit, and the limit's one matrix past it.  Like that solve
they run on the half space x <= 0: W, every drive and every source keep
the symmetry u(-x) = conj(u(x)) of the converged state.  At mu = 0 the
asymptote is the same at every T and the map is the grid's own, one
table for the points of a sweep; a mu != 0 point builds its own once.

Every solve, nonlinear and tangent, convolves over the real line: the
solver's one convolution closes the window by the far field of its input,
fitted afresh at each step, so the tangents u, whose tails are x^-2 and
x^-3 like log B's, take the same closure.  On the default grid S at the
four temperatures of the benchmark sweep (0.05 to 100, n = 5) is within
1e-12 of L = 320, M = 16384 (solved to 3e-14), and C within 7.2e-14, but
for 1.4e-12 at T = 0.05: there the default grid's fully converged C is
itself 1.3e-12 off, and C = beta^2 l(w) carries the stop rule's 1e-12
400-fold.  At low T the tangent solves take
fewer iterations than the nonlinear one (n = 5, T = 0.05: 11 for u_beta
and 9 for w_beta,beta against 18; T = 0.01: 10 and 7 against 24, where
the asymptote's W alone took 45 and 27 against 45).  At high T they take
more (13 and 12 against 8 at n = 5, T = 100): the preconditioner is exact
for the window's circular operator, not for the closed one.

A point's solves at one level are independent and run on up to `workers`
threads.  A sweep runs its points on `workers` threads instead, the
calling thread one of them, and each point's tangent solves in its own
thread: a C-only point is three solves that must run in order.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernels import kernel_system
from .solver import _tangent_solver, free_energy, gamma_term, solve_nlie

__all__ = [
    "ThermoPoint",
    "thermo_point",
    "sweep",
    "parse_t_range",
]


# The nonlinear solve's record of the far field that closes its window
# (solver diagnostics), carried into ThermoPoint.meta.
_CLOSURE_KEYS = ("tail_fit_residual", "tail_A2", "tail_A3")


def _cpus():
    """The CPUs this process may run on (os.cpu_count() ignores affinity)."""
    return len(os.sched_getaffinity(0))


def _ordered_map(fn, items, workers):
    """[fn(item) for item in items] on up to `workers` threads, the calling
    thread one of them; each thread takes the next item until none is left.
    With one worker, or one item, no thread is started.  An exception of
    fn is raised once every thread has stopped.

    The calling thread works rather than waits, so `workers` threads start
    workers - 1 more, not workers: each thread allocates from a malloc
    arena of its own, which keeps what is freed in it.  With
    ThreadPoolExecutor(workers).map in its place, the n = 5 specific-heat
    sweep of the benchmark (sweep-C, 2 CPUs) peaked at 107.9-112.1 MB
    against 106.4-107.0 MB, in 6 runs of 6; with one arena
    (MALLOC_ARENA_MAX=1) the two peaked alike, 107.6-108.6 MB."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return list(map(fn, items))
    out = [None] * len(items)
    todo = iter(range(len(items)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            out[i] = fn(items[i])

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for h in helpers:
            h.result()
    return out


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


def thermo_point(
    n,
    T,
    mu=None,
    J=1.0,
    with_chi=True,
    with_densities=True,
    workers=None,
):
    """One (T, mu) record of f, S, C, n_i and the response matrix.

    One nonlinear solve at (T, mu) on the default grid, then the tangent
    solves of the module docstring, each stopped at the residual 1e-12, or
    at 10 eps max|u_inf| where its asymptote u_inf is larger than 450
    (solver._tangent_solver), and with the nonlinear solve's
    preconditioner; workers threads (default: one per CPU this process may
    run on) share the independent ones.  A failed tangent solve raises
    ConvergenceError with the location attached.  meta totals every solve
    of the point, nonlinear and tangent: solves, iterations, the worst
    residual, slowest_solve_s and preconditioners_built (1 at mu != 0,
    where the nonlinear solve builds the table of its own asymptote; 0 at
    mu = 0, where it takes its grid's); state_preconditioned_from is the
    nonlinear solve's first step preconditioned with its iterate's own
    W(x) (its diagnostics), or None.  tail_fit_residual, tail_A2 and
    tail_A3 are the nonlinear solve's record of the far field that closes
    its window (its diagnostics): how closely the fit carries
    log B - log Binf near the edge, and max |A_2|, max |A_3|.
    """
    if mu is None:
        mu = (0.0,) * n
    mu = tuple(float(v) for v in mu)

    t0 = time.perf_counter()
    state = solve_nlie(n, T, mu=mu, J=J)  # refuses a T not positive and finite
    beta = 1.0 / T
    records = [(state.iterations, state.residual, time.perf_counter() - t0)]
    solve = _tangent_solver(state)
    f = free_energy(state)

    c_of = kernel_system(n).constants
    dirs = ["beta"]
    if with_densities or with_chi:
        dirs += list(range(n))
    pairs = [("beta", "beta")]
    if with_chi:
        pairs += [(i, j) for i in range(n) for j in range(i, n)]

    def first(theta):
        if theta == "beta":
            return solve(c_of(mu, 1.0), J)
        return solve(c_of(np.eye(n)[theta], beta))

    workers = workers or _cpus()
    try:
        t1 = dict(zip(dirs, _ordered_map(first, dirs, workers)))
        t2 = dict(zip(pairs, _ordered_map(
            lambda p: solve(pair=(t1[p[0]], t1[p[1]])), pairs, workers)))
    except ConvergenceError as err:
        raise ConvergenceError(
            f"tangent solve failed at T={T}, mu={mu}: {err}",
            residual=err.residual,
            iterations=err.iterations,
            history=err.history, restarts=err.restarts,
        ) from err
    tangents = {**t1, **t2}
    records += [t[3] for t in tangents.values()]
    ell = {key: t[2] for key, t in tangents.items()}

    F_beta = J * (gamma_term(n, 0.0) - 1.0) + float(np.mean(mu)) + ell["beta"]
    dens = None
    if with_densities:
        dens = T * np.array([beta / n + ell[i] for i in range(n)])
    chi = None
    if with_chi:
        chi = np.empty((n, n))
        for i, j in pairs[1:]:
            chi[i, j] = chi[j, i] = T * ell[i, j]

    its, res, secs = zip(*records)
    return ThermoPoint(
        T=float(T),
        mu=mu,
        f=f,
        S=float(-beta * f - beta * F_beta),
        C=float(beta * beta * ell["beta", "beta"]),
        n=dens,
        chi=chi,
        meta={
            "solves": len(records),
            "iterations": int(sum(its)),
            "residual": float(max(res)),
            "slowest_solve_s": float(max(secs)),
            **{key: state.diagnostics[key] for key in _CLOSURE_KEYS},
            "preconditioners_built": int(state.diagnostics["preconditioner_built"]),
            "state_preconditioned_from": state.diagnostics["state_preconditioned_from"],
        },
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
):
    """Thermo points in ascending T, each solved from a cold start on one
    of `workers` threads (default: one per CPU this process may run on),
    the calling thread one of them; a point's own solves run in its
    thread.  Per-point failures are recorded, as (T, repr(error)) in
    ascending T, and the sweep continues; a mu of the wrong length raises
    DomainError before any point runs.  Returns (points, failures)."""
    if mu is not None and len(mu) != n:
        raise DomainError(f"expected {n} chemical potentials, got {len(mu)}")
    temps = sorted(float(t) for t in temperatures)

    def point(T):
        try:
            return thermo_point(
                n, T, mu=mu, J=J, with_chi=with_chi,
                with_densities=with_densities, workers=1,
            )
        except Exception as err:  # noqa: BLE001 - recorded, sweep continues
            return err

    done = _ordered_map(point, temps, workers or _cpus())
    points = [p for p in done if isinstance(p, ThermoPoint)]
    failures = [(T, repr(p)) for T, p in zip(temps, done)
                if not isinstance(p, ThermoPoint)]
    return points, failures
