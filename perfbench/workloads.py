"""The three workloads.  Each pass is a closed loop over fixed inputs that
the seed draws or orders; every pass attempts the same operations.

Calls into the package go through module attributes (``Q.solve_nlie``),
so that the traced run sees them once ``tracing.py`` has wrapped them.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

import physics
from physics import check_le, check_true

SOLVE_TEMPS = (0.05, 0.1, 1.0, 2.0, 100.0)
SOLVE_CASES = tuple((n, T) for n in (4, 5) for T in SOLVE_TEMPS)
# The one operation kept although it fails: default_grid ignores mu, and
# the edge tail at this mu (2.5e-6) is above the solver's 1e-6 threshold.
MU_CASE = (4, 2.0, (0.3, 0.0, 0.0, -0.3))
PROPERTY_STATE = (4, 2.0)
SWEEP_N = 5
SWEEP_TEMPS = tuple(float(t) for t in np.geomspace(0.05, 100.0, 4))
TROTTER_T = 2.0
TROTTER_CASES = tuple((n, N, TROTTER_T) for n in (4, 5) for N in physics.TROTTER_NS)
REF_F_CASES = tuple(sorted(set(
    SOLVE_CASES + tuple((SWEEP_N, T) for T in SWEEP_TEMPS)
)))

SOLVER_TOL = 1e-12
# Noise of one free energy: the solver stops at a residual of 1e-12 in
# log b, and f = -T log Lambda carries it with a weight of order one.
F_NOISE_PER_T = 1e-12
# Two solves of exactly equivalent inputs (a uniform mu shift, a mu
# permutation) agree to the stopping residual times T times a kernel-norm
# margin of 100.
EQUIVALENT_SOLVES_REL = 100 * SOLVER_TOL
# Identity residuals in the tableau algebra: products of about ten
# double-precision factors, the tests' bound.
IDENTITY_TOL = 1e-10


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    f_errs: list = field(default_factory=list)


def _solve(Q, n, T, mu=None):
    """One solve; returns (state, failure) where failure is the solver's
    edge-tail warning or error text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            st = Q.solve_nlie(n, T, mu=mu, tol=SOLVER_TOL)
        except Q.QtmChainError as err:
            return None, repr(err)
    tails = [str(w.message) for w in caught if "tail" in str(w.message)]
    return st, (tails[0] if tails else None)


class Workload:
    name = ""
    grids = ()  # (n, T) whose default grids the set-up builds
    anchor = (5, 1.0)  # the cold solve that solve_s times, on every workload

    def distinct_grids(self, Q):
        """One (n, T) per distinct (n, default grid) the workload uses."""
        seen = {}
        for n, T in self.grids + (self.anchor,):
            seen.setdefault((n, Q.default_grid(T)), (n, T))
        return list(seen.values())

    def setup(self, Q):
        """First use of every kernel and grid system the workload caches:
        a solve that stops before its first iteration."""
        for n, T in self.distinct_grids(Q):
            try:
                Q.solve_nlie(n, T, max_iter=0)
            except Q.QtmChainError:
                pass

    def run_pass(self, Q, rng, ref, workers):
        raise NotImplementedError


class SolveCold(Workload):
    name = "solve-cold"
    grids = tuple(SOLVE_CASES)

    def run_pass(self, Q, rng, ref, workers):
        res = PassResult()
        series = {n: physics.HighTSeries(n) for n in (4, 5)}
        f = {}
        order = list(SOLVE_CASES) + [MU_CASE]
        order = [order[i] for i in rng.permutation(len(order))]
        for case in order:
            n, T = case[:2]
            mu = case[2] if len(case) > 2 else None
            st, failure = _solve(Q, n, T, mu=mu)
            res.attempted += 1
            if failure:
                res.failed += 1
                continue
            res.checks.append(check_le(f"residual n={n} T={T}", st.residual, SOLVER_TOL))
            if mu is None:
                f[(n, T)] = Q.free_energy(st)
                res.f_errs.append(abs(f[(n, T)] - ref.f(n, T)))

        # exact properties at one state: f(mu + c) = f(mu) - c and f is
        # invariant under a permutation of mu
        n, T = PROPERTY_STATE
        c = float(rng.uniform(-0.5, 0.5))
        mu = tuple(float(v) for v in rng.uniform(-0.05, 0.05, n))
        perm = tuple(mu[i] for i in rng.permutation(n))
        f_prop = {}
        for label, m in (("shift", (c,) * n), ("mu", mu), ("perm", perm)):
            st, failure = _solve(Q, n, T, mu=m)
            res.attempted += 1
            if failure:
                res.failed += 1
                continue
            f_prop[label] = Q.free_energy(st)
        tol = EQUIVALENT_SOLVES_REL * T
        if (n, T) in f and "shift" in f_prop:
            res.checks.append(check_le(
                "mu_shift", abs(f_prop["shift"] - (f[(n, T)] - c)), tol))
        if "mu" in f_prop and "perm" in f_prop:
            res.checks.append(check_le(
                "mu_permutation", abs(f_prop["mu"] - f_prop["perm"]), tol))

        for n in (4, 5):
            if (n, 100.0) in f:
                res.checks.append(physics.check_high_t_f(series[n], 100.0, f[(n, 100.0)]))
            if (n, TROTTER_T) in f:
                res.checks.append(physics.check_trotter(
                    n, ref.trotter(n, TROTTER_T), f[(n, TROTTER_T)]))
            if (n, 0.05) in f:
                res.checks.append(physics.check_low_t(n, 0.05, f[(n, 0.05)]))
        return res


class SweepC(Workload):
    name = "sweep-C"
    grids = ((SWEEP_N, SWEEP_TEMPS[0]), (SWEEP_N, SWEEP_TEMPS[-1]))

    def run_pass(self, Q, rng, ref, workers):
        n = SWEEP_N
        res = PassResult(attempted=len(SWEEP_TEMPS))
        pts, failures = Q.sweep(n, SWEEP_TEMPS, with_densities=False, with_chi=False,
                                workers=workers)
        res.failed = len(failures)
        if failures:
            return res
        for p in pts:
            res.f_errs.append(abs(p.f - ref.f(n, p.T)))
        res.checks += sweep_checks(n, [p.T for p in pts], [p.S for p in pts],
                                   [p.C for p in pts], physics.HighTSeries(n))
        return res


def sweep_checks(n, temps, S, C, series):
    temps, S, C = map(np.asarray, (temps, S, C))
    top = int(np.argmax(C))
    peaks = [i for i in range(1, len(C) - 1) if C[i] >= C[i - 1] and C[i] >= C[i + 1]]
    Tmax = temps[-1]
    _, dC_noise = physics.fd_noise(Tmax, F_NOISE_PER_T * Tmax, 1e-3)
    return [
        check_true("C>=0", bool(np.all(C >= -dC_noise)), float(C.min())),
        check_true("one_interior_C_max", 0 < top < len(C) - 1 and len(peaks) == 1,
                   len(peaks)),
        check_true("S_rises", bool(np.all(np.diff(S) > 0)), float(np.diff(S).min())),
        check_true("S<ln n", bool(S[-1] < math.log(n)), float(S[-1] - math.log(n))),
        *physics.check_high_t_sc(series, float(Tmax), float(S[-1]), float(C[-1]),
                                 F_NOISE_PER_T * Tmax),
        physics.check_cft_slope(n, float(temps[0]), float(S[0])),
    ]


# ----------------------------------------------------------------------
# crosscheck

def random_root_data(Q, n, rng, max_roots=2):
    """Random roots in the strip |Im| <= 0.2, random tau, N and mu."""
    N = int(rng.choice([0, 2, 4]))
    tau = float(rng.uniform(0.1, 0.8))
    roots = tuple(
        tuple(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.2, 0.2))
            for _ in range(int(rng.integers(0, max_roots + 1)))
        )
        for _ in range(n - 1)
    )
    mu = tuple(float(rng.uniform(-0.4, 0.4)) for _ in range(n))
    return Q.RootData(n=n, N=N, tau=tau, mu=mu, beta=1.0, roots=roots)


def random_x(rng):
    """Clear of the root strip and of its i/2-shifted copies."""
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(0.85, 1.3))


def t_system_residual(Q, data, n, x, ctx):
    lam = {}
    for a in range(n + 1):
        for s in range(4):
            for xx in (x, x - 0.5j, x + 0.5j):
                lam[(a, s, xx)] = Q.fused_eigenvalue(data, a, s, xx, ctx)
    worst = 0.0
    for a in range(1, n):
        for s in (1, 2):
            lhs = lam[(a, s, x - 0.5j)] * lam[(a, s, x + 0.5j)]
            rhs = (lam[(a - 1, s, x)] * lam[(a + 1, s, x)]
                   + lam[(a, s - 1, x)] * lam[(a, s + 1, x)])
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def b_relation_residual(Q, data, n, x, ctx):
    worst = 0.0
    for upper, lower in Q.canonical_defs(n):
        B = Q.eval_aux(upper, data, x, ctx)
        b = Q.eval_aux(lower, data, x, ctx)
        worst = max(worst, abs(B - 1.0 - b) / (1.0 + abs(B)))
    return worst


class Crosscheck(Workload):
    name = "crosscheck"
    grids = ()
    DRAWS = 6  # random root data per n, each at XS spectral parameters
    XS = 3

    def run_pass(self, Q, rng, ref, workers):
        from qtmchain.aux_functions import legacy_cross_relations

        res = PassResult()
        worst = {"t_system": 0.0, "B=1+b": 0.0, "y_system": 0.0, "legacy_f": 0.0}
        for n in range(2, 6):
            for _ in range(self.DRAWS):
                data = random_root_data(Q, n, rng)
                ctx = Q.EvalContext(data)
                for _ in range(self.XS):
                    x = random_x(rng)
                    worst["t_system"] = max(worst["t_system"],
                                            t_system_residual(Q, data, n, x, ctx))
                    worst["B=1+b"] = max(worst["B=1+b"],
                                         b_relation_residual(Q, data, n, x, ctx))
                    res.attempted += 2
        for n in (4, 5):
            for _ in range(self.DRAWS):
                data = random_root_data(Q, n, rng, max_roots=1)
                worst["y_system"] = max(worst["y_system"], max(
                    Q.check_y_relations(n, data, random_x(rng)).values()))
                res.attempted += 1
        for _ in range(self.DRAWS):
            data = random_root_data(Q, 4, rng)
            worst["legacy_f"] = max(worst["legacy_f"], max(
                legacy_cross_relations(data, random_x(rng)).values()))
            res.attempted += 1
        res.checks += [check_le(k, v, IDENTITY_TOL) for k, v in worst.items()]

        # EAF residues at solved Bethe roots, with a perturbed-root control
        for n in (4, 5):
            beta = float(rng.uniform(0.4, 0.9))
            data = Q.solve_bethe_roots(n, 2, beta=beta)
            res.attempted += 1
            residues = eaf_residues(Q, n, data)
            res.attempted += len(residues)
            res.checks.append(check_le(f"eaf_residue n={n}", max(residues), 1e-9))
            bad = perturb_roots(Q, data)
            control = Q.residue_check(Q.eaf_factorization(n, 1, (0, 1)), bad)
            res.attempted += 1
            res.checks.append(check_true(f"eaf_control n={n}", control > 1e-4, control))

        # finite-Trotter QTM free energies against the wide-grid reference
        for n in (4, 5):
            fs = [float(Q.trotter_free_energy(n, N, TROTTER_T)) for N in physics.TROTTER_NS]
            res.attempted += len(fs)
            f_ref = ref.f(n, TROTTER_T)
            full, _ = physics.trotter_extrapolations(fs)
            res.f_errs.append(abs(full - f_ref))
            res.checks.append(physics.check_trotter(n, fs, f_ref))
            res.checks.append(physics.check_trotter_slopes(n, fs, f_ref))
        return res


def eaf_residues(Q, n, data):
    """Residue checks of every EAF partial sum for a = 1, 2."""
    out = []
    for a in (1, 2):
        nv = len(Q.adjacency_matrix(n, a).vertices)
        for start in range(nv):
            for stop in range(start + 1, nv + 1):
                try:
                    fact = Q.eaf_factorization(n, a, tuple(range(start, stop)))
                except Q.QtmChainError:
                    continue
                out.append(Q.residue_check(fact, data))
    return out


def perturb_roots(Q, data):
    roots = tuple(
        tuple(r * 1.01 + (0.002 if abs(r) < 1e-9 else 0.0) for r in lvl)
        for lvl in data.roots
    )
    return Q.RootData(n=data.n, N=data.N, tau=data.tau, mu=data.mu, beta=data.beta,
                      roots=roots)


WORKLOADS = {w.name: w for w in (SolveCold(), SweepC(), Crosscheck())}
