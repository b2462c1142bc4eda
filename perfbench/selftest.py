"""Negative controls: every check accepts a sound value and rejects the
same value deliberately perturbed.

    python3 perfbench/run.py --self-test

Sound values come from the cached wide-grid reference, the high-T series
and a few small solves; no benchmark workload runs.
"""

import numpy as np

import physics
import workloads as wl
from common import import_package
from reference import load_reference


class Perturbed:
    """The package namespace with one function replaced."""

    def __init__(self, Q, **overrides):
        self._Q = Q
        self._over = overrides

    def __getattr__(self, name):
        return self._over.get(name) or getattr(self._Q, name)


def cases(Q, ref):
    """(name, sound checks, perturbed checks)."""
    out = []
    for n in (4, 5):
        s = physics.HighTSeries(n)
        f100 = ref.f(n, 100.0)
        out.append(("high-T f", [physics.check_high_t_f(s, 100.0, f100)],
                    [physics.check_high_t_f(s, 100.0, f100 + 1e-6)]))
        S, C = s.S(100.0), s.C(100.0)
        noise = wl.F_NOISE_PER_T * 100.0
        out.append(("high-T S", physics.check_high_t_sc(s, 100.0, S, C, noise)[:1],
                    physics.check_high_t_sc(s, 100.0, S + 1e-5, C, noise)[:1]))
        out.append(("high-T C", physics.check_high_t_sc(s, 100.0, S, C, noise)[1:],
                    physics.check_high_t_sc(s, 100.0, S, 1.2 * C, noise)[1:]))
        f2, fs = ref.f(n, 2.0), ref.trotter(n, 2.0)
        out.append(("Trotter extrapolation", [physics.check_trotter(n, fs, f2)],
                    [physics.check_trotter(n, fs, f2 + 1e-4)]))
        out.append(("Trotter N^-2", [physics.check_trotter_slopes(n, fs, f2)],
                    [physics.check_trotter_slopes(n, fs, f2 - 5e-3)]))
        f005 = ref.f(n, 0.05)
        out.append(("low-T CFT", [physics.check_low_t(n, 0.05, f005)],
                    [physics.check_low_t(n, 0.05, f005 + 1e-3)]))
        slope = n * (n - 1) / 6.0
        out.append(("CFT slope", [physics.check_cft_slope(n, 0.05, 1.04 * slope * 0.05)],
                    [physics.check_cft_slope(n, 0.05, 0.98 * slope * 0.05),
                     physics.check_cft_slope(n, 0.05, 1.2 * slope * 0.05)]))

    # sweep shape
    s5 = physics.HighTSeries(5)
    temps = np.array(wl.SWEEP_TEMPS)
    S = np.array([0.17, 1.15, 1.60, s5.S(100.0)])
    C = np.array([0.19, 0.38, 0.016, s5.C(100.0)])
    good = wl.sweep_checks(5, temps, S, C, s5)
    for name, S2, C2 in (
        ("C max at an end", S, np.array([0.5, 0.38, 0.016, C[-1]])),
        ("two C maxima", S, np.array([0.19, 0.38, 0.38, C[-1]])),
        ("negative C", S, np.array([0.19, 0.38, -0.01, C[-1]])),
        ("S not rising", np.array([0.17, 1.15, 1.1, S[-1]]), C),
    ):
        bad = wl.sweep_checks(5, temps, S2, C2, s5)
        out.append((f"sweep {name}", good, [c for c in bad if not c.ok] or bad))

    # identities, with one factor perturbed through a proxy namespace
    rng = np.random.default_rng(7)
    data = wl.random_root_data(Q, 4, rng)
    ctx = Q.EvalContext(data)
    x = wl.random_x(rng)

    def fused(d, a, s, xx, c=None):
        v = Q.fused_eigenvalue(d, a, s, xx, c)
        return v * (1 + 1e-8) if (a, s) == (1, 1) else v

    def aux(defn, d, xx, c=None):
        v = Q.eval_aux(defn, d, xx, c)
        return v + 1e-8 if defn.kind == "lower" else v

    P = Perturbed(Q, fused_eigenvalue=fused, eval_aux=aux)
    out.append(("T-system",
                [physics.check_le("t_system", wl.t_system_residual(Q, data, 4, x, ctx),
                                  wl.IDENTITY_TOL)],
                [physics.check_le("t_system", wl.t_system_residual(P, data, 4, x, ctx),
                                  wl.IDENTITY_TOL)]))
    out.append(("B = 1 + b",
                [physics.check_le("B=1+b", wl.b_relation_residual(Q, data, 4, x, ctx),
                                  wl.IDENTITY_TOL)],
                [physics.check_le("B=1+b", wl.b_relation_residual(P, data, 4, x, ctx),
                                  wl.IDENTITY_TOL)]))
    roots = Q.solve_bethe_roots(4, 2, beta=0.7)
    out.append(("EAF residues",
                [physics.check_le("eaf", max(wl.eaf_residues(Q, 4, roots)), 1e-9)],
                [physics.check_le("eaf", max(wl.eaf_residues(Q, 4, wl.perturb_roots(Q, roots))),
                                  1e-9)]))

    # exact mu properties, on real solves
    n, T = wl.PROPERTY_STATE
    f0 = Q.free_energy(Q.solve_nlie(n, T))
    c = 0.3
    fc = Q.free_energy(Q.solve_nlie(n, T, mu=(c,) * n))
    tol = wl.EQUIVALENT_SOLVES_REL * T
    out.append(("mu shift", [physics.check_le("mu_shift", abs(fc - (f0 - c)), tol)],
                [physics.check_le("mu_shift", abs(fc - (f0 - c - 1e-9)), tol)]))
    return out


def main():
    Q = import_package()
    ref = load_reference()
    failures = 0
    for name, sound, perturbed in cases(Q, ref):
        accepts = all(c.ok for c in sound)
        rejects = any(not c.ok for c in perturbed)
        failures += (not accepts) + (not rejects)
        print(f"{'ok  ' if accepts and rejects else 'FAIL'} {name}: sound value "
              f"{'accepted' if accepts else 'REJECTED'}, perturbed value "
              f"{'rejected' if rejects else 'ACCEPTED'}")
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0
