"""Reference values made apart from the NLIE solver, and the checks that use them.

Each check returns a ``Check`` whose tolerance comes from an error model or
a physical law, never from the value under test, so that a perturbed value
is rejected (``selftest.py`` shows this for every check).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import digamma


@dataclass
class Check:
    name: str
    value: float
    tol: float
    ok: bool


def check_le(name, value, tol):
    value = float(value)
    return Check(name, value, float(tol), bool(np.isfinite(value) and value <= tol))


def check_true(name, condition, value=0.0):
    return Check(name, float(value), 0.0, bool(condition))


# ----------------------------------------------------------------------
# high-temperature series from exact traces of H = J sum_i P_{i,i+1}

def ring_cumulants(n, L, kmax):
    """Per-site cumulants kappa_k / L of H = sum_i P_{i,i+1} on a ring of L
    sites, k = 0..kmax, as exact fractions.

    tr(P_{b1}...P_{bk}) = n^(cycles of the product permutation), so the
    moments tr(H^k)/n^L are sums over products of k bond transpositions,
    accumulated as counts per permutation.  A connected cluster of k bonds
    wraps the ring only when k >= L, so kappa_k / L is the infinite-chain
    value for k < L.
    """
    bonds = [(i, (i + 1) % L) for i in range(L)]

    def cycles(p):
        seen = [False] * L
        count = 0
        for i in range(L):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
        return count

    state = {tuple(range(L)): 1}
    moments = [Fraction(1)]
    for _ in range(kmax):
        nxt = {}
        for p, c in state.items():
            for a, b in bonds:
                q = list(p)
                q[a], q[b] = q[b], q[a]
                q = tuple(q)
                nxt[q] = nxt.get(q, 0) + c
        state = nxt
        moments.append(
            sum(Fraction(c) * Fraction(n) ** (cycles(p) - L) for p, c in state.items())
        )
    kappa = [Fraction(0)] * (kmax + 1)
    for k in range(1, kmax + 1):
        kappa[k] = moments[k] - sum(
            math.comb(k - 1, m - 1) * kappa[m] * moments[k - m] for m in range(1, k)
        )
    return [x / L for x in kappa]


class HighTSeries:
    """f, S, C of the infinite chain to a given order in beta*J.

    f = -T ln n - T sum_k a_k (-beta J)^k,  a_k = (kappa_k / L) / k!,
    with the cumulants from the 7-site ring (exact through k = 6), checked
    against the 6-site ring (exact through k = 5).
    """

    ORDER = 4

    def __init__(self, n, J=1.0):
        six = ring_cumulants(n, 6, 5)
        seven = ring_cumulants(n, 7, 5)
        if six[1:6] != seven[1:6]:
            raise AssertionError(f"ring cumulants disagree between L=6 and L=7 for n={n}")
        self.n = n
        self.J = J
        self.a = [float(kap) / math.factorial(k) for k, kap in enumerate(seven)]

    def _sum(self, T, weight, orders):
        return sum(
            self.a[k] * (-self.J) ** k * weight(k) * T ** (-k) for k in orders
        )

    def f(self, T, order=ORDER):
        return -T * math.log(self.n) - T * self._sum(T, lambda k: 1.0, range(1, order + 1))

    def S(self, T, order=ORDER):
        return math.log(self.n) + self._sum(T, lambda k: 1.0 - k, range(1, order + 1))

    def C(self, T, order=ORDER):
        return self._sum(T, lambda k: k * (k - 1.0), range(1, order + 1))

    def next_terms(self, T):
        """Size of the first omitted term of f, S and C (truncation estimate)."""
        k = self.ORDER + 1
        term = abs(self.a[k] * self.J**k) * T ** (-k)
        return T * term, (k - 1) * term, k * (k - 1) * term


# ----------------------------------------------------------------------
# low temperature: Sutherland ground state plus the CFT term

def sutherland_e0(n, J=1.0):
    """Ground-state energy per site of H = J sum P (Sutherland 1975)."""
    return J * (1.0 - (2.0 / n) * (digamma(1.0) - digamma(1.0 / n)))


def cft_f(n, T, J=1.0):
    """e0 - pi c T^2 / (6 v) with c = n - 1 and v = 2 pi J / n."""
    return sutherland_e0(n, J) - n * (n - 1) * T * T / (12.0 * J)


# The remainder f - cft_f is of higher order in T: it falls by a factor
# 14-16 per halving of T between T = 0.1 and 0.05 (close to T^4), and at
# T = 0.05 it is 0.9 % (n = 4) and 2 % (n = 5) of the CFT term.  The
# tolerance is 5 % of the CFT term at the checked temperature.
CFT_REL_TOL = 0.05

# S/T tends to the CFT slope pi c / (3 v) = n(n-1)/6 from above (the
# marginal current-current perturbation of SU(n)_1 adds a positive
# 1/ln^3 T correction); at T = 0.05 it is 4 % above for n = 5.
CFT_SLOPE_EXCESS = 0.10


def check_low_t(n, T, f, J=1.0):
    cft = n * (n - 1) * T * T / (12.0 * J)
    return check_le(f"low_T_cft n={n} T={T}", abs(f - cft_f(n, T, J)), CFT_REL_TOL * cft)


def check_cft_slope(n, T, S, J=1.0):
    ratio = (S / T) / (n * (n - 1) / (6.0 * J))
    return check_true(
        f"S/T_cft_slope n={n} T={T}", 1.0 < ratio <= 1.0 + CFT_SLOPE_EXCESS, ratio
    )


# ----------------------------------------------------------------------
# high temperature

# Default-grid error budget of f at mu = 0: the largest |f - f_ref| that
# solve-cold measures is 8e-9 (n = 5, T = 100, L = 80, M = 4096); the
# budget is twice that.  The series truncation is added as twice its first
# omitted term.
GRID_F_BUDGET = 2e-8


def check_high_t_f(series, T, f):
    trunc = series.next_terms(T)[0]
    return check_le(
        f"high_T_series_f n={series.n} T={T}",
        abs(f - series.f(T)),
        2.0 * trunc + GRID_F_BUDGET,
    )


def fd_noise(T, f_noise, h):
    """Noise of S and C from the five-point log-T stencils of thermo.py:
    |coefficients| / (12 h) and / (12 h^2) times the noise of f, over T."""
    dS = 18.0 * f_noise / (12.0 * h * T)
    dC = 64.0 * f_noise / (12.0 * h * h * T) + dS
    return dS, dC


def check_high_t_sc(series, T, S, C, f_noise, h=1e-3):
    """S and C against the series; the tolerance is the stencil noise model
    plus twice the truncation."""
    _, tS, tC = series.next_terms(T)
    nS, nC = fd_noise(T, f_noise, h)
    return [
        check_le(f"high_T_series_S n={series.n} T={T}", abs(S - series.S(T)), 2 * tS + nS),
        check_le(f"high_T_series_C n={series.n} T={T}", abs(C - series.C(T)), 2 * tC + nC),
    ]


# ----------------------------------------------------------------------
# finite-Trotter QTM free energies

TROTTER_NS = (2, 4, 6)


def trotter_extrapolations(fs, Ns=TROTTER_NS):
    """(f from a fit in 1, N^-2, N^-4 over all N; f from a fit in 1, N^-2
    over the two largest N)."""
    Ns = np.asarray(Ns, dtype=float)
    A = np.vstack([np.ones_like(Ns), Ns**-2, Ns**-4]).T
    full = np.linalg.solve(A, np.asarray(fs, dtype=float))[0]
    B = np.vstack([np.ones(2), Ns[1:] ** -2]).T
    low = np.linalg.solve(B, np.asarray(fs[1:], dtype=float))[0]
    return float(full), float(low)


def check_trotter(n, fs, f, label="trotter_extrapolation"):
    """The extrapolated f agrees with f within the error of the lower-order
    fit, |f_full - f_low|, which bounds the error of the full fit."""
    full, low = trotter_extrapolations(fs)
    return check_le(f"{label} n={n}", abs(full - f), abs(full - low))


def check_trotter_slopes(n, fs, f, Ns=TROTTER_NS):
    """Errors fall like N^-2; N^-4 terms flatten the slope between the
    smallest N, so each local slope must lie in [1.6, 2.4]."""
    errs = np.abs(np.asarray(fs) - f)
    slopes = [
        math.log(errs[i] / errs[i + 1]) / math.log(Ns[i + 1] / Ns[i])
        for i in range(len(Ns) - 1)
    ]
    worst = max(abs(s - 2.0) for s in slopes)
    return check_le(f"trotter_slope n={n}", worst, 0.4)
