"""Pole-cancellation adjacency matrices, elementary analytic factors, Bethe roots.

Each term of the fused eigenvalue Lambda_{a,1} is a strictly increasing
a-tuple of species; two terms share a removable pole iff they differ in
exactly one row r where the entries are k and k+1, the pole sitting at the
zero set of q_k(x + i*delta) with delta = r - (a+1)/2.  Partial sums over
range-expressible groups of terms factor into a polynomial p(x) times the
unremoved poles divided by the common Phi zeros, which is what the
elementary-analytic-factor bookkeeping below records.

Shifts are tracked as integers in units of i/2 throughout, so common-zero
extraction never compares floating-point offsets.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .errors import BetheStateError, ConvergenceError, DomainError, UnsupportedSubsetError
from .errors import finite_real, finite_vector, integer_at_least, positive_real, trotter_number
from .oracle import _phi_normalized
from .tableaux import RangeTableau, RootData, eval_q, eval_range_tableau

__all__ = [
    "AdjacencyMatrix",
    "EafFactorization",
    "adjacency_matrix",
    "eaf_factorization",
    "eval_eaf_polynomial",
    "solve_bethe_roots",
    "bae_residuals",
    "residue_check",
    "eigenvalue_from_roots",
]

BETHE_TOL = 1e-12  # largest Bethe-equation residual at a returned root set
RESIDUE_RADIUS, RESIDUE_POINTS = 0.02, 16  # the circles of residue_check
MEAN_RADIUS, MEAN_POINTS = 0.05, 16  # the circle of eigenvalue_from_roots
# The dominant state's Lambda(0) is real: |Im| / |Lambda| above this rejects
# a root set (measured <= 3.5e-14 on dominant sets, n = 2..5, N <= 8)
DOMINANT_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Vertices are the increasing a-tuples in lexicographic order; edges
    carry (level, delta_half) with delta_half = 2*delta an integer.  Read
    only, as adjacency_matrix shares it."""

    n: int
    a: int
    vertices: tuple
    edges: MappingProxyType

    def label(self, i, j):
        """Edge label between vertex indices i and j, or None."""
        return self.edges.get((min(i, j), max(i, j)))

    def as_dict(self):
        """JSON-ready {vertices, edges: [{i, j, level, shift}]} form."""
        return {
            "n": self.n,
            "a": self.a,
            "vertices": [list(v) for v in self.vertices],
            "edges": [
                {"i": i, "j": j, "level": lvl, "shift": dh / 2.0}
                for (i, j), (lvl, dh) in sorted(self.edges.items())
            ],
        }


@lru_cache(maxsize=None)
def adjacency_matrix(n, a):
    """Shared-pole structure of the a-th fundamental representation, one per (n, a)."""
    if not 1 <= a <= n - 1:
        raise DomainError(f"need 1 <= a <= {n - 1}, got a={a}")
    vertices = tuple(combinations(range(1, n + 1), a))
    index = {v: i for i, v in enumerate(vertices)}
    edges = {}
    for i, v in enumerate(vertices):
        for r in range(a):
            w = v[:r] + (v[r] + 1,) + v[r + 1:]
            if w in index and index[w] > i:
                # differ in row r+1 only, entries k, k+1
                edges[(i, index[w])] = (v[r], 2 * (r + 1) - (a + 1))
    return AdjacencyMatrix(n=n, a=a, vertices=vertices, edges=MappingProxyType(edges))


@dataclass(frozen=True)
class EafFactorization:
    """Bookkeeping for one partial tableau sum p(x).

    unremoved_poles: (level, delta_half) labels of edges leaving the subset.
    removed_poles: labels of edges with both ends inside the subset, the
    poles that cancel in the sum once the Bethe equations hold.
    common_zeros: (sign, delta_half) Phi factors present in every term.
    The polynomial degree is a*N + sum(m_level) - (N/2)*len(common_zeros),
    recorded symbolically as the N/2 coefficient plus root counts.
    """

    n: int
    a: int
    subset: tuple
    ranges: tuple
    unremoved_poles: tuple
    removed_poles: tuple
    common_zeros: tuple
    degree_half_n: int
    degree_roots: tuple

    def degree(self, data):
        return (data.N // 2) * self.degree_half_n + sum(
            data.m(lvl) for lvl in self.degree_roots
        )

    def tableau(self):
        return RangeTableau.column(self.ranges)


def _phi_multiset(n, a, tup):
    """Phi factors of one eigenvalue term, as (sign, delta_half) pairs."""
    out = []
    for r, k in enumerate(tup, start=1):
        dh = 2 * r - (a + 1)  # argument offset in units of i/2
        out.append(("-", dh - 2) if k == 1 else ("-", dh))
        out.append(("+", dh + 2) if k == n else ("+", dh))
    return out


def eaf_factorization(n, a, subset):
    """Analytic factorization of the partial sum over a vertex subset.

    The subset must be range-expressible: equal to the set of admissible
    tuples lying between its elementwise minimum and maximum.
    """
    adj = adjacency_matrix(n, a)
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise UnsupportedSubsetError("subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= len(adj.vertices):
        raise UnsupportedSubsetError("vertex index out of range")
    chosen = [adj.vertices[i] for i in subset]
    lo = tuple(min(v[r] for v in chosen) for r in range(a))
    hi = tuple(max(v[r] for v in chosen) for r in range(a))
    box = {
        v
        for v in adj.vertices
        if all(lo[r] <= v[r] <= hi[r] for r in range(a))
    }
    if box != set(chosen):
        raise UnsupportedSubsetError(
            "subset is not the admissible box of its elementwise bounds"
        )
    inside = set(subset)
    removed, unremoved = set(), set()
    for (i, j), label in adj.edges.items():
        if i in inside and j in inside:
            removed.add(label)
        elif i in inside or j in inside:
            unremoved.add(label)
    common = reduce(
        Counter.__and__, (Counter(_phi_multiset(n, a, v)) for v in chosen)
    )
    zeros = tuple(sorted(common.elements()))
    ranges = tuple((lo[r], hi[r]) for r in range(a))
    return EafFactorization(
        n=n,
        a=a,
        subset=subset,
        ranges=ranges,
        unremoved_poles=tuple(sorted(unremoved)),
        removed_poles=tuple(sorted(removed)),
        common_zeros=zeros,
        degree_half_n=2 * a - len(zeros),
        degree_roots=tuple(lvl for lvl, _ in sorted(unremoved)),
    )


def eval_eaf_polynomial(fact, data, x, ctx=None):
    """p(x) = (prod unremoved q / prod common Phi) * the range-column sum."""
    x = complex(x)
    val = eval_range_tableau(data, fact.tableau(), x, ctx)
    for lvl, dh in fact.unremoved_poles:
        val *= eval_q(data, lvl, x + 0.5j * dh)
    for sign, dh in fact.common_zeros:
        lvl = data.n if sign == "+" else 0
        val /= eval_q(data, lvl, x + 0.5j * dh)
    return val


# ----------------------------------------------------------------------
# Bethe roots of the dominant sector

def _bae_terms(data, j, x):
    """The two terms of the level-j Bethe equation, whose sum
       e^{b mu_j} q_{j-1}(x-i) q_j(x+i) q_{j+1}(x)
       + e^{b mu_{j+1}} q_{j-1}(x) q_j(x-i) q_{j+1}(x+i)
    vanishes at every level-j root."""
    t1 = (
        np.exp(data.beta * data.mu[j - 1])
        * eval_q(data, j - 1, x - 1j)
        * eval_q(data, j, x + 1j)
        * eval_q(data, j + 1, x)
    )
    t2 = (
        np.exp(data.beta * data.mu[j])
        * eval_q(data, j - 1, x)
        * eval_q(data, j, x - 1j)
        * eval_q(data, j + 1, x + 1j)
    )
    return t1, t2


def bae_residuals(data):
    """|lambda_j/lambda_{j+1} + 1| at every stored root (pole-free ratio form)."""
    res = []
    for j in range(1, data.n):
        for x in data.roots[j - 1]:
            t1, t2 = _bae_terms(data, j, x)
            res.append(abs(t1 / t2 + 1.0))
    return res


def solve_bethe_roots(n, N, beta, mu=None, J=1.0, max_iter=80):
    """Roots of the dominant sector m_1 = ... = m_{n-1} = N/2.

    Newton iteration on the pole-free form of the Bethe equations, starting
    from the near-origin symmetric guess and following the chemical
    potentials homotopically.  Small even N only; robustness beyond N ~ 6
    is best effort.  A solved set whose Lambda(0) is not real and positive
    (DOMINANT_IMAG_TOL) is not the dominant state, and raises
    BetheStateError.  From N = 6 on, every N' = 2, 4, ..., N - 2 is solved
    so too, and each N' >= 6 must also follow the Trotter law: its free
    energy f_N' = -T log Lambda(0), in the infinite-Trotter normalization
    (oracle._phi_normalized), lies within (beta J / N')^2 of the N'^-2
    extrapolation from N' - 2 and N' - 4 (BetheStateError otherwise).

    That bound traces to the spread of N^2 (f_N - f_inf), f_inf the NLIE's,
    over N = 2 to 8 at T = 2: 0.0262 to 0.0296 at n = 4 and 0.0230 to
    0.0263 at n = 5.  A spread D moves the two-point extrapolation of N by
    at most (4/3 + N^2/(4(N - 3))) D, 0.015 at N = 8, which is 0.06
    (beta J)^2.  Over beta = 0.1 to 1.5 (n = 4, 5; N = 6, 8, 10) the
    dominant sets measured at most 0.15 (beta J)^2, where N = 6 is not yet
    in the N^-2 regime (beta = 1.5), and the wrong sets with a positive
    Lambda(0) at least 5.1 (beta J)^2 (n = 5, N = 10, beta = 0.1); at
    beta = 0.5 the n = 4, N = 10 set misses the law's f = -2.7572 at
    -2.4749.

    The Trotter coupling enters the Phi factors as tau = -beta*J/N: with
    this sign the reconstructed eigenvalue sum matches the staggered
    quantum-transfer-matrix product (checked against dense diagonalization;
    the opposite sign describes the J -> -J chain).
    """
    n = integer_at_least("rank n", n, 2)
    N = trotter_number(N)
    beta = positive_real("beta", beta)
    mu = finite_vector("chemical potentials", mu, n)
    J = finite_real("J", J)
    data, lam = _dominant_roots(n, N, beta, mu, J, max_iter)
    if N < 6:
        return data
    lams = {M: _dominant_roots(n, M, beta, mu, J, max_iter)[1] for M in range(2, N, 2)}
    lams[N] = lam
    f = {M: _phi_normalized(lams[M], M, 1.0 / beta, J) for M in lams}
    for M in range(6, N + 1, 2):
        slope = (f[M - 4] - f[M - 2]) / ((M - 4) ** -2 - (M - 2) ** -2)
        law = f[M - 2] + slope * (M**-2 - (M - 2) ** -2)
        if abs(f[M] - law) > (beta * J / M) ** 2:
            raise BetheStateError(n, M, lams[M])
    return data


def _dominant_roots(n, N, beta, mu, J, max_iter):
    """(data, Lambda(0)) of solve_bethe_roots at one N, its arguments
    checked: the Newton solve and the check of Lambda(0)."""
    tau = -beta * J / N
    m = N // 2

    # symmetric initial guess, roots[j-1, k] for level j: near the origin,
    # split per level and per root index to break degeneracy
    spread = 0.35 * (np.arange(m) - (m - 1) / 2.0)
    roots = spread + 1e-3j * (np.arange(1, n) - n / 2.0)[:, None]

    def newton(mu_now, roots):
        data_of = lambda rt: RootData(n=n, N=N, tau=tau, mu=mu_now, beta=beta, roots=rt)

        # the equations are polynomials in the roots, so the complex
        # Jacobian is one forward difference per root
        def residual_vec(rt):
            data = data_of(rt)
            return np.array([sum(_bae_terms(data, j, x))
                             for j, level in enumerate(rt, 1) for x in level])

        for _ in range(max_iter):
            F = residual_vec(roots)
            Jm = np.empty((F.size, roots.size), dtype=complex)
            h = 1e-7
            for c in range(roots.size):
                pert = roots.copy()
                pert.flat[c] += h
                Jm[:, c] = (residual_vec(pert) - F) / h
            try:
                step = np.linalg.solve(Jm, -F)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(Jm, -F, rcond=None)[0]
            step = step.reshape(roots.shape)
            lam = 1.0
            base = np.linalg.norm(F)
            for _ in range(30):
                if np.linalg.norm(residual_vec(roots + lam * step)) < base:
                    break
                lam *= 0.5
            roots = roots + lam * step
            if max(bae_residuals(data_of(roots)), default=0.0) < BETHE_TOL:
                return roots
        raise ConvergenceError(
            "Bethe Newton iteration stalled",
            residual=max(bae_residuals(data_of(roots)), default=np.inf),
            iterations=max_iter,
        )

    # homotopy in mu from the symmetric point
    steps = 1 if all(abs(v) < 1e-14 for v in mu) else 4
    for s in range(1, steps + 1):
        mu_now = tuple(v * s / steps for v in mu)
        roots = newton(mu_now, roots)
    data = RootData(n=n, N=N, tau=tau, mu=mu, beta=beta, roots=roots)
    lam = eigenvalue_from_roots(data, 0.0)
    if not (lam.real > 0 and abs(lam.imag) <= DOMINANT_IMAG_TOL * abs(lam)):
        raise BetheStateError(n, N, lam)
    return data, lam


# ----------------------------------------------------------------------
# analyticity checks

def _ring(radius, points):
    """Offsets of `points` equally spaced points on a circle, none on the axes."""
    return radius * np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)


def residue_check(fact, data):
    """Largest relative residue of the partial sum at its removed poles.

    For every internal (removed) pole position the circle mean of
    (x - x0) * sum(x) estimates the residue exactly; it is normalized by
    the magnitude scale of (x - x0) * sum on the same circle.  Solved
    Bethe roots make every removed pole vanish.  All circles are
    evaluated as one array of points.
    """
    centres = np.array([root - 0.5j * dh for lvl, dh in fact.removed_poles
                        for root in data.roots[lvl - 1]], dtype=complex)
    if not centres.size:
        return 0.0
    ring = _ring(RESIDUE_RADIUS, RESIDUE_POINTS)
    z = (centres[:, None] + ring).ravel()
    vals = ring * eval_range_tableau(data, fact.tableau(), z).reshape(-1, RESIDUE_POINTS)
    scale = np.abs(vals).max(axis=1)
    live = scale > 0.0
    return float(np.max(np.abs(vals.mean(axis=1))[live] / scale[live], initial=0.0))


def eigenvalue_from_roots(data, x):
    """Lambda_{1,1}(x) via the circle mean, safe on top of Bethe roots.

    The circle mean of an analytic function equals its center value; the
    individual eigenvalue terms have poles at the roots but the full sum
    does not once the Bethe equations hold.
    """
    x = complex(x)
    tab = RangeTableau.full(1, 1, data.n)
    pole_dist = min(
        (abs(x + 0.5j * dh - r) for level in data.roots for r in level
         for dh in range(-data.n, data.n + 1)),
        default=np.inf,
    )
    if pole_dist > 10 * MEAN_RADIUS:
        return eval_range_tableau(data, tab, x)
    return complex(eval_range_tableau(data, tab, x + _ring(MEAN_RADIUS, MEAN_POINTS)).mean())
