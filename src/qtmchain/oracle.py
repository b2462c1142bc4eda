"""Brute-force checks: exact diagonalization, finite-Trotter QTM, Yang-Baxter.

The Lax operator throughout is L(l, m) = (l - m) Id + P with P the
permutation of two n-state sites.  The quantum transfer matrix at Trotter
number N is the staggered product

    T(x) = tr_Q[ e^{beta mu . n_Q} L_{1,Q}(-tau, -ix) L_{2,Q}^{t_Q}(-ix, tau)
                 ... over N/2 pairs ],   tau = beta J / N,

acting on N quantum sites; its dominant eigenvalue at x = 0 carries the
finite-Trotter free energy -T log Lambda(0).  Everything here is dense or
a straightforward tensor contraction with explicit dimension caps; these
routines are oracles, clarity beats scale.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "DenseOperator",
    "build_hamiltonian",
    "number_operator",
    "finite_free_energy",
    "qtm_matrix",
    "qtm_matvec",
    "qtm_eigenvalue",
    "transfer_matrix",
    "ybe_residual",
    "spin2_identity_residual",
    "spin_matrices",
]

DIM_CAP = 200_000


@dataclass
class DenseOperator:
    """Matrix with its site-factorized basis bookkeeping."""

    n: int
    sites: int
    matrix: np.ndarray

    @property
    def dimension(self):
        return self.matrix.shape[0]


def _check_dim(n, L):
    if n**L > DIM_CAP:
        raise DomainError(f"Hilbert dimension {n}^{L} exceeds the cap {DIM_CAP}")


def _digits(n, L):
    """Basis states as an (n^L, L) digit array, big-endian."""
    idx = np.arange(n**L)
    out = np.empty((n**L, L), dtype=np.int64)
    for pos in range(L - 1, -1, -1):
        out[:, pos] = idx % n
        idx //= n
    return out


def build_hamiltonian(n, L, periodic=True):
    """H = sum_i P_{i,i+1} (adjacent transpositions, optional wrap)."""
    _check_dim(n, L)
    dim = n**L
    if dim > 20_000:
        raise DomainError("dense Hamiltonian materialization capped at 20000")
    digits = _digits(n, L)
    weights = n ** np.arange(L - 1, -1, -1)
    H = np.zeros((dim, dim))
    bonds = [(i, i + 1) for i in range(L - 1)]
    if periodic and L > 1:
        bonds.append((L - 1, 0))
    src = np.arange(dim)
    for i, j in bonds:
        swapped = digits.copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        dst = swapped @ weights
        H[dst, src] += 1.0
    return DenseOperator(n=n, sites=L, matrix=H)


def number_operator(n, L, species):
    """Diagonal count of sites occupied by a species (1-based)."""
    _check_dim(n, L)
    digits = _digits(n, L)
    return np.sum(digits == species - 1, axis=1).astype(float)


def _multiset_permutations(content):
    """Distinct orderings of a multiset, lexicographic (no factorial blowup)."""
    counts = {}
    for v in content:
        counts[v] = counts.get(v, 0) + 1
    out = []
    state = []

    def rec():
        if len(state) == len(content):
            out.append(tuple(state))
            return
        for v in sorted(counts):
            if counts[v]:
                counts[v] -= 1
                state.append(v)
                rec()
                state.pop()
                counts[v] += 1

    rec()
    return out


def finite_free_energy(n, L, T, mu=None, J=1.0, periodic=True):
    """f_L = -(T/L) log tr exp(-beta (J H - sum_j mu_j N_j)).

    The Hamiltonian conserves every species count, so the trace is taken
    sector by sector over occupation types; block sizes stay small even
    when the full dimension does not.
    """
    _check_dim(n, L)
    if mu is None:
        mu = (0.0,) * n
    beta = 1.0 / T
    logterms = []
    for content in combinations_with_replacement(range(n), L):
        counts = np.bincount(content, minlength=n)
        states = _multiset_permutations(content)
        index = {s: i for i, s in enumerate(states)}
        dim = len(states)
        block = np.zeros((dim, dim))
        bonds = [(i, i + 1) for i in range(L - 1)]
        if periodic and L > 1:
            bonds.append((L - 1, 0))
        for s, col in index.items():
            for i, j in bonds:
                t = list(s)
                t[i], t[j] = t[j], t[i]
                block[index[tuple(t)], col] += 1.0
        energies = np.linalg.eigvalsh(block)
        muterm = beta * float(np.dot(mu, counts))
        logterms.append(muterm - beta * J * energies)
    allterms = np.concatenate(logterms)
    top = allterms.max()
    logZ = top + np.log(np.sum(np.exp(allterms - top)))
    return -(T / L) * logZ


# ----------------------------------------------------------------------
# quantum transfer matrix

def _lax_site_tensors(n, tau, x):
    """Per-site Q-matrices of operators, indices [a_out, a_in, s_out, s_in].

    Odd sites carry L(-tau, -ix), even sites L^{t_Q}(-ix, tau); the
    permutation has <a' s'|P|a s> = delta_{a',s} delta_{s',a}."""
    odd = np.zeros((n, n, n, n), dtype=complex)
    even = np.zeros((n, n, n, n), dtype=complex)
    for ap in range(n):
        for a in range(n):
            for sp in range(n):
                for s in range(n):
                    perm = 1.0 if (ap == s and sp == a) else 0.0
                    permt = 1.0 if (a == s and sp == ap) else 0.0
                    iden = 1.0 if (ap == a and sp == s) else 0.0
                    odd[ap, a, sp, s] = (-tau + 1j * x) * iden + perm
                    even[ap, a, sp, s] = (-1j * x - tau) * iden + permt
    return odd, even


def _thread_sites(cur, site_tensors):
    """Contract the quantum sites into cur one at a time and trace the
    auxiliary space.

    cur[a_start, a_current, processed s'-block, pending s-block] starts
    with a processed block of size 1; site_tensors holds one [a_out, a_in,
    s_out, s_in] tensor per site.  Returns the traced vector."""
    for W in site_tensors:
        n = W.shape[2]
        nA, _, Dout, Din = cur.shape
        cur = cur.reshape(nA, nA, Dout, n, Din // n)
        cur = np.einsum("aqdsr,qcps->acdpr", cur, W)
        cur = cur.reshape(nA, nA, Dout * n, Din // n)
    return np.einsum("aaj->j", cur[:, :, :, 0])


def qtm_matvec(n, N, tau, beta_mu, x, v):
    """Apply the quantum transfer matrix to a vector of length n^N.

    The auxiliary space is threaded through as a pair of open indices while
    quantum sites are contracted one at a time; memory stays at n^2 times
    the Hilbert dimension.  beta_mu are the products beta * mu_j."""
    if N % 2 or N <= 0:
        raise DomainError("Trotter number must be positive and even")
    odd, even = _lax_site_tensors(n, tau, x)
    twist = np.exp(np.asarray(beta_mu, dtype=float))
    cur = np.zeros((n, n, 1, n**N), dtype=complex)
    for a in range(n):
        cur[a, a, 0] = twist[a] * v
    return _thread_sites(cur, [odd if site % 2 == 0 else even for site in range(N)])


def qtm_matrix(n, N, T, J=1.0, mu=None, x=0.0):
    """Dense QTM built column by column (small N only)."""
    if n**N > 4096:
        raise DomainError("dense QTM capped at dimension 4096")
    if mu is None:
        mu = (0.0,) * n
    beta = 1.0 / T
    tau = beta * J / N
    dim = n**N
    bmu = tuple(beta * m for m in mu)
    cols = np.array(
        [qtm_matvec(n, N, tau, bmu, x, e) for e in np.eye(dim, dtype=complex)]
    )
    return DenseOperator(n=n, sites=N, matrix=cols.T)


def qtm_eigenvalue(n, N, T, J=1.0, mu=None, x=0.0, tol=1e-12, max_iter=50000):
    """Dominant QTM eigenvalue by shifted power iteration.

    Deterministic uniform start; a fixed real shift (the first Rayleigh
    estimate) breaks the sign ambiguity of a possibly negative subdominant
    eigenvalue.  Stagnation raises with a gap estimate attached.
    """
    _check_dim(n, N)
    if mu is None:
        mu = (0.0,) * n
    beta = 1.0 / T
    tau = beta * J / N
    bmu = tuple(beta * m for m in mu)
    dim = n**N
    v = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    mv = lambda w: qtm_matvec(n, N, tau, bmu, x, w)

    Av = mv(v)
    lam = complex(v.conj() @ Av)
    shift = abs(lam) if lam != 0 else 1.0
    history = []
    for it in range(max_iter):
        w = Av + shift * v
        nw = np.linalg.norm(w)
        v = w / nw
        Av = mv(v)
        lam = complex(v.conj() @ Av)
        res = float(np.linalg.norm(Av - lam * v) / max(abs(lam), 1e-300))
        history.append(res)
        if res < tol:
            return lam
    rate = (history[-1] / history[-10]) ** (1 / 9) if len(history) > 10 else np.nan
    raise ConvergenceError(
        f"power iteration stagnated; contraction ratio ~ {rate:.6f} "
        "(near-degenerate dominant pair?)",
        residual=history[-1],
        iterations=max_iter,
    )


def trotter_free_energy(n, N, T, J=1.0, mu=None, x=0.0):
    """Finite-Trotter free energy in the infinite-Trotter normalization.

    -T log Lambda_N(0) alone approaches the thermodynamic f only like 1/N,
    entirely through the trivial factor (1 + beta J/N)^N e^{-beta J} of the
    Phi normalization; dividing it out leaves the physical content, which
    converges like 1/N^2.  This is the quantity to extrapolate against the
    integral-equation result.
    """
    lam = qtm_eigenvalue(n, N, T=T, J=J, mu=mu, x=x)
    beta = 1.0 / T
    return -T * (
        np.log(lam.real) - N * np.log(1.0 + beta * J / N) + beta * J
    )


def transfer_matrix(n, L, lam):
    """Row-to-row transfer matrix tr_A prod_i L_{A,i}(lam, 0), dense."""
    _check_dim(n, L)
    dim = n**L
    if dim > 2048:
        raise DomainError("dense transfer matrix capped at dimension 2048")
    W = np.zeros((n, n, n, n), dtype=complex)  # [a', a, s', s]
    for ap in range(n):
        for a in range(n):
            for sp in range(n):
                for s in range(n):
                    perm = 1.0 if (ap == s and sp == a) else 0.0
                    iden = 1.0 if (ap == a and sp == s) else 0.0
                    W[ap, a, sp, s] = lam * iden + perm
    cols = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        X = np.zeros((n, n, 1, dim), dtype=complex)
        for a in range(n):
            X[a, a, 0] = e
        cols[:, j] = _thread_sites(X, [W] * L)
    return DenseOperator(n=n, sites=L, matrix=cols)


# ----------------------------------------------------------------------
# structural identities

def _embed(n, M, legs, total=3):
    """Embed a two-site operator into legs (i, j) of a 3-site space."""
    M4 = M.reshape(n, n, n, n)  # [i' j' ; i j]
    out = np.zeros((n,) * (2 * total))
    idx = np.eye(n)
    i, j = legs
    k = ({0, 1, 2} - {i, j}).pop()
    for args in np.ndindex(n, n, n, n, n, n):
        outs, ins = args[:3], args[3:]
        val = M4[outs[i], outs[j], ins[i], ins[j]] * idx[outs[k], ins[k]]
        out[args] = val
    return out.reshape(n**3, n**3)


def ybe_residual(n, trials=10, seed=7, perturb=1.0):
    """Max residual of L12 L13 L23 = L23 L13 L12 at random spectral triples.

    perturb scales the permutation part of the middle factor L13 only;
    scaling P in all three factors is a symmetry of the equation (it only
    rescales the spectral parameters), so the negative control must break
    one factor."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        lam, mu_, gam = rng.uniform(-2, 2, size=3)

        def lax(a, b, scale=1.0):
            P = np.zeros((n * n, n * n))
            for p in range(n):
                for s in range(n):
                    P[s * n + p, p * n + s] = 1.0
            return (a - b) * np.eye(n * n) + scale * P

        L12 = _embed(n, lax(lam, mu_), (0, 1))
        L13 = _embed(n, lax(lam, gam, perturb), (0, 2))
        L23 = _embed(n, lax(mu_, gam), (1, 2))
        lhs = L12 @ L13 @ L23
        rhs = L23 @ L13 @ L12
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def spin_matrices(two_s_plus_1):
    """Spin operators (Sx, Sy, Sz) in the standard ladder construction."""
    d = two_s_plus_1
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    sz = np.diag(m)
    up = np.zeros((d, d))
    for i in range(1, d):
        mm = m[i]
        up[i - 1, i] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    sx = 0.5 * (up + up.T)
    sy = -0.5j * (up - up.T)
    return sx, sy, sz


def spin2_identity_residual(coeffs=(-2.5, -13.0 / 36.0, 1.0 / 6.0, 1.0 / 36.0)):
    """Residual of the quartic spin-2 exchange polynomial against the
    permutation operator, after fitting the free additive constant.

    Returns (residual, fitted_constant).  The printed coefficients
    reproduce P exactly; zeroing any of them is the negative control.
    """
    sx, sy, sz = spin_matrices(5)
    ss = sum(np.kron(a, a) for a in (sx, sy, sz)).real
    M = (
        coeffs[0] * ss
        + coeffs[1] * ss @ ss
        + coeffs[2] * ss @ ss @ ss
        + coeffs[3] * ss @ ss @ ss @ ss
    )
    P = np.zeros((25, 25))
    for a in range(5):
        for b in range(5):
            P[b * 5 + a, a * 5 + b] = 1.0
    const = np.trace(P - M) / 25.0
    residual = float(np.max(np.abs(M + const * np.eye(25) - P)))
    return residual, float(const)
