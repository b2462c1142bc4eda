"""Brute-force checks: exact diagonalization, finite-Trotter QTM, Yang-Baxter.

The Lax operator throughout is L(l, m) = (l - m) Id + P with P the
permutation of two n-state sites.  The quantum transfer matrix at Trotter
number N is the staggered product

    T(x) = tr_Q[ e^{beta mu . n_Q} L_{1,Q}(-tau, -ix) L_{2,Q}^{t_Q}(-ix, tau)
                 ... over N/2 pairs ],   tau = beta J / N,

acting on N quantum sites; its dominant eigenvalue at x = 0 carries the
finite-Trotter free energy -T log Lambda(0).  Odd sites carry
(ix - tau) Id + P and even sites (-ix - tau) Id + P^{t_Q}; on a state
with open auxiliary indices, P traces the auxiliary index against the
site and P^{t_Q} swaps the two, so a site costs a few passes over the
state and no site tensor is stored.  The starting auxiliary indices are
threaded in blocks small enough to stay in cache (one at a time at
n = 5, N >= 6), so the state holds n * n^N numbers there, not n^2 * n^N,
in two buffers reused from site to site and from one power step to the
next; at x = 0 every weight is real and so are the state and the
iteration.

Exact diagonalization has one path, _sector_spectra: the eigvalsh of H
one species-count sector at a time.  _exact sums its spectra once into the
free energy, which finite_free_energy returns, and the ground energy,
which the CLI reports beside it; build_hamiltonian's dense H is a
reference for tests.  Every diagonalization and dense-matrix path
carries an explicit dimension cap.
"""

import numpy as np

from .errors import ConvergenceError, DomainError
from .errors import finite_real, finite_vector, integer_at_least, positive_real, trotter_number

__all__ = [
    "build_hamiltonian",
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
DENSE_CAP = 20_000  # largest dense block: build_hamiltonian, an ED sector
QTM_TOL = 1e-12  # relative eigen-residual at which qtm_eigenvalue stops


def _sites(n, L, cap=DIM_CAP):
    """(n, L, n^L) for a rank n >= 2 and L >= 1 sites; DomainError where the
    dimension n^L exceeds cap."""
    n, L = integer_at_least("rank n", n, 2), integer_at_least("sites L", L, 1)
    if n**L > cap:
        raise DomainError(f"dimension {n}^{L} exceeds the cap {cap}")
    return n, L, n**L


def _thermal(n, T, mu, J):
    """(T, mu, J) of a chain of rank n, checked: T positive and finite, n
    finite chemical potentials (zeros for None) and a finite J."""
    return (positive_real("temperature", T), finite_vector("chemical potentials", mu, n),
            finite_real("J", J))


def _digits(n, L):
    """Basis states as an (n^L, L) digit array, big-endian."""
    idx = np.arange(n**L)
    out = np.empty((n**L, L), dtype=np.int64)
    for pos in range(L - 1, -1, -1):
        out[:, pos] = idx % n
        idx //= n
    return out


def _bond_moves(n, L, periodic):
    """The basis digits (_digits) and the bonds of H = sum_i P_{i,i+1}:
    moves[b, s] is the basis index of state s with the two sites of bond b
    swapped, for the adjacent bonds and, if periodic, the wrap (L-1, 0)."""
    digits = _digits(n, L)
    weights = n ** np.arange(L - 1, -1, -1)
    bonds = [(i, i + 1) for i in range(L - 1)]
    if periodic and L > 1:
        bonds.append((L - 1, 0))
    # the swap adds (d_j - d_i) w_i + (d_i - d_j) w_j to the index
    moves = [np.arange(n**L) + (digits[:, j] - digits[:, i]) * (weights[i] - weights[j])
             for i, j in bonds]
    return digits, np.array(moves, dtype=np.int64).reshape(len(bonds), n**L)


def build_hamiltonian(n, L, periodic=True):
    """H = sum_i P_{i,i+1} (adjacent transpositions, optional wrap), dense."""
    n, L, dim = _sites(n, L, DENSE_CAP)
    _, moves = _bond_moves(n, L, periodic)
    H = np.zeros((dim, dim))
    src = np.arange(dim)
    for dst in moves:
        H[dst, src] += 1.0
    return H


def _sector_spectra(n, L, periodic):
    """The spectrum of H = sum_i P_{i,i+1}, one sector at a time.

    H conserves every species count, so its blocks are the basis states
    grouped by their sorted digits, each group's block the bond moves
    (_bond_moves) restricted to it.  Returns one (counts, energies) pair
    per sector: the n species counts and the eigvalsh of its block.
    Block sizes stay small; a block above DENSE_CAP raises DomainError."""
    digits, moves = _bond_moves(n, L, periodic)
    contents, group = np.unique(np.sort(digits, axis=1), axis=0, return_inverse=True)
    sizes = np.bincount(group)
    if sizes.max() > DENSE_CAP:
        raise DomainError(f"a sector of {sizes.max()} states exceeds {DENSE_CAP}")
    members = np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1])
    local = np.empty(n**L, dtype=np.int64)  # a state's place in its group
    spectra = []
    for content, states in zip(contents, members):
        cols = np.arange(len(states))
        local[states] = cols
        block = np.zeros((len(states), len(states)))
        for dst in local[moves[:, states]]:
            block[dst, cols] += 1.0
        spectra.append((np.bincount(content, minlength=n), np.linalg.eigvalsh(block)))
    return spectra


def finite_free_energy(n, L, T, mu=None, J=1.0, periodic=True):
    """f_L = -(T/L) log tr exp(-beta (J H - sum_j mu_j N_j)), summed over
    the sector spectra (_sector_spectra) by one log-sum-exp."""
    return _exact(n, L, T, mu, J, periodic)[0]


def _exact(n, L, T, mu=None, J=1.0, periodic=True):
    """(f_L, E0) from one pass of _sector_spectra, its arguments checked
    first: finite_free_energy's f_L, and the ground energy E0 of
    H = sum_i P_{i,i+1}, the least of the sectors' lowest energies."""
    n, L, _ = _sites(n, L)
    T, mu, J = _thermal(n, T, mu, J)
    beta = 1.0 / T
    spectra = _sector_spectra(n, L, periodic)
    allterms = np.concatenate([beta * float(np.dot(mu, counts)) - beta * J * energies
                               for counts, energies in spectra])
    top = allterms.max()
    logZ = top + np.log(np.sum(np.exp(allterms - top)))
    return -(T / L) * logZ, min(energies[0] for _, energies in spectra)


# ----------------------------------------------------------------------
# quantum transfer matrix

def _thread_sites(twist, v, sites, work=None):
    """tr_Q[diag(twist) L_1 ... L_N] v for the Lax operators of sites.

    sites holds one (lam, transposed) pair per quantum site: lam I + P, or
    lam I + P^{t_Q} when transposed.  The starting auxiliary index a is a
    spectator: its slice starts as twist[a] e_a (x) v and only its diagonal
    a_current = a is summed at the end, so the starts are threaded in
    blocks of g (_thread_work).  The state cur[start in block, a_current,
    processed s'-block, pending s-block] holds g * n * len(v) numbers, real
    when the twist, v and every lam are (x = 0).  A site is lam cur plus,
    for P, the trace of a_current against the pending site written on the
    diagonal a_current = s', or, for P^{t_Q}, the swap of a_current with
    that site; it writes into the other of two ping-pong buffers.  work
    holds the two buffers and the trace; without it a fresh one is made."""
    n, dim = len(twist), len(v)
    if work is None:
        work = _thread_work(twist, v, sites)
    *bufs, trace = work
    g = bufs[0].size // (n * dim)
    out = np.zeros(dim, dtype=bufs[0].dtype)
    for a0 in range(0, n, g):
        cur = bufs[0].reshape(g, n, 1, dim)
        cur.fill(0)
        for j in range(g):
            np.multiply(v, twist[a0 + j], out=cur[j, a0 + j, 0])
        for i, (lam, transposed) in enumerate(sites):
            _, _, Dout, Din = cur.shape
            cur = cur.reshape(g, n, Dout, n, Din // n)
            new = bufs[(i + 1) % 2].reshape(cur.shape)
            np.multiply(cur, lam, out=new)
            if transposed:
                new += cur.transpose(0, 3, 2, 1, 4)
            else:
                tr = np.einsum("bqdqr->bdr", cur, out=trace.reshape(g, Dout, Din // n))
                diagonal = np.einsum("bcdcr->bdcr", new)  # a writeable view
                diagonal += tr[:, :, None]
            cur = new.reshape(g, n, Dout * n, Din // n)
        out += np.einsum("jjd->d", cur[:, a0 : a0 + g, :, 0])
    return out


_BLOCK_BYTES = 2**20


def _thread_work(twist, v, sites):
    """The buffers of _thread_sites(twist, v, sites): two states and a
    trace, real when the twist, v and every lam are.  The block g of
    starts threaded together is the largest divisor of n whose state fits
    in _BLOCK_BYTES, or 1, so the two buffers stay in cache: g = 1 at
    n = 5, N = 6 (625 KB a buffer), g = n at N <= 4, where a per-start
    loop would be numpy call overhead n times over."""
    n, dim = len(twist), len(v)
    dtype = np.result_type(twist, v, *(lam for lam, _ in sites))
    fits = max(1, _BLOCK_BYTES // (n * dim * dtype.itemsize))
    g = max(d for d in range(1, min(n, fits) + 1) if n % d == 0)
    size = g * n * dim
    return np.empty(size, dtype), np.empty(size, dtype), np.empty(size // n**2, dtype)


def _qtm_sites(N, tau, x):
    """The (lam, transposed) pairs of the QTM's N sites: real at x = 0."""
    odd, even = (-tau, -tau) if x == 0 else (1j * x - tau, -1j * x - tau)
    return [(odd, False), (even, True)] * (N // 2)


def qtm_matvec(n, N, tau, beta_mu, x, v):
    """Apply the quantum transfer matrix to a vector of length n^N.

    Site 1, 3, ... carries L(-tau, -ix) = (ix - tau) I + P and site 2,
    4, ... carries L^{t_Q}(-ix, tau) = (-ix - tau) I + P^{t_Q}, threaded
    through v one at a time (_thread_sites); the twist e^{beta mu} acts
    on the auxiliary space.  beta_mu are the products beta * mu_j.  At
    x = 0 a real v gives a real result, equal to the complex one."""
    n = integer_at_least("rank n", n, 2)
    N = trotter_number(N)
    twist = np.exp(np.asarray(finite_vector("chemical potentials (as beta*mu)", beta_mu, n)))
    return _thread_sites(twist, v, _qtm_sites(N, tau, x))


def qtm_matrix(n, N, T, J=1.0, mu=None, x=0.0):
    """Dense QTM built column by column (small N only)."""
    N = trotter_number(N)
    n, _, dim = _sites(n, N, 4096)
    T, mu, J = _thermal(n, T, mu, J)
    beta = 1.0 / T
    tau = beta * J / N
    bmu = tuple(beta * m for m in mu)
    cols = np.array(
        [qtm_matvec(n, N, tau, bmu, x, e) for e in np.eye(dim, dtype=complex)]
    )
    return cols.T


def qtm_eigenvalue(n, N, T, J=1.0, mu=None, x=0.0, max_iter=50000):
    """Dominant QTM eigenvalue by shifted power iteration.

    Deterministic uniform start; a fixed real shift (the first Rayleigh
    estimate) breaks the sign ambiguity of a possibly negative subdominant
    eigenvalue.  At x = 0 the iteration runs in real arithmetic.  The
    sites and the buffers of _thread_sites are made once.  Stagnation
    raises with a gap estimate and the residual history attached.
    """
    N = trotter_number(N)
    n, _, dim = _sites(n, N)
    T, mu, J = _thermal(n, T, mu, J)
    beta = 1.0 / T
    sites = _qtm_sites(N, beta * J / N, x)
    twist = np.exp(np.array([beta * m for m in mu], dtype=float))
    v = np.full(dim, 1.0 / np.sqrt(dim))
    work = _thread_work(twist, v, sites)
    mv = lambda w: _thread_sites(twist, w, sites, work)

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
        if res < QTM_TOL:
            return lam
    rate = (history[-1] / history[-10]) ** (1 / 9) if len(history) > 10 else np.nan
    raise ConvergenceError(
        f"power iteration stagnated; contraction ratio ~ {rate:.6f} "
        "(near-degenerate dominant pair?)",
        residual=history[-1],
        iterations=max_iter,
        history=history,
    )


def _phi_normalized(lam, N, T, J=1.0):
    """-T log Lambda_N(0) with the trivial factor (1 + beta J/N)^N e^{-beta J}
    of the Phi normalization divided out (trotter_free_energy)."""
    beta = 1.0 / T
    return -T * (np.log(lam.real) - N * np.log(1.0 + beta * J / N) + beta * J)


def trotter_free_energy(n, N, T, J=1.0, mu=None):
    """Finite-Trotter free energy in the infinite-Trotter normalization.

    -T log Lambda_N(0) alone approaches the thermodynamic f only like 1/N,
    entirely through the trivial factor (1 + beta J/N)^N e^{-beta J} of the
    Phi normalization; dividing it out leaves the physical content, which
    converges like 1/N^2.  This is the quantity to extrapolate against the
    integral-equation result.
    """
    return _phi_normalized(qtm_eigenvalue(n, N, T=T, J=J, mu=mu), N, T, J)


def transfer_matrix(n, L, lam):
    """Row-to-row transfer matrix tr_A prod_i L_{A,i}(lam, 0), dense."""
    n, L, dim = _sites(n, L, 2048)
    sites = [(lam, False)] * L
    cols = np.array(
        [_thread_sites(np.ones(n), e, sites) for e in np.eye(dim, dtype=complex)]
    )
    return cols.T


# ----------------------------------------------------------------------
# structural identities

def _swap(n):
    """The permutation P of two n-state sites, <a' s'|P|a s> =
    delta_{a',s} delta_{s',a}, as an n^2 x n^2 matrix."""
    return np.eye(n * n).reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(n * n, n * n)


def ybe_residual(n, trials=10, seed=7, perturb=1.0):
    """Max residual of L12 L13 L23 = L23 L13 L12 at random spectral triples.

    perturb scales the permutation part of the middle factor L13 only;
    scaling P in all three factors is a symmetry of the equation (it only
    rescales the spectral parameters), so the negative control must break
    one factor."""
    rng = np.random.default_rng(seed)
    P, I = _swap(n), np.eye(n)
    S = np.kron(I, P)  # swaps sites 2 and 3, carrying legs (1, 2) to (1, 3)

    def lax(a, b, scale=1.0):
        return (a - b) * np.eye(n * n) + scale * P

    worst = 0.0
    for _ in range(trials):
        lam, mu_, gam = rng.uniform(-2, 2, size=3)
        L12 = np.kron(lax(lam, mu_), I)
        L13 = S @ np.kron(lax(lam, gam, perturb), I) @ S
        L23 = np.kron(I, lax(mu_, gam))
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
    P = _swap(5)
    const = np.trace(P - M) / 25.0
    residual = float(np.max(np.abs(M + const * np.eye(25) - P)))
    return residual, float(const)
