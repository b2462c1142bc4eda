"""Preconditioned, Anderson-mixed fixed-point solver for the nonlinear
integral equations.

The system solved on a uniform grid over [-L, L) is

    log b(x) = -(c + beta*J*d(x)) - (K * log B)(x),      B = 1 + b,

per auxiliary function, with the kernel matrix and driving term sampled
analytically in Fourier space and the convolution done by FFT after
splitting off the constant large-x asymptote:

    K * log B = K * (log B - log Binf) + K-hat(0) . log Binf.

The iteration (_iterate) preconditions the step of this map with its exact
linearization at the asymptote, A(k)^-1 = (I + K-hat(k) W)^-1 per Fourier
mode, and mixes it with the last two steps (Anderson mixing); the tangent
equations of a converged state take the same iteration.

The FFT product is circular: with the plain samples K-hat(k_m) it would
convolve with the periodized kernel sum_n K(u + 2nL).  The kernel
transforms are one-sided power series at k = 0 (the |k| kinks), so K has
algebraic tails K(X) ~ X^-2, X^-3, ... and those periodic images do not
vanish: at L = 40 they shift a convolution by 7e-5.  Each kernel table is
therefore corrected once, at set-up (_remove_images), so that the FFT
convolves with K itself over the lags [-L, L): the windowed equation, with
log B = log Binf outside the window, for every pair of points less than L
apart (pairs further apart keep a wrapped lag; they meet only where the
decaying part is down to its edge tail).  The image
sum is taken from the tail expansion through X^-4, whose coefficients are
fitted to the samples at k = 0; _remove_images gives the measured accuracy.

Conventions: transforms follow g-hat(k) = int e^{-ikx} g(x) dx, so the
asymptote of a convolution is K-hat(0) times the asymptote of the input,
(K * g)(x) = (1/2pi) int e^{ikx} K-hat(k) g-hat(k) dk, and the
position-space driving is d(x) = int e^{ikx} d-hat(k) dk, with no 1/2pi.

Half space.  The kernel matrices and the driving are real per Fourier
mode, so the solution keeps the symmetry log b(-x) = conj(log b(x)) for
any real mu, and every grid spectrum is real.  The solver therefore works
on the M/2+1 points x_j = -L + j dx, j = 0..M/2 (x <= 0), and reads the
rest of the grid as g_{M-j} = conj(g_j); the iteration, its residual and
its Anderson history all live on that half.  The forward transform
np.fft.hfft(g, n=M) gives the real spectrum on all M modes (the imaginary
parts of g at x = -L and x = 0, which the symmetry makes zero, are not
read), and np.fft.ihfft brings a real spectrum back to the half.  Every
kernel table is kept for the modes m = 0..M/2 only, mode-major
(M/2+1, F, F): K-hat(-k) = K-hat(k)^T, so a mode m > M/2 applies the
transpose of mode M-m (_contract).  The Nyquist mode M/2 has no partner
on the grid and is not its own transpose (entries that tend to 2 theta(k)
read 0 at k = -pi/dx against 2 at +pi/dx), so it is stored as sampled, at
k = -pi/dx, and never mirrored.  Every table of the module is of this one
kind.  The state is expanded to the full grid once, when a solve ends
(NlieState.logb stays (F, M)).  The public convolve_with_asymptote takes
any input: it splits log B into its two conjugate-symmetric parts,
log B = P + iQ with P and Q each satisfying the symmetry, and sends both
through the solver's one convolution routine and its own kernel table.

The largest quantum-transfer-matrix eigenvalue in the infinite-Trotter
limit is reconstructed as

    log Lambda(x) = beta*J*(G_n(x) - 1/(1+x^2)) + beta*mean(mu)
                    + Re (d^dagger * log B)(x),

where G_n is the digamma combination
(1/n)[psi(1+ix/n) + psi(1-ix/n) - psi(1/n+ix/n) - psi(1/n-ix/n)] and the
-beta*J/(1+x^2) piece is the finite remainder of the Phi normalization;
at beta -> 0 this reduces exactly to log sum_j e^{beta mu_j}.  The last
term is one sum over the M Fourier modes (_ell), with no convolution.
"""

import logging
import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import factorial

import numpy as np
from scipy.special import digamma, zeta

from .aux_functions import counting_values
from .errors import ConvergenceError, DomainError, GridTooSmallError, InconsistencyError
from .kernels import kernel_system

__all__ = [
    "Grid",
    "NlieState",
    "asymptotic_constants",
    "solve_nlie",
    "convolve_with_asymptote",
    "log_eigenvalue",
    "free_energy",
    "default_grid",
    "gamma_term",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid:
    """Uniform real-line window [-L, L) with M = 2^m points."""

    half_width: float
    points: int

    def __post_init__(self):
        m = self.points
        if m < 8 or m & (m - 1):
            raise DomainError("grid points must be a power of two >= 8")
        if self.half_width <= 0:
            raise DomainError("half width must be positive")

    @property
    def dx(self):
        return 2.0 * self.half_width / self.points

    @property
    def x(self):
        return -self.half_width + self.dx * np.arange(self.points)

    @property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


def default_grid(T, points=4096):
    """Default window: L = 100 at every T (dx = 0.049 at M = 4096).

    T is not read; callers pass it so that the rule may depend on it.  With
    the kernels' periodic images removed (_remove_images) the window need
    not grow with 1/T, and below T ~ 0.06 widening it at fixed M only
    coarsens dx: at T = 0.03, L = 200 leaves an n = 5 edge tail of 1.44e-5
    where L = 100 leaves 9.3e-7 (8.5e-7 for n = 4) in as many iterations,
    and f at L = 100 is 3.9e-9 closer to L = 200, M = 16384.

    100 is where the mu = 0 edge tail |log B - log Binf| stays below
    _EDGE_TAIL_TOL: at T = 0.1 it falls roughly as L^-2.7 (1.17e-6,
    0.85e-6, 0.64e-6 at L = 80, 90, 100 for n = 4), and it is
    1.26e-6 / 1.34e-6 (n = 4 / 5) at L = 80, T = 0.075.  For T in
    [0.05, 100] the free energy is within 1.3e-11 of L = 320, M = 16384.
    The n = 5 tail crosses the threshold near T = 0.014."""
    return Grid(half_width=100.0, points=points)


@dataclass
class NlieState:
    """Converged grid solution of one NLIE system."""

    n: int
    T: float
    mu: tuple
    J: float
    grid: Grid
    logb: np.ndarray
    logb_inf: np.ndarray
    logB_inf: np.ndarray
    iterations: int
    residual: float
    damping: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def beta(self):
        return 1.0 / self.T

    def logB(self):
        return _log1p_exp(self.logb)

    def to_dict(self):
        f = free_energy(self)
        return {
            "params": {
                "n": self.n,
                "temperature": self.T,
                "mu": list(self.mu),
                "J": self.J,
            },
            "grid": {"half_width": self.grid.half_width, "points": self.grid.points},
            "logb": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.logb
            ],
            "asymptote": [
                [float(v.real), float(v.imag)] for v in self.logb_inf
            ],
            "iterations": self.iterations,
            "residual": self.residual,
            "f": f,
        }


# ----------------------------------------------------------------------
# cached grid-sampled system data

class _GridSystem:
    def __init__(self, n, grid):
        self.n = n
        self.grid = grid
        sys = kernel_system(n)
        self.sys = sys
        M = grid.points
        k = grid.k[: M // 2 + 1]  # modes 0..M/2, the Nyquist one at -pi/dx
        # matrix() fills a mode-major buffer; this is that buffer, not a copy
        self.Kmat = _remove_images(
            np.ascontiguousarray(sys.matrix(k).transpose(2, 0, 1)), grid
        )  # (M/2+1, F, F)
        self.K0 = sys.matrix0()
        # the weights d-hat(-k_m)/M of _ell on all M modes; d-hat is analytic
        # at k = 0 (a ratio of sinh), so it has no algebraic tail and no
        # periodic images to remove
        self.ell_weights = sys.driving_hat(-grid.k) / M
        self.d0 = sys.driving0()
        # position-space driving d(x) = int e^{ikx} d-hat(k) dk on the half;
        # unlike the convolutions this inverse transform carries no 1/2pi
        # (pinned by the exact high-temperature slope f + T log n -> J/n),
        # and e^{-ik_m L} = (-1)^m keeps the spectrum real
        phase = (-1.0) ** np.arange(M)
        dhat = sys.driving_hat(grid.k)
        self.d_x = 2.0 * np.pi * np.fft.ihfft(dhat * phase, axis=1) / grid.dx
        # (logb_inf.tobytes(), map): the preconditioning map last built on
        # this grid and its asymptote, kept by _asymptote_preconditioner
        self.kept = None
        self.kept_lock = threading.Lock()


_grid_lock = threading.Lock()


@lru_cache(maxsize=8)
def _cached_grid_system(n, half_width, points):
    return _GridSystem(n, Grid(half_width=half_width, points=points))


def _grid_system(n, half_width, points):
    """The cached _GridSystem, built under a lock: the points of a sweep
    that start together on a new grid share one, and its preconditioner."""
    with _grid_lock:
        return _cached_grid_system(n, half_width, points)


# Periodic images are removed through tail order X^-(_TAIL_ORDERS+1); the
# one-sided coefficients come from interpolating _FIT_SAMPLES samples on
# either side of k = 0 (degree _FIT_SAMPLES - 1).
_TAIL_ORDERS = 3
_FIT_SAMPLES = 9


@lru_cache(maxsize=8)
def _image_basis(points, half_width):
    """The per-grid pieces of _remove_images: (basis (M, P), fit (P, 2N)).

    fit maps the samples at k = 0, +dk, ..., +(N-1)dk followed by those at
    k = 0, -dk, ..., -(N-1)dk to the kink jumps da_p = a_p^+ - a_p^- of
    the one-sided expansions K-hat(k) = sum_p a_p^+- k^p, p = 1..P.
    Column p-1 of basis is the grid transform of the images that a unit
    da_p leaves, (p!/2pi) i^{p+1} fft(dx S_{p+1}), with
    S_q(u) = (2L)^-q [zeta(q, 1 + u/2L) + (-1)^q zeta(q, 1 - u/2L)]
    = sum_{n != 0} (u + 2nL)^-q over the circular lags u in [-L, L); the
    lag -L takes the mean of its values at -L and +L.  Both are real and
    read-only."""
    M, L = points, half_width
    dx = 2.0 * L / M
    s = np.fft.fftfreq(M)  # u / 2L on the circular lags, -1/2 at index M/2
    basis = np.empty((M, _TAIL_ORDERS))
    for p in range(1, _TAIL_ORDERS + 1):
        q = p + 1
        S = zeta(q, 1.0 + s) + (-1) ** q * zeta(q, 1.0 - s)
        S[M // 2] = 0.5 * (S[M // 2] + zeta(q, 1.5) + (-1) ** q * zeta(q, 0.5))
        S *= dx / (2.0 * L) ** q
        basis[:, p - 1] = (factorial(p) / (2 * np.pi) * 1j ** q * np.fft.fft(S)).real
    # Taylor coefficients at 0 of the interpolant through t = 0..N-1
    t = np.arange(_FIT_SAMPLES, dtype=float)
    taylor = np.linalg.inv(np.vander(t, increasing=True))
    dk = np.pi / L
    fit = np.empty((_TAIL_ORDERS, 2 * _FIT_SAMPLES))
    for p in range(1, _TAIL_ORDERS + 1):
        # the k < 0 side is sampled at k = -t dk: its t^p coefficient is a_p^- (-dk)^p
        fit[p - 1, :_FIT_SAMPLES] = taylor[p] / dk**p
        fit[p - 1, _FIT_SAMPLES:] = -taylor[p] / (-dk) ** p
    basis.flags.writeable = fit.flags.writeable = False
    return basis, fit


def _remove_images(khat, grid):
    """Correct a half kernel table, in place, for the periodic images.

    khat: C-contiguous (M/2+1, F, F), the samples at the modes 0..M/2 of
    grid.k of a table with K-hat(-k) = K-hat(k)^T, whose modes M-m are the
    transposes (as in _contract); the correction keeps that symmetry, so
    only khat is corrected.  The circular FFT convolution with khat uses
    the kernel sum_n K(u + 2nL) on the lags u in [-L, L); subtracting the
    transform of the image sum R(u) = sum_{n != 0} K(u + 2nL) leaves K
    itself, so _convolve computes the linear convolution over the window.
    R comes from the algebraic tail
    K(X) ~ sum_p (p!/2pi) [a_p^+ (-iX)^{-p-1} + (-1)^p a_p^- (iX)^{-p-1}],
    p = 1..3 (through X^-4), with the one-sided coefficients fitted to the
    samples themselves at k = 0 (those at k = -t dk read as khat[t]^T); the
    analytic part of K-hat (a_p^+ = a_p^-) leaves no tail.  This assumes
    K-hat is smooth away from k = 0 and analytic on either side within the
    N dk of the fit.  Measured on a Gaussian input (integral 3.4) against
    quadrature of the real-line integral, worst over every distinct entry
    of n = 4 and 5: 1.9e-9 at L = 40 and 4.9e-12 at L = 100 (the images
    were 3.4e-4 and 5.4e-5).  The error left is the truncated tail, 1/X^5
    and beyond, and it grows as the window shrinks (up to 5.6e-5 at L = 10
    on the entries tried).  Returns khat."""
    M = grid.points
    if M < 2 * _FIT_SAMPLES:
        raise DomainError(
            f"the image correction needs at least {2 * _FIT_SAMPLES} grid points"
        )
    basis, fit = _image_basis(M, grid.half_width)
    half = len(khat)
    flat = khat.reshape(half, -1)
    N = _FIT_SAMPLES
    mirrored = khat[1:N].swapaxes(1, 2).reshape(N - 1, -1)
    samples = np.concatenate([flat[:N], flat[:1], mirrored])
    jumps = fit @ samples  # (P, entries)
    chunk = 256
    for start in range(0, half, chunk):
        stop = min(start + chunk, half)
        flat[start:stop] -= basis[start:stop] @ jumps
    return khat


# Modes per block of _contract: a block of an n = 5 table (30 x 30) is
# 0.9 MB, so it is still in cache when the mirrored modes read it.
_CONTRACT_BLOCK = 128


def _contract(table, ghat):
    """Per-mode product out[:, m] = T(k_m) ghat[:, m] of a half table with a
    real spectrum, on all M modes.

    table: real (M/2+1, F, F), T(k_m) for the modes m = 0..M/2 of a table
    with T(-k) = T(k)^T, so a mode M-m, m = 1..M/2-1, applies table[m]^T.
    ghat: real (F, M).  The table is read in blocks of _CONTRACT_BLOCK
    modes, each serving both signs of k, by real batched matmuls.  Returns
    real (F, M)."""
    half, F, _ = table.shape
    M = ghat.shape[1]
    out = np.empty((M, F))
    plus = np.ascontiguousarray(ghat[:, :half].T)[:, :, None]  # (M/2+1, F, 1)
    minus = np.ascontiguousarray(ghat[:, : M // 2: -1].T)[:, None, :]  # mode M-m at m-1
    out_plus = out[:half, :, None]
    out_minus = np.empty((half - 2, 1, F))
    for start in range(0, half, _CONTRACT_BLOCK):
        stop = min(start + _CONTRACT_BLOCK, half)
        np.matmul(table[start:stop], plus[start:stop], out=out_plus[start:stop])
        lo, hi = max(start, 1), min(stop, half - 1)
        if lo < hi:
            np.matmul(minus[lo - 1: hi - 1], table[lo:hi], out=out_minus[lo - 1: hi - 1])
    out[: M // 2: -1] = out_minus[:, 0]
    return out.T


def _log1p_exp(z):
    """log(1 + e^z), principal branch, for complex z in real arithmetic.

    With a = Re z, b = Im z and s = e^{-|a|} (so nothing overflows),
    1 + e^z = e^{max(a, 0)} (x + iy) with x = t cos b + u, y = t sin b,
    where (t, u) = (1, s) for a > 0 and (s, 1) otherwise, and
    |x + iy|^2 = 1 + s (2 cos b + s).  log1p of that keeps small s exact;
    near a zero of 1 + e^z, where it cancels, x^2 + y^2 is used instead."""
    a = z.real
    b = z.imag
    c = np.cos(b)
    s = np.exp(-np.abs(a))
    pos = a > 0
    t = np.where(pos, 1.0, s)
    x = t * c + np.where(pos, s, 1.0)
    y = t * np.sin(b)
    out = np.empty_like(z, dtype=complex)
    re = out.real
    np.log1p(s * (2.0 * c + s), out=re)
    q = x * x + y * y
    np.log(q, out=re, where=q < 0.5)
    re *= 0.5
    re += np.maximum(a, 0.0)
    np.arctan2(y, x, out=out.imag)
    return out


def _convolve(khat, khat0, g, g_inf):
    """(K * g)(x) on the half space for the half table khat (M/2+1, F, F),
    applied as in _contract, and its zero mode khat0 (F, F).

    g: (F, M/2+1) half-space samples with asymptote g_inf (F,).  The
    decaying part g - g_inf is convolved through its real spectrum,
    contracting per Fourier mode; the constant asymptote contributes
    khat0 . g_inf.  Every mode is used as is, which needs no kernel entry
    to grow in |k| (KernelSystem.max_growth): a growing one would amplify
    the roundoff of the high modes.  Returns (F, M/2+1)."""
    M = 2 * (g.shape[1] - 1)
    ghat = np.fft.hfft(g - g_inf[:, None], n=M, axis=1)
    return np.fft.ihfft(_contract(khat, ghat), axis=1) + (khat0 @ g_inf)[:, None]


def _expand(g):
    """The full grid (F, M) of half-space samples g: g_{M-j} = conj(g_j)."""
    return np.concatenate([g, np.conj(g[:, -2:0:-1])], axis=1)


# The largest edge tail a grid solution may keep: solve_nlie warns above it
# and convolve_with_asymptote raises GridTooSmallError.
_EDGE_TAIL_TOL = 1e-6


def _edge_tail(g):
    """Largest |g| within M/64 points of the window edge, for the decaying
    part g (F, M/2+1) on the half space: how far it is from its asymptote
    there.  The points near x = -L stand for their mirror images near +L."""
    edge = max(1, (g.shape[1] - 1) // 32)
    return float(np.max(np.abs(g[:, : edge + 1])))


def convolve_with_asymptote(n, logB, logB_inf, grid):
    """(K * log B)(x) on the grid for every row of the kernel matrix of
    kernel_system(n).

    logB: (F, M) samples; logB_inf: (F,) asymptotes.  Raises
    GridTooSmallError when the decaying part is above _EDGE_TAIL_TOL at the
    window edge, the threshold at which solve_nlie warns.

    log B need not have the solver's symmetry: it is split as
    log B = P + iQ, P = (log B + conj log B(-x))/2 and
    Q = (log B - conj log B(-x))/2i, both conjugate-symmetric, and each
    part takes the solver's convolution (_convolve) with the solver's own
    kernel table, K's periodic images removed (_remove_images): the tail
    is corrected through X^-4 with coefficients fitted to the samples at
    k = 0, and a Gaussian input matches quadrature of the real-line
    integral to 1.1e-10 at L = 40 for entry [0, 1] of kernel_system(4)
    (2e-9 over all entries).  The asymptote takes K-hat(0).  Returns
    (F, M) complex.
    """
    logB, logB_inf = np.asarray(logB), np.asarray(logB_inf)
    M = grid.points
    mirror = -np.arange(M // 2 + 1) % M  # the point -x_j of each x_j <= 0
    g = np.abs(logB - logB_inf[:, None])
    tail = _edge_tail(np.maximum(g[:, : M // 2 + 1], g[:, mirror]))
    if tail > _EDGE_TAIL_TOL:
        raise GridTooSmallError(tail, _EDGE_TAIL_TOL)
    gsys = _grid_system(n, grid.half_width, M)
    left, flip = logB[:, : M // 2 + 1], np.conj(logB[:, mirror])
    P = _convolve(gsys.Kmat, gsys.K0, (left + flip) / 2, logB_inf.real)
    Q = _convolve(gsys.Kmat, gsys.K0, (left - flip) / 2j, logB_inf.imag)
    return _expand(P) + 1j * _expand(Q)


# ----------------------------------------------------------------------

# Modes per block of the preconditioner's inverse.
_INVERSE_CHUNK = 256
# Anderson mixing keeps the last _MIX_DEPTH differences; a scaled Gram
# eigenvalue below _MIX_RCOND of the largest is dropped.
_MIX_DEPTH = 2
_MIX_RCOND = 1e-10


def _preconditioner(Kmat, W):
    """The half table P(k) = W A(k)^-1 of the modes 0..M/2 (the shape of
    Kmat), where A(k) = I + K-hat(k) diag(W) is the map's linearization at
    the asymptote and W = b/(1+b) there lies in (0, 1).

    P(k) = (W^-1 + K-hat(k))^-1, so K-hat(-k) = K-hat(k)^T gives
    P(-k) = P(k)^T: _contract applies P on every mode, and W^-1 P gives
    A(k)^-1 on the modes 0..M/2 and A(-k)^-1 = W^-1 (A(k)^-1)^T W on
    their partners (_precondition); the mirror needs no table of its own.
    The Nyquist mode is inverted as sampled.  A is inverted in blocks of
    _INVERSE_CHUNK modes, so that no temporary approaches the size of the
    result, and its rows are scaled by W in place."""
    eye = np.eye(len(W))
    P = np.empty_like(Kmat)
    for start in range(0, len(Kmat), _INVERSE_CHUNK):
        block = P[start: start + _INVERSE_CHUNK]
        block[...] = np.linalg.inv(Kmat[start: start + _INVERSE_CHUNK] * W + eye)
        block *= W[:, None]
    return P


def _precondition(P, W, v):
    """A^-1 v for a half-space grid vector v (F, M/2+1), mode by mode:
    W^-1 (P * v) with the table P of _preconditioner."""
    M = 2 * (v.shape[1] - 1)
    out = np.fft.ihfft(_contract(P, np.fft.hfft(v, n=M, axis=1)), axis=1)
    out /= W[:, None]
    return out


def _asymptote_preconditioner(gsys, logb_inf):
    """The preconditioning map v -> A^-1 v (_precondition) at W = b/(1+b)
    of the asymptote logb_inf, and whether this call built it.

    gsys keeps the last map built on its grid, in one slot keyed by
    logb_inf.  At mu = 0 the asymptote is that of the counting values,
    the same at every T, so one inverse serves every solve of the grid;
    another asymptote replaces the map.  The slot is emptied before the
    replacement is built, so the grid never keeps two tables, and it is
    locked while read or rebuilt, so threads that need the same map build
    it once."""
    key = logb_inf.tobytes()
    with gsys.kept_lock:
        if gsys.kept is not None and gsys.kept[0] == key:
            return gsys.kept[1], False
        gsys.kept = None
        W = np.exp(logb_inf) / (1.0 + np.exp(logb_inf))
        precondition = partial(_precondition, _preconditioner(gsys.Kmat, W), W)
        gsys.kept = (key, precondition)
    return precondition, True


def _mixing_coefficients(gram, rhs):
    """gamma minimizing |r - dR gamma| from the Gram matrix dR^T dR and
    rhs = dR^T r.  The columns are scaled to unit norm first, and
    directions whose scaled Gram eigenvalue falls below _MIX_RCOND of the
    largest (near-parallel differences) are dropped, so that a degenerate
    history gives a bounded step."""
    d = np.sqrt(np.diag(gram))
    d[d == 0] = 1.0
    gamma = np.linalg.lstsq(gram / np.outer(d, d), rhs / d, rcond=_MIX_RCOND)[0]
    return gamma / d


def _iterate(step, x, precondition, reset, theta, tol, max_iter):
    """Anderson-mixed preconditioned iteration for the fixed point x = step(x).

    With the preconditioned residual r = precondition(step(x) - x), the
    mixing weight beta = 1 - theta, and the differences dX, dR of the last
    _MIX_DEPTH iterates and of their r, each step moves to

        x + beta r - (dX + beta dR) gamma,    gamma = argmin |r - dR gamma|,

    the Anderson update (Walker & Ni, SIAM J. Numer. Anal. 49 (2011) 1715)
    of the Richardson step x + beta r; with no history it is that step.
    The grid vectors (for the solver, the half space) are read as real
    vectors (real and imaginary parts side by side), so gamma is real.
    The differences live in a ring of _MIX_DEPTH + 1 slots per kind,
    updated in place: the newest slot holds the last step and the last r
    until the next r turns them into differences, and one row of the small
    Gram matrix dR^T dR is renewed per step.

    x is the complex start and is updated in place; step(x) must return a
    new array.  Stops once the residual max|step(x) - x| is below tol.
    Raises ConvergenceError on NaNs, on running out of max_iter steps, or
    on sustained residual growth after one automatic restart from reset
    with theta = 0.5, which also clears the history.  Returns (x,
    iterations, residual, theta, restarts, residual history); the count
    and history include the steps before a restart."""
    slots = _MIX_DEPTH + 1
    dX = np.zeros((slots,) + x.shape, dtype=complex)
    dR = np.zeros_like(dX)
    flat_dR = dR.reshape(slots, -1).view(np.float64)
    gram = np.zeros((slots, slots))
    newest, depth, pending = 0, 0, False
    residual = np.inf
    history = []
    restarts = 0
    since = 0  # history index at which the current damping took over
    for it in range(1, max_iter + 1):
        diff = step(x)
        diff -= x
        residual = float(np.max(np.abs(diff)))
        history.append(residual)
        if not np.isfinite(residual):
            raise ConvergenceError(
                "NaN encountered in NLIE iteration", residual=residual, iterations=it
            )
        # the oldest slot leaves the history and takes this step's r
        nxt = (newest + 1) % slots
        r = dR[nxt]
        r[...] = precondition(diff)
        if pending:
            np.subtract(r, dR[newest], out=dR[newest])
            gram[newest] = gram[:, newest] = flat_dR @ flat_dR[newest]
            depth = min(depth + 1, _MIX_DEPTH)
        beta = 1.0 - theta
        upd = np.multiply(r, beta, out=dX[nxt])
        if depth:
            use = [(newest - i) % slots for i in range(depth)]
            rhs = (flat_dR @ flat_dR[nxt])[use]
            gamma = _mixing_coefficients(gram[np.ix_(use, use)], rhs)
            for g, i in zip(gamma, use):
                upd -= g * dX[i]
                upd -= (g * beta) * dR[i]
        x += upd
        newest, pending = nxt, True
        if residual < tol:
            return x, it, residual, theta, restarts, history
        if len(history) - since > 12 and all(
            history[-i] > history[-i - 1] for i in range(1, 11)
        ):
            if restarts == 0 and theta < 0.5:
                log.info("residual growing; restarting with damping 0.5")
                theta = 0.5
                restarts += 1
                since = len(history)
                x[...] = reset
                depth, pending = 0, False
            else:
                raise ConvergenceError(
                    "NLIE iteration diverging; a larger damping may help",
                    residual=residual,
                    iterations=it,
                )
    raise ConvergenceError(
        "NLIE iteration did not reach tolerance",
        residual=residual,
        iterations=max_iter,
    )


def asymptotic_constants(n, T, mu=None):
    """log b(+-inf) from the weighted counting limits, cross-checked against
    the constant fixed-point equation log binf = -c - K-hat(0) log Binf
    (InconsistencyError beyond 1e-10)."""
    if n not in (4, 5):
        raise DomainError("NLIE systems are tabulated for n in {4, 5}")
    if mu is None:
        mu = (0.0,) * n
    beta = 1.0 / T
    binf, Binf = counting_values(n, beta=beta, mu=mu)
    logb_inf = np.log(binf)
    logB_inf = np.log(Binf)
    sys = kernel_system(n)
    c = sys.constants(mu, beta)
    resid = np.max(np.abs(logb_inf + c + sys.matrix0() @ logB_inf))
    if resid > 1e-10:
        raise InconsistencyError(
            f"asymptotic fixed-point equation violated by {resid:.3e}; "
            "kernel/constant transcription inconsistent"
        )
    return logb_inf, logB_inf


def solve_nlie(
    n,
    T,
    mu=None,
    J=1.0,
    grid=None,
    damping=0.0,
    tol=1e-12,
    max_iter=2000,
    logb0=None,
):
    """Solve the NLIE for log b from the linearized start (or logb0).

    The iteration is _iterate on the map log b -> -(c + beta J d) - K*log B:
    the step of that map, preconditioned by the exact linearization at the
    asymptote and weighted by 1 - damping, is Anderson-mixed with the last
    two steps, until max|map(log b) - log b| < tol.  Returns a converged
    NlieState; raises ConvergenceError on NaNs or on sustained residual
    growth (after one automatic retry with damping 0.5).  iterations and
    residual_history count every step, those before the retry included,
    and max_iter bounds their total.  diagnostics records whether the
    preconditioner was built for this solve (preconditioner_built) or was
    the one its grid kept (_asymptote_preconditioner).
    """
    return _solve_nlie(n, T, mu=mu, J=J, grid=grid, damping=damping, tol=tol,
                       max_iter=max_iter, logb0=logb0)[0]


def _solve_nlie(n, T, mu=None, J=1.0, grid=None, damping=0.0, tol=1e-12,
                max_iter=2000, logb0=None):
    """solve_nlie, returning (state, the preconditioning map it took)."""
    if T <= 0:
        raise DomainError("temperature must be positive")
    if mu is None:
        mu = (0.0,) * n
    mu = tuple(float(v) for v in mu)
    beta = 1.0 / T
    if J < 0:
        warnings.warn(
            "J < 0 lies outside the regime of the eigenvalue reconstruction",
            stacklevel=3,
        )
    if max(abs(beta * v) for v in mu) > 1.0:
        warnings.warn(
            "analyticity strips were established at mu = 0; "
            f"|beta*mu| = {max(abs(beta * v) for v in mu):.2f} is large",
            stacklevel=3,
        )
    if grid is None:
        grid = default_grid(T)
    gsys = _grid_system(n, grid.half_width, grid.points)
    logb_inf, logB_inf = asymptotic_constants(n, T, mu)
    c = gsys.sys.constants(mu, beta)
    drive = c[:, None] + beta * J * gsys.d_x

    # the step is preconditioned by the exact linearization at the
    # asymptote: per Fourier mode, A^-1 = (I + K-hat W)^-1 applied to it
    t_setup = time.perf_counter()
    precondition, built = _asymptote_preconditioner(gsys, logb_inf)
    if logb0 is not None:
        # the half x <= 0; the symmetry makes log b real at x = -L and 0
        logb = np.array(np.asarray(logb0)[:, : grid.points // 2 + 1], dtype=complex)
        logb.imag[:, [0, -1]] = 0.0
    else:
        # the NLIE linearized at the asymptote, log b = log binf + u and
        # log B ~ log Binf + W u, solves exactly as u = -beta J A^-1 d
        logb = logb_inf[:, None] - beta * J * precondition(gsys.d_x)
    t_iterate = time.perf_counter()

    def step(logb):
        return -(drive + _convolve(gsys.Kmat, gsys.K0, _log1p_exp(logb), logB_inf))

    logb, it, residual, theta, restarts, history = _iterate(
        step, logb, precondition, logb_inf[:, None], damping, tol, max_iter
    )

    t_done = time.perf_counter()
    tail = _edge_tail(_log1p_exp(logb) - logB_inf[:, None])
    if tail > _EDGE_TAIL_TOL:
        warnings.warn(
            f"asymptote tail {tail:.2e} at the window edge; widen the grid",
            stacklevel=3,
        )
    asym_resid = float(np.max(np.abs(logb_inf + c + gsys.K0 @ logB_inf)))
    state = NlieState(
        n=n,
        T=float(T),
        mu=mu,
        J=float(J),
        grid=grid,
        logb=_expand(logb),
        logb_inf=logb_inf,
        logB_inf=logB_inf,
        iterations=it,
        residual=residual,
        damping=theta,
        diagnostics={
            "edge_tail": tail,
            "asymptote_equation_residual": asym_resid,
            "restarts": restarts,
            "residual_history": history,
            "setup_s": t_iterate - t_setup,
            "iterate_s": t_done - t_iterate,
            "preconditioner_built": built,
        },
    )
    return state, precondition


def gamma_term(n, x):
    """(1/n)[psi(1+ix/n) + psi(1-ix/n) - psi(1/n+ix/n) - psi(1/n-ix/n)]."""
    z = 1j * np.asarray(x, dtype=complex) / n
    val = (
        digamma(1.0 + z)
        + digamma(1.0 - z)
        - digamma(1.0 / n + z)
        - digamma(1.0 / n - z)
    ) / n
    return val.real


def _ell(state, g, g_inf, x=0.0):
    """Re (d^dagger * g)(x) for g on the half space of the grid of state,
    with asymptote g_inf: the functional that carries log Lambda
    (g = log B) and, through the derivatives of log B, its derivatives.

    It is one sum over the M modes k_m of the grid,

        Re sum_m d-hat(-k_m) g-hat(k_m) e^{i k_m (x + L)} / M + d-hat(0) g_inf,

    with g-hat the real spectrum of g - g_inf: the trigonometric
    interpolant of the grid convolution, which it equals at the grid
    points, read at any x (an array too).  k_m L is a multiple of pi, so
    the sum is even in x."""
    gsys = _grid_system(state.n, state.grid.half_width, state.grid.points)
    ghat = np.fft.hfft(g - g_inf[:, None], n=state.grid.points, axis=1)
    amplitude = np.einsum("fm,fm->m", gsys.ell_weights, ghat)
    phase = np.multiply.outer(np.asarray(x) + state.grid.half_width, state.grid.k)
    return np.cos(phase) @ amplitude + gsys.d0 @ g_inf


def log_eigenvalue(state, x=0.0):
    """Re log Lambda_max(x) in the infinite-Trotter normalization, for x
    (a number or an array) in the window [-L, L] of the state's grid;
    DomainError outside it."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > state.grid.half_width):
        raise DomainError(f"x lies outside the window [-{state.grid.half_width}, "
                          f"{state.grid.half_width}] of the solution")
    beta = state.beta
    base = (
        beta * state.J * (gamma_term(state.n, x) - 1.0 / (1.0 + x * x))
        + beta * float(np.mean(state.mu))
    )
    logb = state.logb[:, : state.grid.points // 2 + 1]
    val = base + _ell(state, _log1p_exp(logb), state.logB_inf, x)
    return float(val) if val.ndim == 0 else val


def free_energy(state):
    """f = -T log Lambda_max(0) per lattice site."""
    return -state.T * log_eigenvalue(state, 0.0)


def _tangent_solver(state, tol=1e-12, precondition=None):
    """Solver of the tangent equations of a converged state.

    The derivative u = d log b / d theta along a direction theta of
    (beta, mu) solves the NLIE differentiated once,

        u = -(dc + d(beta J) d(x) + K * (W u + s)),      W = b/(1+b),

    with s = 0, and W u + s is the derivative of log B.  A second
    derivative d2 log b / d theta d phi solves the same equation with
    s = W(1-W) u_theta u_phi and the drive's second derivative, which is
    zero along (beta, beta) and (mu_i, mu_j): c is bilinear in (beta, mu)
    and beta J d(x) linear in beta.  The convolution splits off the
    asymptote as the NLIE's does, with u_inf from the F x F system
    (I + K-hat(0) W_inf) u_inf = -(dc + K-hat(0) s_inf).  Every solve
    takes solve_nlie's iteration (_iterate: the preconditioned, Anderson-
    mixed step and its stop rule) and default step limit, with one
    preconditioner shared by all: precondition, the map that the nonlinear
    solve of state took (_solve_nlie returns it), or else the map of
    state's asymptote that _asymptote_preconditioner keeps or builds.  Like
    the NLIE, the solves run on the half space x <= 0: W, the drives and s
    keep the symmetry, and so do u_theta and every second derivative.

    Returns solve(dc=None, dbetaJ=0, pair=None): dc is the derivative of c
    (F,) and dbetaJ that of beta*J, both zero when left out, and pair =
    (t_theta, t_phi) two of its first-order results for a second
    derivative.  solve returns (u, u_inf, l, (iterations, residual,
    seconds)), where u (F, M/2+1) is on the half space and l is _ell of
    the derivative of log B at x = 0.  It is safe to call from threads."""
    gsys = _grid_system(state.n, state.grid.half_width, state.grid.points)
    logb = state.logb[:, : state.grid.points // 2 + 1]
    W = np.exp(logb - _log1p_exp(logb))
    W_inf = np.exp(state.logb_inf) / (1.0 + np.exp(state.logb_inf))
    if precondition is None:
        precondition = _asymptote_preconditioner(gsys, state.logb_inf)[0]
    A0 = np.eye(len(W_inf)) + gsys.K0 * W_inf

    def solve(dc=None, dbetaJ=0.0, pair=None):
        t0 = time.perf_counter()
        zero = np.zeros(len(W_inf))
        dc = zero if dc is None else dc
        s, s_inf = 0.0, zero
        if pair is not None:
            (u1, u1_inf, *_), (u2, u2_inf, *_) = pair
            s = W * (1.0 - W) * u1 * u2
            s_inf = W_inf * (1.0 - W_inf) * u1_inf * u2_inf
        u_inf = np.linalg.solve(A0, -(dc + gsys.K0 @ s_inf))
        g_inf = W_inf * u_inf + s_inf
        drive = dc[:, None] + dbetaJ * gsys.d_x

        def step(u):
            return -(drive + _convolve(gsys.Kmat, gsys.K0, W * u + s, g_inf))

        u0 = np.zeros_like(W) + u_inf[:, None]
        u, it, residual, *_ = _iterate(
            step, u0, precondition, u_inf[:, None], 0.0, tol, 2000
        )
        ell = float(_ell(state, W * u + s, g_inf))
        return u, u_inf, ell, (it, residual, time.perf_counter() - t0)

    return solve
