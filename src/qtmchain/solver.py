"""Preconditioned, Anderson-mixed fixed-point solver for the nonlinear
integral equations.

The system is the real-line equation

    log b(x) = -(c + beta*J*d(x)) - (K * log B)(x),      B = 1 + b,

per auxiliary function, solved on a uniform grid over the window [-L, L]
and closed by its far field.  The kernel matrix and the driving term are
sampled analytically in Fourier space and the convolution is done by FFT
after splitting off the constant large-x asymptote:

    K * log B = K * (log B - log Binf) + K-hat(0) . log Binf.

The iteration (_iterate) preconditions the step of this map with an
approximate inverse of its Jacobian I + K W(x), W = b/(1+b), and mixes it
with the last two steps (Anderson mixing); the tangent equations of a
converged state take the same iteration.  The approximate inverse is
v -> v - Q * (W v), with Q(k) = (I + K-hat(k) Winf)^-1 K-hat(k) of the
asymptote per Fourier mode of the preconditioner's grid: the window and
L/8 of pad a side at the window's dx, 9M/8 points, whose pad holds the
far field of W v, fitted as _convolve fits its input (_precondition).  On
the window's own period 2L a point x = -L + j dx near the edge meets the
points L - j' dx at the wrapped lag (j + j') dx, where the closed
operator has them 2L apart; on the padded period no wrapped lag between
two window points is below L/4, and the pad carries the sources just
past the edge.  That edge set the iteration count: over the four sweep-C
points the window's map took 142 iterations and this one 108.  K-hat(k)
tends to an integer matrix K-hat(+inf) as k grows, so K-hat is sampled,
and Q kept as a table, only below the cut past which K-hat lies within
_LIMIT_DEVIATION = 5e-3 of that limit (|k| = 24 at n = 5, 12 at n = 4);
every mode past it takes the one limit Q_inf and its transpose
(_limit_table, _preconditioner).  At W = Winf the map is the exact
inverse of the preconditioner grid's circular operator at the asymptote,
(I + K-hat Winf)^-1 = I - Q Winf, on the table's modes, and within 1e-3
of it past them; where W vanishes it is the identity, the Jacobian's own
inverse there.  The tangent solves take the converged
state's W(x); the nonlinear solve takes Winf until its residual falls
below _STATE_SWITCH, and the current iterate's W(x) from then on, which
at low T, where W(x) nearly vanishes across the centre of the window,
halves the iterations (physics-based preconditioning; Knoll & Keyes,
J. Comput. Phys. 193 (2004) 357).

The closed window.  The decaying part d = log B - log Binf has algebraic
tails: x^-3 at mu = 0 and x^-2 otherwise.  The one convolution routine,
_convolve, therefore runs on a grid padded to [-2L, 2L) at the same dx,
so that every two points of the window meet at their true lag, and fills
the pad with d's far field, sum_p A_p |x|^-p (p = 2, 3), fitted on the
outer half of the window, L/2 <= |x| <= L (_far_field).  What the padded
FFT still misses, the sources past 2L and the pad sources whose lag wraps
on the 4L period, meets the window only at lags of at least L.  There the
kernel is its algebraic tail, and _convolve adds it as one fixed linear
map of the A_p.  How closely the fit carries d is the closure's check:
solve_nlie warns above _TAIL_FIT_TOL.  The padded grid's table is the
convolution's; the preconditioner keeps K-hat on its own grid's modes
below their cut (_GridSystem).

The kernel's tail.  The FFT product is circular: with the plain samples
K-hat(k_m) it would convolve with the periodized kernel sum_n K(u + 4nL).
The kernel transforms are one-sided power series at k = 0 (the |k|
kinks), so K has algebraic tails K(X) ~ sum_q C_q X^-q, q = 2, 3, ..., and
those periodic images do not vanish (up to 3.4e-4 on a table of half-width
40).  Each table is therefore corrected once, at set-up (_remove_images),
so that the FFT convolves with K itself over the lags [-2L, 2L), by the
tail expansion through X^-4, whose coefficients C_q follow exactly from
the kink jumps of K-hat at k = 0 (KernelSystem.jumps); _remove_images gives
the measured accuracy, and the same C_q carry the far field of the window.

Conventions: transforms follow g-hat(k) = int e^{-ikx} g(x) dx, so the
asymptote of a convolution is K-hat(0) times the asymptote of the input,
(K * g)(x) = (1/2pi) int e^{ikx} K-hat(k) g-hat(k) dk, and the
position-space driving is d(x) = int e^{ikx} d-hat(k) dk, with no 1/2pi.

Half space.  The kernel matrices and the driving are real per Fourier
mode, so the solution keeps the symmetry log b(-x) = conj(log b(x)) for
any real mu, and every grid spectrum is real.  The solver therefore works
on the M/2+1 points x_j = -L + j dx, j = 0..M/2 (x <= 0), and reads the
rest of the grid as g_{M-j} = conj(g_j); the iteration, its residual and
its Anderson history all live on that half.  The forward transform, the
Hermitian FFT hfft(g, n=M), is numpy.fft.irfft(conj(g), M, norm="forward"):
it gives the real spectrum on all M modes (the imaginary parts of g at
x = -L and x = 0 are not read).  Its inverse ihfft,
conj(numpy.fft.rfft(c, norm="forward")), brings a real spectrum back to the
half.  Both write into a given array (out=), which lets every step of a
solve run in the solve's one workspace (_Workspace) and allocate no grid
array after its first.  At x = 0 the symmetry makes g real.
x = -L is the seam of the window's spectrum, where the state is held real
as at x = 0; the padded convolution reads Im d there from the far field's
fit, and no fit or check reads the point.  Every kernel table is kept for
the modes m = 0..M/2 of its grid (M points) only, mode-major
(M/2+1, F, F): K-hat(-k) = K-hat(k)^T, so a mode m > M/2 applies the
transpose of mode M-m (_contract).  The Nyquist mode M/2 has no partner
on the grid and is not its own transpose (entries that tend to 2 theta(k)
read 0 at k = -pi/dx against 2 at +pi/dx), so it is stored as sampled, at
k = -pi/dx, and never mirrored.  Every table of the module is of this one
kind; the preconditioner's stops at its cut, and _contract applies its
limit past it.  The state is expanded to the full grid once, when a solve
ends (NlieState.logb stays (F, M)).

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
from .errors import ConvergenceError, DomainError, InconsistencyError
from .errors import finite_real, finite_vector, integer_at_least, positive_real, tabulated_rank
from .kernels import kernel_system

__all__ = [
    "Grid",
    "NlieState",
    "asymptotic_constants",
    "asymptotic_residual",
    "solve_nlie",
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
        # a float width: numpy refuses an int's negative powers (_far_field)
        object.__setattr__(self, "half_width", positive_real("half width", self.half_width))
        m = integer_at_least("grid points", self.points, 8)  # an int, numpy's too
        object.__setattr__(self, "points", m)
        if m & (m - 1):
            raise DomainError(f"grid points must be a power of two, got {m}")

    @property
    def dx(self):
        return 2.0 * self.half_width / self.points

    @property
    def x(self):
        return -self.half_width + self.dx * np.arange(self.points)

    @property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


def default_grid(T):
    """Default window: L = 50 at every T, M = 2048 points (dx = 0.049).

    T is not read; callers pass it so that the rule may depend on it.  The
    window is closed by its far field (_far_field), so L is set by how well
    the closure works, not by how far log B has decayed.  Worst |f - f_ref|
    over the 12 reference cases (n = 4, 5; T = 0.05 to 100), f_ref from
    L = 320, M = 16384 with log B = log Binf outside the window:

        L, M         windowed   closed   closed, fit residual
        100, 4096    1.26e-11   8.5e-14  1.3e-8
        50, 2048     4.1e-10    1.45e-12 1.9e-7
        25, 1024     5.0e-9     2.3e-10  3.9e-6

    50 is the smallest L of these whose error stays near 1e-12; from 50
    to 25 it grows 160-fold, while the fit residual, the solver's check,
    stays below _TAIL_FIT_TOL above T = 0.1.  dx must
    stay: at n = 5, T = 100, dx = 0.0625 (L = 64, M = 2048) costs 1.9e-11,
    and dx = 0.024 (L = 50, M = 4096) changes f by 6e-14.  On this grid
    f at mu != 0 (x^-2 tails) is within 1.8e-12 of L = 320, M = 16384, and
    the n = 5 fit residual stays below _TAIL_FIT_TOL down to T = 0.01."""
    return Grid(half_width=50.0, points=2048)


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
    # the preconditioning map the solve took, for its tangent solves
    precondition: object = field(default=None, repr=False, compare=False)

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
    """Grid-sampled data of one (n, grid), built once (_grid_system) and
    read-only after: Kpad, the convolution's table; Kprec, K-hat on the
    preconditioner's grid below its cut; and precondition, the map of the
    mu = 0 asymptote, the same at every T, which every mu = 0 solve and its
    tangent solves on the grid take."""

    def __init__(self, n, grid):
        self.n = n
        self.grid = grid
        sys = kernel_system(n)
        self.sys = sys
        M = grid.points
        # the convolution runs on the padded grid (2L, 2M); modes 0..M of
        # its half table, the Nyquist one at -pi/dx.  matrix() fills a
        # mode-major buffer; this is that buffer, not a copy
        pad = Grid(half_width=2.0 * grid.half_width, points=2 * M)
        self.Kpad = np.ascontiguousarray(
            sys.matrix(pad.k[: M + 1]).transpose(2, 0, 1)
        )  # (M+1, F, F)
        # the kernel's algebraic tail K(X) ~ sum_q tail[q-2] X^-q, q = 2..4:
        # the images it removes, and the far field of _convolve
        self.tail = _remove_images(self.Kpad, pad, sys.jumps(_TAIL_ORDERS))
        self.K0 = sys.matrix0()
        self.far = _far_field(M, grid.half_width)
        # the preconditioner's grid: the window and L/8 of pad a side at the
        # window's dx, M + 2P points (_precondition); K-hat sampled on its
        # modes below their cut, past which K-hat is its limit K-hat(+inf),
        # exact in integers (_limit_table)
        Mp = M + 2 * self.far.edge.shape[1]
        k = 2.0 * np.pi * np.fft.fftfreq(Mp, grid.dx)[: Mp // 2 + 1]
        self.K_inf = sys.limit()
        self.Kprec = _limit_table(sys, k, self.K_inf)  # (m_c, F, F)
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
        self.precondition = _asymptote_map(self, np.log(counting_values(n)[0]))


_grid_lock = threading.Lock()


@lru_cache(maxsize=8)
def _cached_grid_system(n, half_width, points):
    return _GridSystem(n, Grid(half_width=half_width, points=points))


def _grid_system(n, half_width, points):
    """The cached _GridSystem, built under a lock: the points of a sweep
    that start together on a new grid share one, and its preconditioner."""
    with _grid_lock:
        return _cached_grid_system(n, half_width, points)


# Periodic images are removed through tail order X^-(_TAIL_ORDERS+1)
_TAIL_ORDERS = 3


@lru_cache(maxsize=8)
def _image_basis(points, half_width):
    """The per-grid piece of _remove_images, basis (M, P), real and
    read-only: column p-1 is the grid transform of the images that a unit
    kink jump da_p leaves, (p!/2pi) i^{p+1} fft(dx S_{p+1}), with
    S_q(u) = (2L)^-q [zeta(q, 1 + u/2L) + (-1)^q zeta(q, 1 - u/2L)]
    = sum_{n != 0} (u + 2nL)^-q over the circular lags u in [-L, L); the
    lag -L takes the mean of its values at -L and +L."""
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
    basis.flags.writeable = False
    return basis


def _remove_images(khat, grid, jumps):
    """Correct a half kernel table, in place, for the periodic images.

    khat: C-contiguous (M/2+1, F, F), the samples at the modes 0..M/2 of
    grid.k of a table with K-hat(-k) = K-hat(k)^T, whose modes M-m are the
    transposes (as in _contract); the correction keeps that symmetry, so
    only khat is corrected.  The circular FFT convolution with khat uses
    the kernel sum_n K(u + 2nL) on the lags u in [-L, L); subtracting the
    transform of the image sum R(u) = sum_{n != 0} K(u + 2nL) leaves K
    itself, so _convolve computes the linear convolution over the window.
    R comes from the algebraic tail of K through X^-4,
    K(X) ~ sum_p (p!/2pi) [a_p^+ (-iX)^{-p-1} + (-1)^p a_p^- (iX)^{-p-1}]
    = sum_p (p!/2pi) i^{p+1} da_p X^{-p-1}, p = 1..3, set by the kink
    jumps da_p = a_p^+ - a_p^- of K-hat at k = 0: jumps (P, F, F), exact
    from the kernel's forms (KernelSystem.jumps).  Measured on a Gaussian
    input (integral 3.4) at the grid points nearest x = -3.1, 0 and 2.4
    against quadrature of the real-line integral, worst over every
    position of n = 4 and 5: 7.2e-6 at L = 10 (M = 512), 1.3e-9 at L = 40
    (M = 2048) and 5.1e-12 at L = 100 (M = 4096), where the images were
    5.8e-3, 3.4e-4 and 5.4e-5.  The error left is the truncated tail, 1/X^5
    and beyond, and it grows as the window shrinks.

    Returns the tail coefficients C (P, F, F), complex, of
    K(X) ~ sum_q C[q-2] X^-q, q = p+1 = 2..4, for either sign of X:
    C[p-1] = (p!/2pi) i^{p+1} da_p."""
    basis = _image_basis(grid.points, grid.half_width)[: len(khat)]
    flat, da = khat.reshape(len(khat), -1), jumps.reshape(_TAIL_ORDERS, -1)
    for start in range(0, len(khat), 256):
        flat[start: start + 256] -= basis[start: start + 256] @ da
    p = np.arange(1, _TAIL_ORDERS + 1)  # p! = cumprod(p)
    return (np.cumprod(p) / (2 * np.pi) * 1j ** (p + 1))[:, None, None] * jumps


class _Workspace:
    """The scratch arrays of one solve, by name.

    get(name, shape, dtype) returns a C-contiguous array of that shape over
    the one buffer of the name, made on first use and replaced when a
    larger shape asks for more; so the arrays of one name share memory, and
    a name serves only phases that never overlap:

    - "padded": _convolve's padded input, then the spectrum it reads back;
      _precondition's padded W v, then its result;
    - "spectrum": the Hermitian FFT of either, then _convolve's result once
      _contract has copied the spectrum;
    - "blocks": _contract's copies of its input and its result; before the
      convolution, _log1p_exp's pieces ("mask" holds its masks);
    - "step": a step's output, which holds the step's input to _convolve
      until the convolution has read it.

    A solve makes one, binds it into its step and its preconditioning map,
    and drops it when it ends: after its first step the iteration allocates
    no grid array, and the next step reuses memory that it has already
    touched.  What a step still allocates is numpy's own: the buffers of a
    ufunc over a broadcast or strided operand, at most 8192 elements each.
    Called without a workspace, the routines make a fresh one."""

    def __init__(self):
        self._buffers = {}

    def get(self, name, shape, dtype=float):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


# Modes per block of _contract: a block of an n = 5 table (30 x 30) is
# 0.9 MB, so it is still in cache when the mirrored modes read it.
_CONTRACT_BLOCK = 128


def _contract(table, ghat, ws=None, limit=None):
    """Per-mode product out[:, m] = T(k_m) ghat[:, m] of a half table with a
    real spectrum, on all M modes.

    table: real (m_c, F, F), T(k_m) for the modes m = 0..m_c-1 of a table
    with T(-k) = T(k)^T, so a mode M-m, 0 < m < min(m_c, M/2), applies
    table[m]^T.  ghat: real (F, M).  A table of every mode 0..M/2
    (m_c = M/2+1) holds the Nyquist mode as it is; a shorter one takes
    limit, real (F, F), for the modes m_c..M/2-1 and limit^T for their
    mirrors and the Nyquist mode (_preconditioner), one GEMM per sign of k.
    The table is read in blocks of _CONTRACT_BLOCK modes, each serving both
    signs of k, by real batched matmuls.  The copies of ghat's two halves
    and the result are the "blocks" of ws (a _Workspace).  Returns real
    (F, M), a transposed view of them."""
    cut, F, _ = table.shape
    M = ghat.shape[1]
    low = min(cut, M // 2)  # the modes 1..low-1 are mirrored from the table
    blocks = (ws or _Workspace()).get("blocks", (2 * M, F))
    out, plus, minus = blocks[:M], blocks[M: M + cut], blocks[M + cut: M + cut + low - 1]
    np.copyto(plus, ghat[:, :cut].T)
    np.copyto(minus, ghat[:, : M - low: -1].T)  # mode M-m at m-1
    plus, minus = plus[:, :, None], minus[:, None, :]
    out_plus = out[:cut, :, None]
    out_minus = out[: M - low: -1, None, :]
    for start in range(0, cut, _CONTRACT_BLOCK):
        stop = min(start + _CONTRACT_BLOCK, cut)
        np.matmul(table[start:stop], plus[start:stop], out=out_plus[start:stop])
        lo, hi = max(start, 1), min(stop, low)
        if lo < hi:
            np.matmul(minus[lo - 1: hi - 1], table[lo:hi], out=out_minus[lo - 1: hi - 1])
    if cut <= M // 2:
        # k > 0 past the cut, then the Nyquist mode and the mirrors M-m
        np.matmul(ghat[:, cut: M // 2].T, limit.T, out=out[cut: M // 2])
        np.matmul(ghat[:, M // 2: M - cut + 1].T, limit, out=out[M // 2: M - cut + 1])
    return out.T


def _log1p_exp(z, weight=None, out=None, ws=None):
    """log(1 + e^z), principal branch, for complex z in real arithmetic.

    With a = Re z, b = Im z and s = e^{-|a|} (so nothing overflows),
    1 + e^z = e^{max(a, 0)} (x + iy) with x = t cos b + u, y = t sin b,
    where (t, u) = (1, s) for a > 0 and (s, 1) otherwise, and
    |x + iy|^2 = 1 + s (2 cos b + s).  log1p of that keeps small s exact;
    near a zero of 1 + e^z, where it cancels, x^2 + y^2 is used instead.
    weight, a complex array of z's shape, if given, receives
    W = e^z / (1 + e^z) = (t cos b + iy) / (x + iy) from the same pieces,
    and out, if given, the result.  The real pieces are the "blocks" of ws
    (a _Workspace)."""
    ws = ws or _Workspace()
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    a = z.real
    b = z.imag
    c, s, t, u, x, y, k = ws.get("blocks", (7,) + z.shape)
    pos = np.greater(a, 0, out=ws.get("mask", z.shape, bool))
    np.cos(b, out=c)
    np.exp(np.negative(np.abs(a, out=s), out=s), out=s)
    np.copyto(t, s)
    np.copyto(t, 1.0, where=pos)
    u.fill(1.0)
    np.copyto(u, s, where=pos)
    np.sin(b, out=y)
    y *= t
    tc = np.multiply(t, c, out=t)
    np.add(tc, u, out=x)
    re = out.real
    np.multiply(c, 2.0, out=k)
    k += s
    k *= s
    np.log1p(k, out=re)
    q = np.multiply(x, x, out=c)
    yy = np.multiply(y, y, out=s)
    q += yy
    if weight is not None:
        np.multiply(tc, x, out=k)
        k += yy
        np.divide(k, q, out=weight.real)
        np.divide(np.multiply(y, u, out=k), q, out=weight.imag)
    np.log(q, out=re, where=np.less(q, 0.5, out=pos))
    re *= 0.5
    re += np.maximum(a, 0.0, out=k)
    np.arctan2(y, x, out=out.imag)
    return out


# The far field of a decaying part d = log B - log Binf is fitted on the
# outer half L/2 <= |x| <= L of the window by sum_p A_p |x|^-p over
# _FAR_POWERS; _FAR_NODES Gauss-Legendre nodes integrate it past 2L.
_FAR_POWERS = (2, 3)
_FAR_NODES = 40


@dataclass(frozen=True)
class _FarField:
    """The per-grid pieces of the window's closure (_far_field).  fit, pad
    and H are real numbers held as complex, the type of what _convolve
    multiplies them with, so that no product casts them."""

    fit: np.ndarray  # (M/4, P): d on the fit region -> a
    basis: np.ndarray  # (P, M/4): (L/|x|)^p on the fit region
    scale: np.ndarray  # (P,): L^p, so that A_p = a_p L^p
    pad: np.ndarray  # (P, M/2): (L/|y|)^p on the pad half, y in [-2L, -L)
    edge: np.ndarray  # (P, M/16): pad's last columns, y in [-9L/8, -L)
    H: np.ndarray  # (Q * 2P, M/2+1): the far-field vectors, q-major


@lru_cache(maxsize=8)
def _far_field(points, half_width):
    """The closure of the window [-L, L] of M points by its far field.

    _convolve runs on the padded grid [-2L, 2L) of 2M points.  The window's
    half x_i = -L + i dx, i = 0..M/2, holds the decaying part d; the pad
    half y in [-2L, -L) holds the fit sum_p a_p (L/|y|)^p, and x > 0 the
    conjugates (d(-x) = conj d(x)).  The fit is least squares on the M/4
    points of (-L, -L/2], a fixed pseudo-inverse (fit); it leaves out
    x = -L, the seam of the half space, where d is real (_convolve).  The
    circular convolution then pairs every two points of [-L, L] at their
    true lag, but it misses the sources |y| > 2L, and it pairs a pad source
    with a window point at the wrapped lag u + 4L where the true lag u
    is below -2L (and at -2L itself, where the image-free table holds the
    mean of K(2L) and K(-2L)).  Every such lag is at least L, where the
    kernel is its tail sum_q C_q X^-q (_remove_images), so the difference
    is sum_{q,p} C_q (a_p h^L_qp(x) + conj(a_p) h^R_qp(x)), with the rows
    of H ordered (q; h^L_q2, h^L_q3, h^R_q2, h^R_q3).  It sums:

    - the sources |y| >= 2L of the real-line grid, by Euler-Maclaurin from
      the integral past 2L (Gauss-Legendre in t = 2L/|y|, smooth since
      |x| <= L), its endpoint term and its first-derivative term;
    - less the circular convolution's source y = -2L, which the half
      spectrum reads as the real part, (d(-2L) + d(2L))/2;
    - plus, for the pad sources y in [L, 2L) whose lag wraps, the tail at
      the true lag less the tail at the wrapped one (a correlation).

    The point y = L is the window's; the lag -2L pairs it with x = -L
    alone, and the fit stands for it there.  H agrees with direct sums over
    the grid to 4e-12 relative on the default grid.  edge is the pad's last
    M/16 columns, the pad of the preconditioner's grid (_precondition).
    All arrays are read-only."""
    M, L = points, half_width
    N = M // 2
    dx = 2.0 * L / M
    P = np.array(_FAR_POWERS)
    x = -L + dx * np.arange(N + 1)
    basis = (L / -x[1: N // 2 + 1]) ** P[:, None]
    fit = np.linalg.pinv(basis)
    pad = (N / (M - np.arange(N))) ** P[:, None]  # y = -(M - j) dx, L = N dx

    def circular(lag, q):
        """X^-q at X = lag dx, as the table holds it: the mean of the two
        signs at the lag -M (X = -2L)."""
        mean = (1 + (-1) ** q) / 2 * (2 * L) ** -float(q)
        return np.where(lag == -M, mean, (lag * dx) ** -float(q))

    t, w = np.polynomial.legendre.leggauss(_FAR_NODES)
    t, w = (t + 1) / 2, w / 2
    s0 = 2 * L
    r = np.arange(N)
    # the lags x_i + 2L of the circular source y = -2L, wrapped at x = 0
    lag0 = N + np.arange(N + 1)
    lag0[-1] = -M
    H = np.empty((_TAIL_ORDERS, 2, len(P), N + 1))
    for side, sigma in ((0, 1.0), (1, -1.0)):
        # the sources s = 2L + m dx, m >= 0, at y = -sigma s: Euler-Maclaurin
        # from int_2L^inf (x + sigma s)^-q (L/s)^p ds, in t = 2L/s
        inv = 1.0 / (sigma + x[:, None] * t / s0)  # (N+1, nodes)
        inv_end = 1.0 / (x + sigma * s0)
        power, power_end = inv, inv_end
        for qi, q in enumerate(range(2, _TAIL_ORDERS + 2)):
            power, power_end = power * inv, power_end * inv_end
            b = circular(lag0, q)
            for pi, p in enumerate(P):
                integral = L**p * s0 ** (1 - p - q) * (power @ (w * t ** (p + q - 2)))
                G = power_end * (L / s0) ** p
                dG = (-q * sigma * inv_end - p / s0) * G
                # less half the circular source y = -2L, (a + conj a)/2 there
                H[qi, side, pi] = integral + dx / 2 * G - dx**2 / 12 * dG - dx / 2 * b * 2.0**-p
    for qi, q in enumerate(range(2, _TAIL_ORDERS + 2)):
        # wrapped pad sources y = (N + i + r) dx: the tail at the true lag
        # -M - r less the tail at the wrapped lag M - r (the mean at r = 0)
        e = ((-M - r) * dx) ** -float(q) - circular(np.where(r == 0, -M, M - r), q)
        for pi, p in enumerate(P):
            phi = (N / (N + r)) ** float(p)  # (L/y)^p at y = (N + r) dx
            H[qi, 1, pi, :N] += dx * np.convolve(phi, e[::-1])[N - 1: 2 * N - 1]
    H = H.reshape(-1, N + 1).astype(complex)
    fit, pad = fit.astype(complex), pad.astype(complex)
    scale = float(L) ** P
    for arr in (basis, fit, scale, pad, H):
        arr.flags.writeable = False
    edge = pad[:, N - M // 16:]
    return _FarField(fit=fit, basis=basis, scale=scale, pad=pad, edge=edge, H=H)


def _tail_fit(far, d):
    """(the largest |d - fit| on the fit region, A (F, P)) for a decaying
    part d (F, M/2+1) on the half space: how closely the far field that
    closes the window carries d, and its coefficients A_p of |x|^-p."""
    region = d[:, 1: len(far.fit) + 1]
    a = region @ far.fit
    residual = float(np.max(np.abs(region - a @ far.basis)))
    return residual, a * far.scale


def _convolve(gsys, g, g_inf, ws=None):
    """(K * g)(x) on the window half of gsys, over the real line.

    g: (F, M/2+1) half-space samples with asymptote g_inf (F,).  The
    decaying part d = g - g_inf is continued past the window by its fitted
    far field and convolved on the padded grid through its real spectrum,
    contracting per Fourier mode with the padded table (_contract); the far
    field beyond the pad adds one (F x 12)(12 x M/2+1) product
    (_far_field), and the constant asymptote K-hat(0) . g_inf.  Every mode
    is used as is, which needs no kernel entry to grow in |k|
    (KernelSystem.max_growth): a growing one would amplify the roundoff of
    the high modes.

    x = -L is the seam of the half space, where the window's real spectrum
    holds only Re g, as at x = 0 (which the symmetry makes real): there
    the convolution reads Im d from the fit, sum_p Im a_p, and returns the
    real part alone.

    The convolution takes the "padded", "spectrum" and "blocks" of ws (a
    _Workspace), so g may lie in any other of its buffers.  Returns
    (F, M/2+1), in the "spectrum" of ws."""
    ws = ws or _Workspace()
    far = gsys.far
    F, half = g.shape
    N = half - 1
    # padded holds the conjugate, which the Hermitian FFT transforms: conj d
    # and the far field of its fit, so a = conj a_p
    padded = ws.get("padded", (F, 2 * N + 1), complex)
    d = padded[:, N:]
    np.subtract(g.real, g_inf.real[:, None], out=d.real)
    np.subtract(g_inf.imag[:, None], g.imag, out=d.imag)
    a = d[:, 1: len(far.fit) + 1] @ far.fit
    np.matmul(a, far.pad, out=padded[:, :N])
    d.imag[:, 0] = a.sum(axis=1).imag
    spec = np.fft.irfft(padded, 4 * N, axis=1, norm="forward",
                        out=ws.get("spectrum", (F, 4 * N)))
    np.fft.ihfft(_contract(gsys.Kpad, spec, ws), axis=1, out=padded)
    coef = gsys.tail @ np.concatenate([a.conj(), a], axis=1)  # (3, F, 2P)
    out = np.matmul(np.concatenate(list(coef), axis=1), far.H,
                    out=ws.get("spectrum", (F, half), complex))
    out += padded[:, N:]
    out += (gsys.K0 @ g_inf)[:, None]
    out.imag[:, 0] = 0.0
    return out


def _expand(g):
    """The full grid (F, M) of half-space samples g: g_{M-j} = conj(g_j)."""
    return np.concatenate([g, np.conj(g[:, -2:0:-1])], axis=1)


# The largest fit residual (_tail_fit) of a closed window, above which
# solve_nlie warns.  Measured on the default grid at mu = 0 (n = 5, the
# larger): 1.9e-7 at T = 0.05 and 4.1e-7 at T = 0.01, falling with T to
# 2.6e-10 at T = 100.  L = 25, M = 1024 crosses it at low T (3.9e-6 at
# T = 0.05, where f moves by 5.8e-12).
_TAIL_FIT_TOL = 1e-6


# ----------------------------------------------------------------------

# Modes per block of the preconditioner's table (_preconditioner).
_INVERSE_CHUNK = 256
# Anderson mixing keeps the last _MIX_DEPTH differences; a scaled Gram
# eigenvalue below _MIX_RCOND of the largest is dropped.
_MIX_DEPTH = 2
_MIX_RCOND = 1e-10
# An iteration diverges once its residual exceeds _DIVERGENCE times the
# least one since its damping took over.  The worst such rebound of healthy
# runs is 1.77: 23 nonlinear solves (n = 4, 5; T = 0.005 to 2000; three
# cases with |beta mu| <= 1) and the tangent solves of five chi points;
# 1.77 again over the 36 cells of the extremes matrix (|beta mu| <= 2)
# and four chi points.
_DIVERGENCE = 1e3
# The nonlinear solve preconditions with its iterate's own W(x) once its
# residual max|step(x) - x| is below _STATE_SWITCH, the scale on which
# log(1 + e^z) stops being linear.  Measured at n = 5, T = 0.05, where the
# asymptote's W alone takes 33 iterations: W(x) from the first step on
# diverges (and takes 35 iterations and a restart at T = 0.1), as does a
# switch at 100; one at 10 takes 14, and one anywhere from 1e-3 to 1 takes
# 15 to 18.
_STATE_SWITCH = 1.0


# The preconditioner keeps its table for the modes below the cut m_c of
# its grid, one past the last mode k_m >= 0 where
# max|K-hat(k_m) - K-hat(+inf)| is _LIMIT_DEVIATION or more (_limit_table);
# past it Q is that of the limit.  K-hat reaches its limit like e^{-|k|/4}
# at n = 5 (0.27, 3.7e-2, 5.0e-3 and 6.7e-4 at |k| = 8, 16, 24 and 32) and
# like e^{-|k|/2} at n = 4 (5.0e-3 at |k| = 12), so the default grid's
# preconditioner keeps 430 of its 1153 modes at n = 5 and 215 at n = 4.
# Over the four sweep-C points (n = 5), which take 108 iterations with the
# whole table, 5e-3 and 1e-3 (cut at |k| = 30) take 108, and cuts at
# |k| = 16, 12 and 8 take 111, 115 and 129.
_LIMIT_DEVIATION = 5e-3
# Modes per block in which _limit_table samples K-hat.
_CUT_BLOCK = 64


def _limit_table(sys, k, K_inf):
    """K-hat(k_m) of the kernel system sys, mode-major (m_c, F, F), on the
    modes m = 0..m_c-1 below the cut of the half modes k (0..M/2 of a grid,
    the Nyquist one at -pi/dx) with limit K_inf = K-hat(+inf).  The cut
    m_c is one past the last mode m < M/2 where
    max|K-hat(k_m) - K_inf| >= _LIMIT_DEVIATION, and M/2+1, the whole
    table, where the Nyquist mode departs that far from
    K-hat(-inf) = K_inf^T.  Mode 0 is always kept.  K-hat is sampled in
    blocks of _CUT_BLOCK modes up to the first block that lies within the
    deviation throughout, so only the table and one block are evaluated:
    past its last departure K-hat keeps to its limit."""
    half = len(k)
    if np.max(np.abs(sys.matrix(k[-1:])[:, :, 0] - K_inf.T)) >= _LIMIT_DEVIATION:
        return np.ascontiguousarray(sys.matrix(k).transpose(2, 0, 1))
    blocks, cut = [], 1
    for start in range(0, half - 1, _CUT_BLOCK):
        K = sys.matrix(k[start: min(start + _CUT_BLOCK, half - 1)]).transpose(2, 0, 1)
        far = np.flatnonzero(np.max(np.abs(K - K_inf), axis=(1, 2)) >= _LIMIT_DEVIATION)
        if far.size:
            cut = start + int(far[-1]) + 1
        blocks.append(K[: max(cut - start, 0)])
        if not far.size:
            break
    return np.concatenate(blocks)


def _preconditioner(Kmat, K_inf, W):
    """(Q, Q_inf): the half table Q(k) = A(k)^-1 K-hat(k) of the modes of
    Kmat, a table's modes below its cut (_limit_table), and the limit
    Q_inf = (I + K_inf diag(W))^-1 K_inf, where A(k) = I + K-hat(k) diag(W)
    is the map's linearization at the asymptote, K_inf = K-hat(+inf), and
    W = b/(1+b) there lies in (0, 1).

    Q(-k) = (I + K-hat^T W)^-1 K-hat^T = K-hat^T (I + W K-hat^T)^-1 =
    Q(k)^T, so _contract applies Q on the table's modes and their mirrors,
    Q_inf on the modes k >= 0 past the cut, and Q_inf^T, the Q of
    K-hat(-inf) = K_inf^T, on their mirrors and the Nyquist mode.  On the
    table's modes I - Q(k) W = A(k)^-1, the linearization's inverse
    (_precondition); past the cut I - Q_inf W differs from it by
    A(k)^-1 (K-hat(k) - K_inf) W A_inf^-1, whose entries the deviation
    below _LIMIT_DEVIATION bounds (at most 8.2e-4 on the default grid's
    preconditioner, n = 4 and 5 at mu = 0).  A table of every mode solves
    the Nyquist mode as sampled.  A is solved against K-hat in blocks of
    _INVERSE_CHUNK modes, so that no temporary approaches the size of the
    result."""
    eye = np.eye(len(W))
    Q = np.empty_like(Kmat)
    for start in range(0, len(Kmat), _INVERSE_CHUNK):
        K = Kmat[start: start + _INVERSE_CHUNK]
        Q[start: start + _INVERSE_CHUNK] = np.linalg.solve(K * W + eye, K)
    return Q, np.linalg.solve(K_inf * W + eye, K_inf)


def _precondition(Q, Q_inf, far, W, v, ws=None):
    """v - Q * (W v) for a half-space grid vector v (F, M/2+1) of the
    window, with the weights W, (F, 1) or (F, M/2+1): the approximate
    inverse of the Jacobian I + K W of the map.  The product runs on the
    preconditioner's grid, the window and P = M/16 points (L/8) of pad a
    side at the same dx (M + 2P points), whose half space holds the pad
    [-9L/8, -L) before the window's half.  The pad holds the far field of
    W v, its fit sum_p a_p (L/|y|)^p on the window's (-L, -L/2] (far, the
    window's _FarField, as in _convolve); x = -L is the seam of the
    window's half, where the product reads Im (W v) from the fit and
    returns the real part alone.  Q is the table of the grid's modes below
    its cut and Q_inf the limit past it (_preconditioner), applied mode by
    mode (_contract).  At the asymptote's own W it is the exact inverse
    A^-1 = I - Q W of the preconditioner grid's circular operator on the
    modes of the table, and within the limit's deviation of it past them;
    at W = 0 it is the identity.  The pad lets the edge of the window see
    the closed operator's sources past it: a unit residual at one of the
    first eight points of the window, through the closed Jacobian at Winf
    and this map, comes back with an error whose moduli sum to at most
    0.92 (n = 4) and 2.27 (n = 5) over the half space, where the window's
    own circular map left 1.67 and 2.87.  It takes the "padded",
    "spectrum" and "blocks" of ws (a _Workspace), never the buffer of v,
    and returns a view of its "padded"."""
    ws = ws or _Workspace()
    F, half = v.shape
    P = far.edge.shape[1]
    # padded holds the conjugate, which the Hermitian FFT transforms: conj
    # W v and the far field of its fit, so a = conj a_p
    padded = ws.get("padded", (F, half + P), complex)
    wv = padded[:, P:]
    np.multiply(W, v, out=wv)
    np.conjugate(wv, out=wv)
    a = wv[:, 1: len(far.fit) + 1] @ far.fit
    np.matmul(a, far.edge, out=padded[:, :P])
    wv.imag[:, 0] = a.sum(axis=1).imag
    Mp = 2 * (half + P - 1)
    spec = np.fft.irfft(padded, Mp, axis=1, norm="forward",
                        out=ws.get("spectrum", (F, Mp)))
    out = np.fft.ihfft(_contract(Q, spec, ws, Q_inf), axis=1, out=padded)[:, P:]
    out.imag[:, 0] = 0.0
    return np.subtract(v, out, out=out)


def _asymptote_map(gsys, logb_inf):
    """The preconditioning map (W, v) -> v - Q * (W v) (_precondition) with
    the table Q of the asymptote logb_inf on the grid's modes below their
    cut, its limit past it (_preconditioner) and the window's far field."""
    W = _weight(logb_inf).real
    return partial(_precondition, *_preconditioner(gsys.Kprec, gsys.K_inf, W), gsys.far)


def _weight(logb):
    """W = b/(1+b) = d log B / d log b (_log1p_exp), as a complex array;
    for a real log b its imaginary part is zero."""
    W = np.empty(np.shape(logb), dtype=complex)
    _log1p_exp(logb, weight=W)
    return W


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


def _iterate(step, x, precondition, W, reset, theta, tol, max_iter, state_W=None):
    """Anderson-mixed preconditioned iteration for the fixed point x = step(x).

    With the preconditioned residual r = precondition(W, step(x) - x), the
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

    The preconditioner takes the weights W, unless state_W is given, an
    array that step(x) fills with the iterate's own W(x): from the first
    step whose residual is below _STATE_SWITCH on, it takes state_W, and
    after a restart W again until the residual is below the switch once
    more.

    x is the complex start and is updated in place.  step(x) and
    precondition(W, v) may return an array that they write again at their
    next call (a workspace's); each is used before that call, and step's
    is changed in place.  Stops once the residual max|step(x) - x| is below
    tol.  Raises ConvergenceError on NaNs, on running out of max_iter
    steps, or on divergence after one automatic restart from reset with
    theta = 0.5, which also clears the history; the error carries the
    residual history and restarts.  The iteration diverges when its
    residual exceeds _DIVERGENCE times the least one since its damping
    took over.
    Returns (x, iterations, residual, theta, restarts, residual history,
    the first step preconditioned with state_W, or None); the count and
    history include the steps before a restart."""
    slots = _MIX_DEPTH + 1
    dX = np.zeros((slots,) + x.shape, dtype=complex)
    dR = np.zeros_like(dX)
    flat_dR = dR.reshape(slots, -1).view(np.float64)
    gram = np.zeros((slots, slots))
    absdiff = np.empty(x.shape)
    term = np.empty(x.shape, dtype=complex)  # one term of the Anderson update
    newest, depth, pending = 0, 0, False
    residual = best = np.inf
    history = []
    restarts = 0
    switched, state_from = False, None
    for it in range(1, max_iter + 1):
        diff = step(x)
        diff -= x
        residual = float(np.max(np.abs(diff, out=absdiff)))
        history.append(residual)
        if not np.isfinite(residual):
            raise ConvergenceError(
                "NaN encountered in NLIE iteration", residual=residual,
                iterations=it, history=history, restarts=restarts,
            )
        if state_W is not None and not switched and residual < _STATE_SWITCH:
            switched = True
            state_from = state_from or it
        # the oldest slot leaves the history and takes this step's r
        nxt = (newest + 1) % slots
        r = dR[nxt]
        r[...] = precondition(state_W if switched else W, diff)
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
                upd -= np.multiply(g, dX[i], out=term)
                upd -= np.multiply(g * beta, dR[i], out=term)
        x += upd
        newest, pending = nxt, True
        if residual < tol:
            return x, it, residual, theta, restarts, history, state_from
        best = min(best, residual)
        if residual > _DIVERGENCE * best:
            if restarts == 0 and theta < 0.5:
                log.info("residual growing; restarting with damping 0.5")
                theta = 0.5
                restarts += 1
                best = np.inf
                x[...] = reset
                depth, pending, switched = 0, False, False
            else:
                raise ConvergenceError(
                    "NLIE iteration diverging; a larger damping may help",
                    residual=residual,
                    iterations=it,
                    history=history, restarts=restarts,
                )
    raise ConvergenceError(
        "NLIE iteration did not reach tolerance",
        residual=residual,
        iterations=max_iter,
        history=history, restarts=restarts,
    )


def asymptotic_residual(n, T, mu, logb_inf, logB_inf):
    """max |log binf + c + K-hat(0) log Binf|, the residual of the constant
    fixed-point equation at (T, mu)."""
    sys = kernel_system(n)
    return float(np.max(np.abs(logb_inf + sys.constants(mu, 1.0 / T) + sys.matrix0() @ logB_inf)))


def asymptotic_constants(n, T, mu=None):
    """log b(+-inf) from the weighted counting limits, cross-checked against
    the constant fixed-point equation log binf = -c - K-hat(0) log Binf
    (InconsistencyError beyond 1e-10)."""
    n = tabulated_rank(n)
    T = positive_real("temperature", T)
    mu = finite_vector("chemical potentials", mu, n)
    binf, Binf = counting_values(n, beta=1.0 / T, mu=mu)
    logb_inf = np.log(binf)
    logB_inf = np.log(Binf)
    resid = asymptotic_residual(n, T, mu, logb_inf, logB_inf)
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
):
    """Solve the NLIE for log b from the linearized start.

    The iteration is _iterate on the map log b -> -(c + beta J d) - K*log B,
    K * log B over the real line (_convolve): the step of that map,
    preconditioned and weighted by 1 - damping, is Anderson-mixed with the
    last two steps, until max|map(log b) - log b| < tol.  The
    preconditioner is v -> v - Q * (W v) (_precondition), while W = Winf
    the inverse of the linearization at the asymptote on the
    preconditioner's grid, the window and L/8 of pad a side, on the
    modes below the cut, and that of its large-k limit past it; once
    max|map(log b) - log b| < _STATE_SWITCH it takes the iterate's own
    W(x) = b/(1+b), and after the retry below Winf again until then.
    An n, T, mu or J outside its domain raises DomainError before any
    work.  Returns a converged NlieState; raises ConvergenceError on NaNs
    or on sustained residual growth (after one automatic retry with
    damping 0.5).  iterations and residual_history count every step,
    those before the retry included, and max_iter bounds their total.
    diagnostics records whether the solve built a preconditioner's table
    of its own (preconditioner_built: at mu != 0; at mu = 0 it takes its
    grid's, _GridSystem.precondition); state_preconditioned_from, the first
    step preconditioned with the iterate's own W(x), or None if every step
    took Winf; and the far field that closes the window:
    tail_fit_residual, how closely the fit carries log B - log Binf near
    the edge (a warning above _TAIL_FIT_TOL), and tail_A2, tail_A3, the
    largest |A_2|, |A_3| of the fitted tail sum_p A_p |x|^-p.  The state
    keeps the preconditioning map it took (_tangent_solver takes it over).
    """
    n = tabulated_rank(n)
    T = positive_real("temperature", T)
    mu = finite_vector("chemical potentials", mu, n)
    J = finite_real("J", J)
    beta = 1.0 / T
    if J < 0:
        warnings.warn(
            "J < 0 lies outside the regime of the eigenvalue reconstruction",
            stacklevel=2,
        )
    if max(abs(beta * v) for v in mu) > 1.0:
        warnings.warn(
            "analyticity strips were established at mu = 0; "
            f"|beta*mu| = {max(abs(beta * v) for v in mu):.2f} is large",
            stacklevel=2,
        )
    if grid is None:
        grid = default_grid(T)
    gsys = _grid_system(n, grid.half_width, grid.points)
    logb_inf, logB_inf = asymptotic_constants(n, T, mu)
    c = gsys.sys.constants(mu, beta)

    # the step is preconditioned by the inverse of the linearization at the
    # asymptote, A^-1 = (I + K-hat Winf)^-1 per Fourier mode, until the
    # residual is below _STATE_SWITCH, and by the map at the iterate's own
    # W(x) from then on
    t_setup = time.perf_counter()
    built = any(mu)
    precondition = _asymptote_map(gsys, logb_inf) if built else gsys.precondition
    W_inf = _weight(logb_inf).real[:, None]
    # the NLIE linearized at the asymptote, log b = log binf + u and
    # log B ~ log Binf + W u, solves exactly as u = -beta J A^-1 d
    logb = logb_inf[:, None] - beta * J * precondition(W_inf, gsys.d_x)
    t_iterate = time.perf_counter()

    W = np.empty_like(logb)  # the iterate's own W(x), filled by each step
    ws = _Workspace()

    def step(logb):
        # -(c + beta J d + K * log B), with no drive held through the solve;
        # log B lies in the step's output until the convolution has read it
        out = ws.get("step", logb.shape, complex)
        conv = _convolve(gsys, _log1p_exp(logb, weight=W, out=out, ws=ws), logB_inf, ws)
        conv += c[:, None]
        out = np.multiply(gsys.d_x, beta * J, out=out)
        out += conv
        return np.negative(out, out=out)

    logb, it, residual, theta, restarts, history, state_from = _iterate(
        step, logb, partial(precondition, ws=ws), W_inf, logb_inf[:, None], damping,
        tol, max_iter, state_W=W,
    )

    t_done = time.perf_counter()
    fit, A = _tail_fit(gsys.far, _log1p_exp(logb) - logB_inf[:, None])
    if fit > _TAIL_FIT_TOL:
        warnings.warn(
            f"far-field tail fit misses log B by {fit:.2e} near the window "
            "edge; widen the grid",
            stacklevel=2,
        )
    state = NlieState(
        n=n,
        T=T,
        mu=mu,
        J=J,
        grid=grid,
        logb=_expand(logb),
        logb_inf=logb_inf,
        logB_inf=logB_inf,
        iterations=it,
        residual=residual,
        damping=theta,
        diagnostics={
            "tail_fit_residual": fit,
            "tail_A2": float(np.max(np.abs(A[:, 0]))),
            "tail_A3": float(np.max(np.abs(A[:, 1]))),
            "asymptote_equation_residual": asymptotic_residual(n, T, mu, logb_inf, logB_inf),
            "restarts": restarts,
            "residual_history": history,
            "setup_s": t_iterate - t_setup,
            "iterate_s": t_done - t_iterate,
            "preconditioner_built": built,
            "state_preconditioned_from": state_from,
        },
        precondition=precondition,
    )
    return state


def gamma_term(n, x):
    """(1/n)[psi(1+ix/n) + psi(1-ix/n) - psi(1/n+ix/n) - psi(1/n-ix/n)]."""
    n = integer_at_least("rank n", n, 2)
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
    (a number or an array) in the inner half [-L/2, L/2] of the window of
    the state's grid; DomainError outside it.

    _ell is the window's circular convolution, which the far field does
    not close, so its error grows toward the edge.  Against the same solve
    on L = 200, M = 8192 (the same dx), the worst of four default-grid
    states (n = 4 at T = 1 and at mu != 0, n = 5 at T = 0.1 and at
    |beta mu| = 0.5) was off by 1.1e-11 for |x| <= L/2 = 25, by 7.5e-11
    at x = 40 and by up to 1.1e-5 at x = 49.9."""
    x = np.asarray(x, dtype=float)
    half = state.grid.half_width / 2
    if not np.all(np.abs(x) <= half):
        raise DomainError(f"x lies outside [-{half}, {half}], the inner half of "
                          "the solution's window")
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


def _tangent_solver(state):
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
    mixed step and its stop rule) with its step limit, and stops at
    max(1e-12, 10 eps max|u_inf|): a tangent's residual stalls near
    eps max|u| (measured 1.2-2.3e-16 |u|), u_inf is within 1 % of max|u|
    where it matters, and beyond |u_inf| = 450 (a chi tangent at T = 0.01,
    w_beta,beta at T = 2000 with |beta mu| = 0.1) 1e-12 lies below that
    floor.  One preconditioner serves them all: state.precondition, the
    map that the nonlinear solve of state took, at the converged state's
    own W(x) from the first step on (the operator is
    I + K W, so v -> v - Q * (W v) inverts it exactly where W = 0, and
    where W = Winf, for the preconditioner grid's circular operator, on
    the modes below its cut, within 1e-3 past it; at low T, where W
    nearly vanishes across the centre of the window, u_beta takes 9 steps
    at n = 5, T = 0.05; at T = 100 u_beta and w_beta,beta take 8 and 9).
    Like the NLIE, the
    solves run on the half space x <= 0: W, the drives and s keep the
    symmetry, and so do u_theta and every second derivative.

    Returns solve(dc=None, dbetaJ=0, pair=None): dc is the derivative of c
    (F,) and dbetaJ that of beta*J, both zero when left out, and pair =
    (t_theta, t_phi) two of its first-order results for a second
    derivative.  solve returns (u, u_inf, l, (iterations, residual,
    seconds)), where u (F, M/2+1) is on the half space and l is _ell of
    the derivative of log B at x = 0.  Each call runs in a workspace of
    its own (_Workspace), so it is safe to call from threads."""
    gsys = _grid_system(state.n, state.grid.half_width, state.grid.points)
    logb = state.logb[:, : state.grid.points // 2 + 1]
    W = _weight(logb)
    W_inf = _weight(state.logb_inf).real
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
        ws = _Workspace()

        def step(u):
            # W u + s lies in the step's output until the convolution has read it
            g = np.multiply(W, u, out=ws.get("step", u.shape, complex))
            g += s
            out = np.add(drive, _convolve(gsys, g, g_inf, ws), out=g)
            return np.negative(out, out=out)

        u0 = np.zeros_like(W) + u_inf[:, None]
        tol = max(1e-12, 10 * np.finfo(float).eps * float(np.max(np.abs(u_inf))))
        u, it, residual, *_ = _iterate(
            step, u0, partial(state.precondition, ws=ws), W, u_inf[:, None], 0.0, tol, 2000
        )
        ell = float(_ell(state, W * u + s, g_inf))
        return u, u_inf, ell, (it, residual, time.perf_counter() - t0)

    return solve
