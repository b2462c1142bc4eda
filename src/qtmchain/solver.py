"""Damped fixed-point solver for the nonlinear integral equations.

The system solved on a uniform grid over [-L, L) is

    log b(x) = -(c + beta*J*d(x)) - (K * log B)(x),      B = 1 + b,

per auxiliary function, with the kernel matrix and driving term sampled
analytically in Fourier space and the convolution done by FFT after
splitting off the constant large-x asymptote:

    K * log B = K * (log B - log Binf) + K-hat(0) . log Binf.

Conventions: transforms follow g-hat(k) = int e^{-ikx} g(x) dx, so the
asymptote of a convolution is K-hat(0) times the asymptote of the input,
(K * g)(x) = (1/2pi) int e^{ikx} K-hat(k) g-hat(k) dk, and the
position-space driving is d(x) = int e^{ikx} d-hat(k) dk, with no 1/2pi.

Per Fourier mode the kernel matrices are real; they are stored mode-major,
(M, F, F), and applied to complex grid vectors by one real batched matmul
(_modes_matmul).

The largest quantum-transfer-matrix eigenvalue in the infinite-Trotter
limit is reconstructed as

    log Lambda(x) = beta*J*(G_n(x) - 1/(1+x^2)) + beta*mean(mu)
                    + Re (d(x))^dagger * log B,

where G_n is the digamma combination
(1/n)[psi(1+ix/n) + psi(1-ix/n) - psi(1/n+ix/n) - psi(1/n-ix/n)] and the
-beta*J/(1+x^2) piece is the finite remainder of the Phi normalization;
at beta -> 0 this reduces exactly to log sum_j e^{beta mu_j}.
"""

import logging
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import digamma

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
    """Default window: driving decays like exp(-2 pi x / n), but the kernel
    kinks at k = 0 give the solutions slow power-law approach to their
    asymptotes, so the window is kept generous; 6/T widens it once the
    driving itself spreads at low temperature."""
    half = min(max(80.0, 6.0 / T), 200.0)
    return Grid(half_width=half, points=points)


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
        k = grid.k
        # matrix() fills a mode-major buffer; this is that buffer, not a copy
        self.Kmat = np.ascontiguousarray(sys.matrix(k).transpose(2, 0, 1))  # (M, F, F)
        self.K0 = sys.matrix0()
        self.dhat = sys.driving_hat(k)  # (F, M)
        self.dhat_neg = np.ascontiguousarray(sys.driving_hat(-k).T)[:, None, :]
        self.d0 = sys.driving0()
        # position-space driving d(x) = int e^{ikx} d-hat(k) dk; unlike the
        # convolutions this inverse transform carries no 1/2pi (pinned by the
        # exact high-temperature slope f + T log n -> J/n)
        phase = np.exp(-1j * k * grid.half_width)
        self.d_x = 2.0 * np.pi * np.fft.ifft(self.dhat * phase, axis=1) / grid.dx


@lru_cache(maxsize=8)
def _grid_system(n, half_width, points):
    return _GridSystem(n, Grid(half_width=half_width, points=points))


def _modes_matmul(mats, vec):
    """Per-mode product out[r, m] = sum_f mats[m, r, f] vec[f, m].

    mats: real (M, R, F); vec: complex (F, M).  The real and imaginary
    parts ride along as a trailing axis of length 2, so the whole product
    is one real batched matmul.  Returns (R, M) complex."""
    F, M = vec.shape
    pairs = np.ascontiguousarray(vec.T, dtype=complex).view(np.float64)
    prod = np.matmul(mats, pairs.reshape(M, F, 2))  # (M, R, 2)
    return prod.view(complex)[:, :, 0].T


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


def _convolve(khat, khat0, logB, logB_inf):
    """(K * log B)(x) for kernel rows khat (M, R, F) with zero mode khat0 (R, F).

    The decaying part log B - log Binf is convolved by FFT, contracting per
    Fourier mode; the constant asymptote contributes khat0 . log Binf.
    Every mode is used as is, which needs no kernel entry to grow in |k|
    (KernelSystem.max_growth): a growing one would amplify the roundoff of
    the high modes.  Returns (R, M)."""
    ghat = np.fft.fft(logB - logB_inf[:, None], axis=1)
    prod = _modes_matmul(khat, ghat)
    return np.fft.ifft(prod, axis=1) + (khat0 @ logB_inf)[:, None]


def _edge_tail(logB, logB_inf):
    """Largest |log B - log Binf| over the outer 1/64 of the window at
    either edge: how far the decaying part is from its asymptote there."""
    g = logB - logB_inf[:, None]
    edge = max(1, g.shape[1] // 64)
    return float(max(np.max(np.abs(g[:, :edge])), np.max(np.abs(g[:, -edge:]))))


def convolve_with_asymptote(kernel_row_hat, logB, logB_inf, grid, tail_tol=1e-10):
    """(K * log B)(x) for one kernel row sampled on the grid's k values.

    kernel_row_hat: (F, M) real samples of the row's Fourier kernels, as
    every KernelSystem row is (a complex row raises DomainError);
    logB: (F, M) samples; logB_inf: (F,) asymptotes.  Raises
    GridTooSmallError when the decaying part has not reached its asymptote
    at the window edge.
    """
    if np.iscomplexobj(kernel_row_hat):
        raise DomainError("kernel rows are real in Fourier space")
    kernel_row_hat = np.atleast_2d(np.asarray(kernel_row_hat, dtype=float))
    logB = np.atleast_2d(logB)
    logB_inf = np.atleast_1d(logB_inf)
    tail = _edge_tail(logB, logB_inf)
    if tail > tail_tol:
        raise GridTooSmallError(tail, tail_tol)
    k0 = kernel_row_hat[:, 0]  # k-grid starts at k = 0
    return _convolve(kernel_row_hat.T[:, None, :], k0[None], logB, logB_inf)[0]


# ----------------------------------------------------------------------

def _linearized_start(gsys, grid, betaJ, Ainv):
    """Exact solution of the NLIE linearized around the constant asymptote.

    With log b = log binf + u and log B ~ log Binf + W u, W = b/(1+b) at
    the asymptote, the linear system u = -betaJ*d - K*(W u) solves per
    Fourier mode as u-hat = -betaJ (I + K-hat W)^-1 D-hat, given as Ainv
    (shape (M, F, F)).  Used as the iteration start; exact up to
    O((betaJ u)^2)."""
    # plain-transform driving: position d(x) = int e^{ikx} d-hat dk
    Dhat = 2.0 * np.pi * gsys.dhat  # (F, M)
    uhat = -betaJ * _modes_matmul(Ainv, Dhat)
    phase = np.exp(-1j * grid.k * grid.half_width)
    return np.fft.ifft(uhat * phase, axis=1) / grid.dx


def _preconditioner(Kmat, W):
    """A(k)^-1 = (I + K-hat(k) diag(W))^-1 for every mode k, as (M, F, F).

    W = b/(1+b) at the asymptote lies in (0, 1).  K-hat(-k) = K-hat(k)^T on
    the grid, so A(-k) = W^-1 A(k)^T W and A(-k)^-1[i, j] = A(k)^-1[j, i]
    W_j / W_i.  Only modes 0..M/2 are inverted (the Nyquist mode M/2 has no
    partner on the grid); modes M/2+1..M-1 are filled from their partners."""
    half = Kmat.shape[0] // 2
    A = Kmat[: half + 1] * W + np.eye(len(W))
    Ainv = np.empty_like(Kmat)
    Ainv[: half + 1] = np.linalg.inv(A)
    del A
    Ainv[half + 1:] = np.swapaxes(Ainv[half - 1:0:-1], 1, 2) * (W / W[:, None])
    return Ainv


def asymptotic_constants(n, T, mu=None, J=1.0, verify=True, tol=1e-10):
    """log b(+-inf) from the weighted counting limits, cross-checked against
    the constant fixed-point equation log binf = -c - K-hat(0) log Binf."""
    if n not in (4, 5):
        raise DomainError("NLIE systems are tabulated for n in {4, 5}")
    if mu is None:
        mu = (0.0,) * n
    beta = 1.0 / T
    binf, Binf = counting_values(n, beta=beta, mu=mu)
    logb_inf = np.log(binf)
    logB_inf = np.log(Binf)
    if verify:
        sys = kernel_system(n)
        c = sys.constants(mu, beta)
        resid = np.max(np.abs(logb_inf + c + sys.matrix0() @ logB_inf))
        if resid > tol:
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
    """Iterate log b <- (1-theta)[-(c + beta J d) - K*log B] + theta log b.

    Returns a converged NlieState; raises ConvergenceError on NaNs or on
    sustained residual growth (after one automatic retry with theta = 0.5).
    iterations and residual_history count every step, those before the
    retry included, and max_iter bounds their total.
    """
    if T <= 0:
        raise DomainError("temperature must be positive")
    if mu is None:
        mu = (0.0,) * n
    mu = tuple(float(v) for v in mu)
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
    logb_inf, logB_inf = asymptotic_constants(n, T, mu, J)
    c = gsys.sys.constants(mu, beta)
    drive = c[:, None] + beta * J * gsys.d_x

    # Richardson step preconditioned by the exact linearization at the
    # asymptote: per Fourier mode, apply A^-1 = (I + K-hat W)^-1 to the
    # update.  Same fixed point and stopping rule as the bare map, far fewer
    # steps.
    t_setup = time.perf_counter()
    Ainv = _preconditioner(gsys.Kmat, np.exp(logb_inf) / (1.0 + np.exp(logb_inf)))

    def precondition(R):
        return np.fft.ifft(_modes_matmul(Ainv, np.fft.fft(R, axis=1)), axis=1)

    theta = damping
    if logb0 is not None:
        logb = np.array(logb0, dtype=complex)
    else:
        logb = logb_inf[:, None] + _linearized_start(gsys, grid, beta * J, Ainv)
    t_iterate = time.perf_counter()

    residual = np.inf
    history = []
    restarts = 0
    since = 0  # history index at which the current damping took over
    for it in range(1, max_iter + 1):
        logB = _log1p_exp(logb)
        conv = _convolve(gsys.Kmat, gsys.K0, logB, logB_inf)
        new = -(drive + conv)
        residual = float(np.max(np.abs(new - logb)))
        logb = logb + (1.0 - theta) * precondition(new - logb)
        history.append(residual)
        if not np.isfinite(residual):
            raise ConvergenceError(
                "NaN encountered in NLIE iteration", residual=residual, iterations=it
            )
        if residual < tol:
            break
        if len(history) - since > 12 and all(
            history[-i] > history[-i - 1] for i in range(1, 11)
        ):
            if restarts == 0 and theta < 0.5:
                log.info("residual growing; restarting with damping 0.5")
                theta = 0.5
                restarts += 1
                since = len(history)
                logb = np.zeros_like(logb) + logb_inf[:, None]
            else:
                raise ConvergenceError(
                    "NLIE iteration diverging; a larger damping may help",
                    residual=residual,
                    iterations=it,
                )
    else:
        raise ConvergenceError(
            "NLIE iteration did not reach tolerance",
            residual=residual,
            iterations=max_iter,
        )

    t_done = time.perf_counter()
    tail = _edge_tail(_log1p_exp(logb), logB_inf)
    if tail > 1e-6:
        warnings.warn(
            f"asymptote tail {tail:.2e} at the window edge; widen the grid",
            stacklevel=2,
        )
    asym_resid = float(np.max(np.abs(logb_inf + c + gsys.K0 @ logB_inf)))
    return NlieState(
        n=n,
        T=float(T),
        mu=mu,
        J=float(J),
        grid=grid,
        logb=logb,
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
        },
    )


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


def log_eigenvalue(state, x=0.0):
    """Re log Lambda_max(x) in the infinite-Trotter normalization."""
    gsys = _grid_system(state.n, state.grid.half_width, state.grid.points)
    # (d^dagger * log B)(x): its real part carries log Lambda
    conv = _convolve(gsys.dhat_neg, gsys.d0[None], state.logB(), state.logB_inf)[0].real
    xs = state.grid.x
    beta = state.beta
    base = (
        beta * state.J * (gamma_term(state.n, x) - 1.0 / (1.0 + x * x))
        + beta * float(np.mean(state.mu))
    )
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(base + np.interp(float(x), xs, conv))
    return base + np.interp(np.asarray(x, dtype=float), xs, conv)


def free_energy(state):
    """f = -T log Lambda_max(0) per lattice site."""
    return -state.T * log_eigenvalue(state, 0.0)
