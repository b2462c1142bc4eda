"""Exception types shared across the package, and the named argument
checks that every public entry runs before any work.  Each check returns
the value converted (a float, an int, a tuple of floats) and raises
DomainError, naming the argument, on anything outside its domain."""

import math
import operator


class QtmChainError(Exception):
    """Base class for all package errors."""


class DomainError(QtmChainError, ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(QtmChainError, ArithmeticError):
    """Evaluation requested on top of a pole of a q-function.

    Attributes
    ----------
    level : q-function level whose zero was hit.
    argument : complex argument at which |q| fell below the pole threshold.
    root : the offending Bethe root (None for a Phi factor).
    """

    def __init__(self, level, argument, root=None):
        self.level = level
        self.argument = argument
        self.root = root
        what = f"q_{level}" if root is None else f"q_{level} (root {root})"
        super().__init__(f"pole of {what} hit at x = {argument}")


class UnsupportedSubsetError(QtmChainError, ValueError):
    """Vertex subset is not expressible as a range tableau."""


class ConvergenceError(QtmChainError, RuntimeError):
    """Iterative routine failed to converge; carries diagnostics: the last
    residual, the steps taken and, where kept, their residual history and
    the automatic restarts."""

    def __init__(self, message, residual=None, iterations=None, history=None,
                 restarts=None):
        self.residual = residual
        self.iterations = iterations
        self.history = history
        self.restarts = restarts
        super().__init__(message)


class BetheStateError(QtmChainError, RuntimeError):
    """A solved Bethe-root set that is not the dominant state: its
    eigenvalue Lambda(0) is not real and positive, or its free energy is
    off the Trotter law of the smaller N (spectral.solve_bethe_roots).
    Carries the rank n, the Trotter number N and Lambda(0) (lambda0)."""

    def __init__(self, n, N, lambda0):
        self.n = n
        self.N = N
        self.lambda0 = lambda0
        super().__init__(
            f"Bethe roots of n={n}, N={N} are not the dominant state: "
            f"Lambda(0) = {lambda0:.6g}"
        )


class InconsistencyError(QtmChainError, RuntimeError):
    """Cross-check between two independently transcribed quantities failed."""





def _integer(value):
    try:
        return operator.index(value)  # an int, numpy's too; no float
    except TypeError:
        return None


def finite_real(name, value):
    """value as a finite float (J, a beta that may be zero)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    return x


def positive_real(name, value):
    """value as a positive finite float (T, beta, a half width)."""
    if (x := finite_real(name, value)) <= 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return x


def integer_at_least(name, value, m):
    """value as an int >= m (a rank n, a length L, grid points)."""
    if (i := _integer(value)) is None or i < m:
        raise DomainError(f"{name} must be an integer >= {m}, got {value!r}")
    return i


def trotter_number(N, m=2):
    """N as an even int >= m."""
    if (i := _integer(N)) is None or i < m or i % 2:
        raise DomainError(f"Trotter number N must be an even integer >= {m}, got {N!r}")
    return i


def tabulated_rank(n):
    """n as an int in {4, 5}, the ranks whose kernels are tabulated."""
    if (i := _integer(n)) not in (4, 5):
        raise DomainError(f"the NLIE systems are tabulated for n in {{4, 5}}, got {n!r}")
    return i


def finite_vector(name, value, n):
    """value as a tuple of n finite floats (mu); n zeros for None."""
    if value is None:
        return (0.0,) * n
    try:
        xs = tuple(map(float, value))
    except (TypeError, ValueError):
        xs = ()
    if len(xs) != n or not all(map(math.isfinite, xs)):
        raise DomainError(f"expected {n} {name} as finite reals, got {value!r}")
    return xs
