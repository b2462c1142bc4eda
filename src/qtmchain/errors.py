"""Exception types shared across the package."""


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
    eigenvalue Lambda(0) is not real and positive.  Carries the rank n,
    the Trotter number N and Lambda(0) (lambda0)."""

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

