"""Eigenvalue functions, q-functions and range-filled Young tableaux.

A single box carrying species j at spectral parameter x evaluates to

    lambda_j(x) = Phi_-(x) Phi_+(x) * q_{j-1}(x-i)/q_{j-1}(x)
                                    * q_j(x+i)/q_j(x) * exp(beta*mu_j),

with q_0 = Phi_-, q_n = Phi_+ and Phi_pm(x) = (x pm i*tau)^(N/2).  A
rectangular a x s tableau at base parameter x is the product of its boxes,
the box in row r (from the top) and column m sitting at

    x + i*(r - a/2) - i*(m - s/2),

summed over all fillings that increase weakly along rows and strictly down
columns.  Cells may carry index ranges [lo, hi]; the sum then runs over all
admissible fillings with each cell inside its range.  It is evaluated
column by column: a column's states are its strictly increasing fillings,
D_c is the diagonal of their box products and C_{c,c+1} the 0/1 transfer
between states whose rows weakly increase, so the sum is
1^T D_1 C_12 D_2 ... D_s 1.

All types are immutable and every evaluation is a pure function, so
everything here is safe to call concurrently.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "RootData",
    "RangeTableau",
    "EvalContext",
    "eval_q",
    "eval_lambda",
    "eval_range_tableau",
    "eval_range_tableau_naive",
    "fused_eigenvalue",
    "check_functional_relation",
    "conjugate_data",
    "conjugate_tableau",
]

# |q| below POLE_SCALE*(1 + |x|^deg) counts as sitting on a zero of q.
POLE_SCALE = 1e-13


def _as_complex_tuple(seq):
    return tuple(complex(z) for z in seq)


@dataclass(frozen=True)
class RootData:
    """Complete spectral input: rank, Trotter data and Bethe roots.

    roots holds n-1 levels; q_0 and q_n are never stored, they are the
    Phi factors by definition.  N must be even so that the exponent N/2
    of Phi_pm is integral.
    """

    n: int
    N: int
    tau: float
    mu: tuple
    beta: float
    roots: tuple

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"rank n must be >= 2, got {self.n}")
        if self.N < 0 or self.N % 2:
            raise DomainError(f"Trotter number must be even and >= 0, got {self.N}")
        if len(self.mu) != self.n:
            raise DomainError(f"expected {self.n} chemical potentials, got {len(self.mu)}")
        if len(self.roots) != self.n - 1:
            raise DomainError(
                f"expected {self.n - 1} root levels, got {len(self.roots)}"
            )
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        object.__setattr__(
            self, "roots", tuple(_as_complex_tuple(level) for level in self.roots)
        )

    @classmethod
    def free(cls, n, beta=0.0, mu=None):
        """Root-free data with N=0: every tableau reduces to a weighted count."""
        if mu is None:
            mu = (0.0,) * n
        return cls(n=n, N=0, tau=0.0, mu=tuple(mu), beta=beta, roots=((),) * (n - 1))

    def m(self, level):
        """Number of Bethe roots at a level (N/2 exponent for the Phi levels)."""
        if level in (0, self.n):
            return self.N // 2
        return len(self.roots[level - 1])


def eval_q(data, level, x):
    """q_level(x): Phi_- for level 0, Phi_+ for level n, root product otherwise."""
    if not 0 <= level <= data.n:
        raise DomainError(f"q level must lie in 0..{data.n}, got {level}")
    x = complex(x)
    if level == 0:
        return (x - 1j * data.tau) ** (data.N // 2)
    if level == data.n:
        return (x + 1j * data.tau) ** (data.N // 2)
    val = 1.0 + 0.0j
    for r in data.roots[level - 1]:
        val *= x - r
    return val


def _q_checked(data, level, x, cache=None):
    """q_level(x) with the pole guard |q| >= POLE_SCALE*(1+|x|^deg)."""
    key = (level, x)
    if cache is not None and key in cache:
        return cache[key]
    val = eval_q(data, level, x)
    deg = data.m(level)
    if abs(val) < POLE_SCALE * (1.0 + abs(x) ** deg):
        root = None
        if 0 < level < data.n:
            root = min(data.roots[level - 1], key=lambda r: abs(x - r))
        raise PoleError(level, x, root)
    if cache is not None:
        cache[key] = val
    return val


def eval_lambda(data, species, x, ctx=None):
    """Single-box eigenvalue function lambda_species(x)."""
    if not 1 <= species <= data.n:
        raise DomainError(f"species must lie in 1..{data.n}, got {species}")
    if ctx is not None:
        return ctx.lambda_vector(complex(x))[species]
    return _lambda_scalar(data, species, complex(x), None)


def _lambda_scalar(data, species, x, qcache):
    j = species
    phim = (x - 1j * data.tau) ** (data.N // 2)
    phip = (x + 1j * data.tau) ** (data.N // 2)
    val = phim * phip * np.exp(data.beta * data.mu[j - 1])
    val *= eval_q(data, j - 1, x - 1j) / _q_checked(data, j - 1, x, qcache)
    val *= eval_q(data, j, x + 1j) / _q_checked(data, j, x, qcache)
    return val


class EvalContext:
    """Box-value cache shared between tableau evaluations at common data.

    Box values are memoized per shifted argument, one lambda vector over
    all species; a tableau sum over fillings takes, for each column, the
    products of these values over its states' rows.  All tableau shifts
    are half-integer multiples of i, hence exact in binary floating point
    and safe to use as dictionary keys.
    """

    def __init__(self, data):
        self.data = data
        self._qcache = {}
        self._lamcache = {}

    def lambda_vector(self, x):
        """Array [_, lambda_1(x), ..., lambda_n(x)] (index 0 unused)."""
        vec = self._lamcache.get(x)
        if vec is None:
            n = self.data.n
            vec = np.empty(n + 1, dtype=complex)
            vec[0] = np.nan
            for j in range(1, n + 1):
                vec[j] = _lambda_scalar(self.data, j, x, self._qcache)
            self._lamcache[x] = vec
        return vec


def _normalize_cells(cells):
    rows = []
    width = None
    for row in cells:
        norm = []
        for cell in row:
            if isinstance(cell, int):
                norm.append((cell, cell))
            else:
                lo, hi = cell
                norm.append((int(lo), int(hi)))
        if width is None:
            width = len(norm)
        elif len(norm) != width:
            raise DomainError("range tableau must be rectangular")
        rows.append(tuple(norm))
    if not rows or width == 0:
        raise DomainError("range tableau needs at least one cell")
    return tuple(rows)


@dataclass(frozen=True)
class RangeTableau:
    """Rectangular tableau whose cells carry index ranges [lo, hi].

    cells: tuple of rows, each row a tuple of (lo, hi) pairs (a bare int
    means a fixed filling).  shift is a complex offset added to the base
    spectral parameter.
    """

    cells: tuple
    shift: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "cells", _normalize_cells(self.cells))
        object.__setattr__(self, "shift", complex(self.shift))

    @property
    def height(self):
        return len(self.cells)

    @property
    def width(self):
        return len(self.cells[0])

    @classmethod
    def column(cls, rows, shift=0j):
        """Single-column tableau; rows is a list of (lo, hi) pairs or fixed ints."""
        return cls(tuple((cell,) for cell in rows), shift)

    @classmethod
    def box(cls, lo, hi=None, shift=0j):
        """Single box with range [lo, hi] (fixed filling when hi is omitted)."""
        return cls((((lo, lo if hi is None else hi),),), shift)

    @classmethod
    def full(cls, a, s, n, shift=0j):
        """a x s rectangle with every cell ranging over [1, n]."""
        return cls(tuple(((1, n),) * s for _ in range(a)), shift)

    def validate_rank(self, n):
        for row in self.cells:
            for lo, hi in row:
                if not 1 <= lo <= hi <= n:
                    raise DomainError(
                        f"cell range [{lo},{hi}] outside 1..{n}"
                    )
        if self.height > n:
            raise DomainError(
                f"tableau of height {self.height} has no admissible filling checks beyond rank {n}"
            )


@lru_cache(maxsize=1024)
def _transfer_form(cells, n):
    """Column states and 0/1 row transfers of a tableau's cells at rank n.

    Returns None when no filling is admissible, else (index, bounds, links):
    rows bounds[c]:bounds[c+1] of index are column c's strictly increasing
    fillings, as positions in the flat (cell, species) table of lambda
    vectors, cells column-major; links[c][i, j] = 1 when every row weakly
    increases from state i of column c to state j of column c + 1.
    """
    RangeTableau(cells).validate_rank(n)
    a = len(cells)
    increasing = np.array(list(combinations(range(1, n + 1), a)), dtype=np.intp)
    states = [
        increasing[((increasing >= lo) & (increasing <= hi)).all(axis=1)]
        for lo, hi in (np.array(col).T for col in zip(*cells))
    ]
    links = [
        (left[:, None, :] <= right[None, :, :]).all(axis=2).astype(float)
        for left, right in zip(states, states[1:])
    ]
    if not reduce(np.matmul, links, np.ones(len(states[0]))).any():
        return None
    index = np.concatenate(
        [(c * a + np.arange(a)) * (n + 1) + st for c, st in enumerate(states)]
    )
    bounds = tuple(np.cumsum([0] + [len(st) for st in states]).tolist())
    for arr in (index, *links):
        arr.flags.writeable = False
    return index, bounds, tuple(links)


def eval_range_tableau(data, tableau, x, ctx=None):
    """Sum over admissible fillings of the product of box values.

    Evaluated by column transfer, 1^T D_1 C_12 D_2 ... D_s 1 (see
    _transfer_form).  An exact complex zero is returned, before any box is
    evaluated, iff the tableau admits no filling.  Shares box values
    through ctx when given.
    """
    form = _transfer_form(tableau.cells, data.n)
    if form is None:
        return 0j
    index, bounds, links = form
    if ctx is None:
        ctx = EvalContext(data)
    a, s = tableau.height, tableau.width
    base = complex(x) + tableau.shift
    lam = np.concatenate(
        [
            ctx.lambda_vector(base + (1j * (r - a / 2.0) - 1j * (c - s / 2.0)))
            for c in range(1, s + 1)
            for r in range(1, a + 1)
        ]
    )
    weight = lam[index].prod(axis=1)
    total = weight[: bounds[1]]
    for c, link in enumerate(links, 1):
        total = (total @ link) * weight[bounds[c] : bounds[c + 1]]
    return complex(total.sum())


def eval_range_tableau_naive(data, tableau, x):
    """Reference evaluator: fresh recursion, no caching of boxes or fillings.

    Kept deliberately independent of the production path so the two can be
    compared against each other.
    """
    tableau.validate_rank(data.n)
    a, s = tableau.height, tableau.width
    base = complex(x) + tableau.shift
    total = 0j

    def rec(pos, grid, prod):
        nonlocal total
        if pos == a * s:
            total += prod
            return
        col, row = divmod(pos, a)
        lo, hi = tableau.cells[row][col]
        hi = min(hi, data.n)
        if row > 0:
            lo = max(lo, grid[row - 1][col] + 1)
        if col > 0:
            lo = max(lo, grid[row][col - 1])
        arg = base + 1j * ((row + 1) - a / 2.0) - 1j * ((col + 1) - s / 2.0)
        for val in range(lo, hi + 1):
            grid[row][col] = val
            rec(pos + 1, grid, prod * _lambda_scalar(data, val, arg, None))
            grid[row][col] = None

    rec(0, [[None] * s for _ in range(a)], 1.0 + 0j)
    return total


def fused_eigenvalue(data, a, s, x, ctx=None):
    """Eigenvalue Lambda_{a,s}(x) of the fused transfer matrix.

    The a x s rectangle with all cells ranging over [1, n]; empty shapes
    (a = 0 or s = 0) count as 1.
    """
    if a < 0 or s < 0:
        raise DomainError("fusion indices must be non-negative")
    if a == 0 or s == 0:
        return 1.0 + 0j
    if a > data.n:
        return 0j
    return eval_range_tableau(data, RangeTableau.full(a, s, data.n), x, ctx)


def canonical_move_tableaux(n, jvec):
    """The tableaux of the restricted fusion move for j-vector jvec.

    Returns (top, bottom, short, tall, rect): the identity reads
    top(x-i/2)*bottom(x+i/2) = short(x)*tall(x) + rect(x) with rect the
    doubled fixed-filling rectangle; short is None for a one-entry jvec,
    where the identity reads top*bottom = tall + rect.
    """
    a = len(jvec)
    j = tuple(jvec)
    if any(j[i] >= j[i + 1] for i in range(a - 1)) or j[0] < 1 or j[-1] > n:
        raise DomainError(f"j-vector must be strictly increasing within 1..{n}")
    lead = ((1, j[0]),)
    mids = tuple((j[i], j[i + 1]) for i in range(a - 1))
    tail = ((j[-1], n),)
    top = RangeTableau(tuple((c,) for c in lead + mids), shift=-0.5j)
    bottom = RangeTableau(tuple((c,) for c in mids + tail), shift=+0.5j)
    tall = RangeTableau(tuple((c,) for c in lead + mids + tail))
    short = (
        RangeTableau(tuple((c,) for c in mids)) if mids else None
    )
    rect = RangeTableau(tuple(((jk, jk), (jk, jk)) for jk in j))
    return top, bottom, short, tall, rect


def check_functional_relation(data, relation, x, a=None, s=None, jvec=None):
    """Residual |LHS - RHS| / (1 + |LHS|) of a named tableau identity.

    relation: "t_system" (needs a, s), "simplest_fusion", or
    "general_fusion_move" (needs jvec; a defaults to len(jvec)).
    The identities are combinatorial and hold for arbitrary, not
    necessarily Bethe, root data.
    """
    ctx = EvalContext(data)
    x = complex(x)
    if relation == "simplest_fusion":
        a, s = 1, 1
        relation = "t_system"
    if relation == "t_system":
        if a is None or s is None:
            raise DomainError("t_system needs both a and s")
        if not 1 <= a <= data.n - 1 or s < 1:
            raise DomainError(f"need 1 <= a <= {data.n - 1} and s >= 1")
        lhs = fused_eigenvalue(data, a, s, x - 0.5j, ctx) * fused_eigenvalue(
            data, a, s, x + 0.5j, ctx
        )
        rhs = fused_eigenvalue(data, a - 1, s, x, ctx) * fused_eigenvalue(
            data, a + 1, s, x, ctx
        ) + fused_eigenvalue(data, a, s - 1, x, ctx) * fused_eigenvalue(
            data, a, s + 1, x, ctx
        )
    elif relation == "general_fusion_move":
        if jvec is None:
            raise DomainError("general_fusion_move needs jvec")
        top, bottom, short, tall, rect = canonical_move_tableaux(data.n, jvec)
        lhs = eval_range_tableau(data, top, x, ctx) * eval_range_tableau(
            data, bottom, x, ctx
        )
        rhs = eval_range_tableau(data, tall, x, ctx)
        if short is not None:
            rhs = rhs * eval_range_tableau(data, short, x, ctx)
        rhs = rhs + eval_range_tableau(data, rect, x, ctx)
    else:
        raise DomainError(f"unknown relation {relation!r}")
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def conjugate_data(data):
    """Species-reversed, complex-conjugated root data.

    Satisfies conj(lambda_{n+1-j}(conj(x); data)) = lambda_j(x; data*),
    so every tableau identity maps to its mirror under this transform.
    """
    n = data.n
    roots = tuple(
        tuple(np.conj(r) for r in data.roots[n - 1 - ell - 1])
        for ell in range(n - 1)
    )
    return RootData(
        n=n,
        N=data.N,
        tau=data.tau,
        mu=tuple(data.mu[::-1]),
        beta=data.beta,
        roots=roots,
    )


def conjugate_tableau(tableau, n):
    """Mirror image of a tableau under species reversal.

    Rows and columns are reversed and each range [lo, hi] becomes
    [n+1-hi, n+1-lo]; the base shift conjugates (cell offsets flip on their
    own), so that for every root data
    eval(T, x; data) = conj(eval(conjugate(T), conj(x); conjugate_data(data))).
    """
    rows = tuple(
        tuple((n + 1 - hi, n + 1 - lo) for lo, hi in row[::-1])
        for row in tableau.cells[::-1]
    )
    return RangeTableau(rows, shift=np.conj(tableau.shift))
