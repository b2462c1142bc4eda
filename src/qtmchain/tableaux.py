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

x may be a scalar or a 1-D array of X points.  D_c is then a (states, X)
table, one diagonal per point, and the links C_{c,c+1} do not change.
Every point of an array gets, bit for bit, the value it gets alone: a
scalar is evaluated as an array of one point, in numpy's complex
arithmetic, whose *, / and integer ** round an element alike alone and in
any array, as abs does on contiguous operands (1,001 random pairs, numpy
2.4, x86-64 with AVX-512).  CPython's complex arithmetic rounds otherwise
(274 of those products and 424 quotients differ); only the reference
evaluator, eval_range_tableau_naive, uses it.

All types are immutable and every evaluation is a pure function, so
everything here is safe to call concurrently.  An EvalContext only adds
memo entries, each computed in full before it is stored; two threads that
race for one entry store equal values.
"""

from dataclasses import dataclass, replace
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


def _pole(data, level, x):
    """PoleError for q_level hit at x, naming the nearest root."""
    root = None
    if 0 < level < data.n:
        root = min(data.roots[level - 1], key=lambda r: abs(x - r))
    return PoleError(level, x, root)


def _q_checked(data, level, x):
    """q_level(x) at a scalar x with the pole guard |q| >= POLE_SCALE*(1+|x|^deg)."""
    val = eval_q(data, level, x)
    if abs(val) < POLE_SCALE * (1.0 + abs(x) ** data.m(level)):
        raise _pole(data, level, x)
    return val


def _lambda_scalar(data, species, x):
    """lambda_species(x) at one point, for the reference evaluator."""
    j = species
    phim = (x - 1j * data.tau) ** (data.N // 2)
    phip = (x + 1j * data.tau) ** (data.N // 2)
    val = phim * phip * np.exp(data.beta * data.mu[j - 1])
    val *= eval_q(data, j - 1, x - 1j) / _q_checked(data, j - 1, x)
    val *= eval_q(data, j, x + 1j) / _q_checked(data, j, x)
    return val


def _box_ladder(data, x, reach):
    """Box values on the ladder of arguments x + i k/2, |k| <= reach.

    Returns (reach, table, hits) at the 1-D points x.  Rung k of point p
    holds lambda_1..lambda_n(x_p + i k/2) in table[p, m + 1:m + n + 1],
    m = (reach + k)*(n+1).  hits is None, or else hits[p, reach + k, l] is
    True where q_l sits on a zero, |q_l| < POLE_SCALE*(1 + |x|^deg).  One
    pass over the levels evaluates q_0..q_n at every rung shifted by -i, 0
    and +i; all species follow at once, multiplied in the order of
    _lambda_scalar.  A rung with a hit holds meaningless values;
    EvalContext.boxes raises before one is used.
    """
    n = data.n
    z = x + 1j * (np.arange(-reach, reach + 1) / 2.0)[:, None]  # rung, point
    shifted = z + np.array([-1j, 0j, 1j])[:, None, None]  # x - i, x, x + i
    q = np.ones((3, n + 1) + z.shape, dtype=complex)  # shift, level, rung, point
    q[:, 0] = (shifted - 1j * data.tau) ** (data.N // 2)
    q[:, n] = (shifted + 1j * data.tau) ** (data.N // 2)
    for level, roots in enumerate(data.roots, 1):
        for r in roots:
            q[:, level] *= shifted - r
    deg = np.array([data.m(level) for level in range(n + 1)])[:, None, None]
    hits = abs(q[1]) < POLE_SCALE * (1.0 + abs(z) ** deg)
    weight = np.exp(data.beta * np.array(data.mu))[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = q[::2] / q[1]  # q_l(x - i) / q_l(x), q_l(x + i) / q_l(x)
        lam = q[1, 0] * q[1, n] * weight * ratio[0, :-1] * ratio[1, 1:]
    table = np.full((len(x), 2 * reach + 1, n + 1), np.nan, dtype=complex)
    table[..., 1:] = lam.transpose(2, 1, 0)  # column 0 pads each rung
    return reach, table.reshape(len(x), -1), hits.transpose(2, 1, 0) if hits.any() else None


def _is_scalar(x):
    return isinstance(x, (complex, float, int)) or np.ndim(x) == 0


def _points(x):
    """x as a 1-D complex array, and whether it was a scalar."""
    if _is_scalar(x):
        return np.array([x], dtype=complex), True
    xs = np.asarray(x, dtype=complex)
    if xs.ndim != 1:
        raise DomainError(f"x must be a scalar or a 1-D array, got shape {xs.shape}")
    return xs, False


def _constant(x, value):
    """value at every point of x: a complex scalar, or an array of x's shape."""
    return complex(value) if _is_scalar(x) else np.full(np.shape(x), value, complex)


def eval_lambda(data, species, x, ctx=None):
    """Single-box eigenvalue function lambda_species(x), x a scalar or 1-D array."""
    if not 1 <= species <= data.n:
        raise DomainError(f"species must lie in 1..{data.n}, got {species}")
    xs, scalar = _points(x)
    lam = (ctx or EvalContext(data)).boxes(xs, 0)[:, species]
    return complex(lam[0]) if scalar else lam.copy()


class EvalContext:
    """Values shared between evaluations at common root data.

    It memoizes, each keyed by the exact bytes of its points x:
    - the box values lambda_1..lambda_n on a ladder of arguments
      x + i k/2 around every base point a tableau is evaluated at;
    - the value of every tableau evaluated through it, per (cells, shift, x).

    So a tableau that several functions share, such as the common
    denominator of an upper and a lower function, or a column of f that
    Y_a also takes, is summed once per point.  Nothing is evicted: the
    memo lives as long as the context, which its caller owns and drops
    with its root data.

    Its values are taken in numpy's complex arithmetic, which rounds a
    point alike alone and inside an array (see the module docstring), so
    a scalar, as an array of one point, gets its array value bit for bit.
    """

    def __init__(self, data):
        self.data = data
        self._ladders = {}
        self._tableaux = {}

    def boxes(self, x, reach):
        """Box values at x + i k/2 for k = -reach, -reach + 2, ..., reach.

        An (X, (2*reach + 1)*(n+1)) view of the ladder that starts at
        k = -reach: rung k takes columns (k + reach)*(n+1) onwards.  Raises
        PoleError, naming the first point, then the lowest such rung and
        level, when a q sits on a zero at one of these rungs.  A new ladder
        at one point reaches at least n + 3, so that the tableaux met at
        the point, up to an n x 5 rectangle, do not rebuild it as they
        grow; an array's ladder, whose cost grows with its points, reaches
        only as far as asked.
        """
        key = x.tobytes()
        ladder = self._ladders.get(key)
        if ladder is None or ladder[0] < reach:
            floor = self.data.n + 3 if len(x) == 1 else 0
            ladder = self._ladders[key] = _box_ladder(self.data, x, max(reach, floor))
        top, table, hits = ladder
        if hits is not None and hits[:, top - reach : top + reach + 1 : 2].any():
            point, rung, level = np.argwhere(hits[:, top - reach : top + reach + 1 : 2])[0]
            arg = complex(x[point]) + 1j * ((2 * rung - reach) / 2.0)
            raise _pole(self.data, int(level), arg)
        return table[:, (top - reach) * (self.data.n + 1) :]

    def tableau_value(self, tableau, x):
        """(X,) values of a tableau at the 1-D points x."""
        key = (tableau, x.tobytes())
        val = self._tableaux.get(key)
        if val is None:
            val = self._tableaux[key] = _transfer_sum(self, tableau, x)
        return val


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
        object.__setattr__(self, "_hash", hash((self.cells, self.shift)))

    def __hash__(self):  # hashed once: EvalContext keys its memo by tableau
        return self._hash

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
    @lru_cache(maxsize=256)
    def full(cls, a, s, n, shift=0j):
        """a x s rectangle with every cell ranging over [1, n] (built once)."""
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

    Returns None when no filling is admissible, else
    (index, bounds, links, reach).  The box in row r and column c sits at
    x + i k/2 with k = 2(r - c) + s - a, so the boxes take the a + s - 1
    rungs k = -reach, -reach + 2, ..., reach of the ladder of box values,
    reach = a + s - 2 (see EvalContext.boxes).  Rows bounds[c]:bounds[c+1]
    of index are column c's strictly increasing fillings, as positions in
    the flat (rung, species) table of that ladder; links[c][i, j] = 1 when
    every row weakly increases from state i of column c to state j of
    column c + 1.
    """
    RangeTableau(cells).validate_rank(n)
    a, s = len(cells), len(cells[0])
    increasing = np.array(list(combinations(range(1, n + 1), a)), dtype=np.intp)
    states = [
        increasing[((increasing >= lo) & (increasing <= hi)).all(axis=1)]
        for lo, hi in (np.array(col).T for col in zip(*cells))
    ]
    links = [
        (left[:, None, :] <= right[None, :, :]).all(axis=2).astype(complex)
        for left, right in zip(states, states[1:])
    ]
    if not reduce(np.matmul, links, np.ones(len(states[0]))).any():
        return None
    index = np.concatenate(
        [2 * (np.arange(a) - c + s - 1) * (n + 1) + st for c, st in enumerate(states)]
    )
    bounds = tuple(np.cumsum([0] + [len(st) for st in states]).tolist())
    for arr in (index, *links):
        arr.flags.writeable = False
    return index, bounds, tuple(links), a + s - 2


def _transfer_sum(ctx, tableau, x):
    """1^T D_1 C_12 D_2 ... D_s 1 at the 1-D points x, as an (X,) array.

    The diagonals D_c stand side by side in weight, (X, 1, states): each
    point's chain is a row vector that every link multiplies from the
    right, one matrix-vector product per point, so that a point of an
    array sums in the order it does alone.
    """
    form = _transfer_form(tableau.cells, ctx.data.n)
    if form is None:
        return np.zeros(len(x), dtype=complex)
    index, bounds, links, reach = form
    base = x + tableau.shift if tableau.shift else x
    # take lays the gathered boxes out C-contiguously, so that the
    # reductions run the same loops, in the same order, for any X
    weight = np.multiply.reduce(ctx.boxes(base, reach).take(index, axis=1), axis=2)[:, None]
    total = weight[..., : bounds[1]]
    for c, link in enumerate(links, 1):
        total = (total @ link) * weight[..., bounds[c] : bounds[c + 1]]
    return np.add.reduce(total, axis=2)[:, 0]


def eval_range_tableau(data, tableau, x, ctx=None):
    """Sum over admissible fillings of the product of box values.

    x is a scalar, giving a complex, or a 1-D array, giving one value per
    point.  Evaluated by column transfer, 1^T D_1 C_12 D_2 ... D_s 1 (see
    _transfer_form).  An exact complex zero is returned, before any box is
    evaluated, iff the tableau admits no filling.  Shares box and tableau
    values through ctx when given.
    """
    xs, scalar = _points(x)
    val = (ctx or EvalContext(data)).tableau_value(tableau, xs)
    return complex(val[0]) if scalar else val.copy()


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
            rec(pos + 1, grid, prod * _lambda_scalar(data, val, arg))
            grid[row][col] = None

    rec(0, [[None] * s for _ in range(a)], 1.0 + 0j)
    return total


def fused_eigenvalue(data, a, s, x, ctx=None):
    """Eigenvalue Lambda_{a,s}(x) of the fused transfer matrix.

    The a x s rectangle with all cells ranging over [1, n]; empty shapes
    (a = 0 or s = 0) count as 1.  x is a scalar or a 1-D array.
    """
    if a < 0 or s < 0:
        raise DomainError("fusion indices must be non-negative")
    if a == 0 or s == 0:
        return _constant(x, 1)
    if a > data.n:
        return _constant(x, 0)
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
        lam = lambda b, t, y: fused_eigenvalue(data, b, t, y, ctx)
        # x -/+ i/2 as one two-point array, whose ladder reaches only a + s
        below, above = map(complex, lam(a, s, np.array([x - 0.5j, x + 0.5j])))
        lhs = below * above
        rhs = lam(a - 1, s, x) * lam(a + 1, s, x) + lam(a, s - 1, x) * lam(a, s + 1, x)
    elif relation == "general_fusion_move":
        if jvec is None:
            raise DomainError("general_fusion_move needs jvec")
        top, bottom, short, tall, rect = canonical_move_tableaux(data.n, jvec)
        val = lambda t: eval_range_tableau(data, t, x, ctx)
        lhs = val(top) * val(bottom)
        rhs = val(tall) if short is None else val(tall) * val(short)
        rhs = rhs + val(rect)
    else:
        raise DomainError(f"unknown relation {relation!r}")
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def conjugate_data(data):
    """Species-reversed, complex-conjugated root data.

    Satisfies conj(lambda_{n+1-j}(conj(x); data)) = lambda_j(x; data*),
    so every tableau identity maps to its mirror under this transform.
    """
    roots = tuple(tuple(np.conj(r) for r in level) for level in data.roots[::-1])
    return replace(data, mu=data.mu[::-1], roots=roots)


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
