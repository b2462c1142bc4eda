"""Canonical auxiliary functions B_{a,j}, b_{a,j} and their functional relations.

The canonical pair for a j-vector (j_1 < ... < j_a) is built from single-column
range tableaux over the consecutive ranges

    (1,j_1), (j_1,j_2), ..., (j_{a-1},j_a), (j_a,n)

as the ratio

    B = C_a^top(x - i/2) * C_a^bot(x + i/2) / ( C_{a+1}(x) * C_{a-1}(x) )
    b = R(x) / ( C_{a+1}(x) * C_{a-1}(x) ),

where C_a^top drops the last range, C_a^bot drops the first, C_{a+1} keeps
all, C_{a-1} keeps only the middle ranges, and R is the a x 2 rectangle whose
row k is fixed to j_k in both columns.  The restricted fusion move makes
B = 1 + b an identity for arbitrary root data.

Function order within each representation follows the kernel-row order used
by the integral-equation tables: plain lexicographic for n <= 4 (and n = 6),
while for n = 5 the a = 2, 3 sectors interleave differently.  The explicit
sequences below match the printed kernel blocks, and the integration
constants (kernels.integration_constants) follow from them by one rule.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, prod

import numpy as np

from .errors import DomainError
from .errors import finite_real, finite_vector, integer_at_least, tabulated_rank
from .tableaux import (
    EvalContext,
    RangeTableau,
    RootData,
    _points,
    canonical_move_tableaux,
    conjugate_data,
)

__all__ = [
    "AuxFunctionDef",
    "function_order",
    "canonical_defs",
    "canonical_pair",
    "legacy_defs",
    "eval_aux",
    "eval_f",
    "eval_f_conjugate",
    "check_y_relations",
    "check_species_conjugation",
    "species_conjugation_index",
    "legacy_cross_relations",
    "counting_values",
]

_ORDER5_A2 = (
    (1, 2), (1, 3), (2, 3), (1, 4), (1, 5),
    (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
)
_ORDER5_A3 = (
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
    (2, 3, 4), (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5),
)


def function_order(n, a):
    """j-vectors of representation a in kernel-row order."""
    if not 1 <= a <= n - 1:
        raise DomainError(f"representation index must lie in 1..{n - 1}")
    if n == 5 and a == 2:
        return _ORDER5_A2
    if n == 5 and a == 3:
        return _ORDER5_A3
    return tuple(combinations(range(1, n + 1), a))


@dataclass(frozen=True)
class AuxFunctionDef:
    """One auxiliary function as a ratio of shifted range-tableau products."""

    a: int
    jvec: tuple
    kind: str  # "upper" | "lower" | "y" (Y_a, jvec = ()) | "f" | "fbar" (a = 0, jvec = ())
    numerator: tuple
    denominator: tuple

    @property
    def label(self):
        return (self.a, self.jvec)


def canonical_pair(n, jvec):
    """(uppercase, lowercase) definitions for one j-vector."""
    return _canonical_pair(n, tuple(jvec))


@lru_cache(maxsize=None)
def _canonical_pair(n, jvec):
    """canonical_pair, built once: the definitions are frozen."""
    top, bottom, short, tall, rect = canonical_move_tableaux(n, jvec)
    den = (tall,) if short is None else (tall, short)
    upper = AuxFunctionDef(len(jvec), jvec, "upper", (top, bottom), den)
    lower = AuxFunctionDef(len(jvec), jvec, "lower", (rect,), den)
    return upper, lower


def canonical_defs(n):
    """All 2^n - 2 canonical pairs, ordered a = 1..n-1 then kernel-row order,
    as a fresh list of the pairs built once per n."""
    return list(_canonical_defs(n))


@lru_cache(maxsize=None)
def _canonical_defs(n):
    if not 2 <= n <= 6:
        raise DomainError(f"canonical construction implemented for 2 <= n <= 6, got {n}")
    pairs = tuple(
        canonical_pair(n, jvec) for a in range(1, n) for jvec in function_order(n, a)
    )
    assert len(pairs) == 2**n - 2
    assert all(
        sum(1 for u, _ in pairs if u.a == a) == comb(n, a) for a in range(1, n)
    )
    return pairs


def eval_aux(defn, data, x, ctx=None):
    """Numerator product over denominator product at x, a scalar or 1-D array.

    A scalar x is evaluated as an array of one point, so that it gets the
    value that point gets inside an array, bit for bit."""
    xs, scalar = _points(x)
    ctx = ctx or EvalContext(data)
    num, den = (
        reduce(np.multiply, [ctx.tableau_value(t, xs) for t in tableaux])
        for tableaux in (defn.numerator, defn.denominator)
    )
    if not den.all():
        raise ZeroDivisionError(
            f"denominator of {defn.kind} {defn.label} vanished at x={xs[np.argmin(den != 0)]}"
        )
    val = num / den
    return complex(val[0]) if scalar else val


# ----------------------------------------------------------------------
# the function f relating the canonical set to the Y-system

_col = RangeTableau.column


def _column_def(kind, num, den):
    """A ratio of products of single-column tableaux, one per tuple of row
    ranges."""
    return AuxFunctionDef(0, (), kind, tuple(map(_col, num)), tuple(map(_col, den)))


_F = {
    4: _column_def("f", (((1, 2), (2, 4)), ((1, 3), (3, 4))),
                   (((1, 3), (2, 4)), ((1, 2), (3, 4)))),
    5: _column_def("f", (((1, 2), (2, 5)), ((1, 3), (3, 5)), ((1, 4), (4, 5))),
                   (((1, 4), (2, 5)), ((1, 2), (3, 5)), ((1, 3), (4, 5)))),
}


def eval_f(n, data, x, ctx=None):
    """Y-system dressing function f for n = 4 or 5 (self-conjugated for n=4)."""
    if tabulated_rank(n) != data.n:
        raise DomainError("data rank does not match requested n")
    return eval_aux(_F[n], data, x, ctx)


# Representation conjugate of f^(5): every two-row factor is replaced by the
# three-row column whose fillings are exactly the complements of the original
# fillings inside {1..5}.  The ratio needs no extra normalization; this was
# pinned down against the conjugate-representation ratio Y_4 / prod(B_4).
_F5BAR = _column_def(
    "fbar",
    (((1, 3), (3, 4), (4, 5)), ((1, 2), (2, 4), (4, 5)), ((1, 2), (2, 3), (3, 5))),
    (((1, 3), (2, 4), (3, 5)), ((1, 2), (3, 4), (4, 5)), ((1, 2), (2, 3), (4, 5))),
)


def eval_f_conjugate(n, data, x, ctx=None):
    """Representation conjugate of f (distinct from f only for n = 5)."""
    if tabulated_rank(n) == 4:
        return eval_f(4, data, x, ctx)
    return eval_aux(_F5BAR, data, x, ctx)


@lru_cache(maxsize=None)
def _y_def(n, a):
    """Y_a = Lambda_a(x - i/2) Lambda_a(x + i/2) / (Lambda_{a-1} Lambda_{a+1})(x),
    from the fused eigenvalues Lambda_a = Lambda_{a,1}; Lambda_0 = 1."""
    num = (RangeTableau.full(a, 1, n, -0.5j), RangeTableau.full(a, 1, n, 0.5j))
    den = tuple(RangeTableau.full(b, 1, n) for b in (a - 1, a + 1) if b)
    return AuxFunctionDef(a, (), "y", num, den)


def check_y_relations(n, data, x, ctx=None):
    """Residuals of Y_a against the f-dressed products of uppercase functions.

    Y_a is built directly from fused eigenvalues; the right-hand sides use
    the canonical uppercase functions in their defining (unshifted) form.
    Returns {a: residual}.
    """
    tabulated_rank(n)
    if ctx is None:
        ctx = EvalContext(data)
    x = complex(x)
    products = {}
    for a in range(1, n):
        prod = 1.0 + 0j
        for jvec in function_order(n, a):
            upper, _ = canonical_pair(n, jvec)
            prod *= eval_aux(upper, data, x, ctx)
        products[a] = prod

    f0 = eval_f(n, data, x, ctx)
    fp = eval_f(n, data, x + 0.5j, ctx)
    fm = eval_f(n, data, x - 0.5j, ctx)
    if n == 4:
        rhs = {
            1: f0 * products[1],
            2: products[2] / (fm * fp),
            3: f0 * products[3],
        }
    else:
        fb0 = eval_f_conjugate(n, data, x, ctx)
        fbp = eval_f_conjugate(n, data, x + 0.5j, ctx)
        fbm = eval_f_conjugate(n, data, x - 0.5j, ctx)
        rhs = {
            1: f0 * products[1],
            2: fb0 / (fp * fm) * products[2],
            3: f0 / (fbp * fbm) * products[3],
            4: fb0 * products[4],
        }
    out = {}
    for a in range(1, n):
        y = eval_aux(_y_def(n, a), data, x, ctx)
        out[a] = abs(y - rhs[a]) / (1.0 + abs(y))
    return out


# ----------------------------------------------------------------------
# a previously published auxiliary-function set (n = 4, uppercase only)

def _legacy_sl4():
    p, m = +0.5j, -0.5j
    defs = [
        ((1, 1), (_col([(1, 4)], p),), (_col([(2, 4)], p),)),
        (
            (1, 2),
            (_col([(1, 1), (2, 4)]), _col([(1, 3), (3, 4)])),
            (_col([(1, 1), (3, 4)]), _col([(1, 3), (2, 4)])),
        ),
        (
            (1, 3),
            (_col([(1, 3), (4, 4)]), _col([(1, 1), (3, 4)])),
            (_col([(1, 1), (4, 4)]), _col([(1, 3), (3, 4)])),
        ),
        ((1, 4), (_col([(1, 4)], m),), (_col([(1, 3)], m),)),
        ((2, 1), (_col([(1, 3), (2, 4)], m),), (_col([(1, 3), (3, 4)], m),)),
        (
            (2, 2),
            (_col([(2, 3), (4, 4)], p), _col([(1, 3), (3, 4)], p)),
            (_col([(1, 3), (4, 4)], p), _col([(2, 3), (3, 4)], p)),
        ),
        (
            (2, 3),
            (_col([(1, 3)]), _col([(2, 4)])),
            (_col([(1, 4)]), _col([(2, 3)])),
        ),
        (
            (2, 4),
            (_col([(1, 1), (2, 3), (3, 4)]), _col([(1, 2), (2, 3), (4, 4)])),
            (_col([(1, 1), (2, 3), (4, 4)]), _col([(1, 2), (2, 3), (3, 4)])),
        ),
        (
            (2, 5),
            (_col([(1, 1), (2, 3)], m), _col([(1, 2), (2, 4)], m)),
            (_col([(1, 1), (2, 4)], m), _col([(1, 2), (2, 3)], m)),
        ),
        ((2, 6), (_col([(1, 3), (2, 4)], m),), (_col([(1, 2), (2, 4)], m),)),
        ((3, 1), (_col([(1, 2), (2, 3), (3, 4)], p),), (_col([(1, 2), (2, 3), (4, 4)], p),)),
        (
            (3, 2),
            (_col([(2, 2), (3, 4)]), _col([(1, 2), (2, 3)])),
            (_col([(2, 2), (3, 3)]), _col([(1, 2), (2, 4)])),
        ),
        (
            (3, 3),
            (_col([(2, 3), (3, 4)]), _col([(1, 2), (2, 4)])),
            (_col([(2, 2), (3, 4)]), _col([(1, 3), (2, 4)])),
        ),
        ((3, 4), (_col([(1, 2), (2, 3), (3, 4)], m),), (_col([(1, 1), (2, 3), (3, 4)], m),)),
    ]
    return tuple(
        AuxFunctionDef(label[0], (label[1],), "upper", num, den)
        for label, num, den in defs
    )


# built once: the definitions are frozen
_LEGACY4 = _legacy_sl4()
_LEGACY4_BY_LABEL = {d.label: d for d in _LEGACY4}


def legacy_defs(n):
    """The uppercase auxiliary-function set of an earlier formulation, for
    n = 4, the one that legacy_cross_relations ties to the canonical set,
    as a fresh list of the definitions built once."""
    if n == 4:
        return list(_LEGACY4)
    raise DomainError(f"the legacy set exists for n = 4, got {n}")


def species_conjugation_index(n, jvec):
    """Image of a j-vector under the species flip k -> n+1-k."""
    return tuple(sorted(n + 1 - j for j in jvec))


def check_species_conjugation(n, data, x, ctx=None):
    """Residuals of B_{a,j}(x; data*) = conj(B_{a,sigma(j)}(conj x; data)).

    data* carries complex-conjugated, level-reversed roots and reversed
    chemical potentials; sigma flips every index k -> n+1-k.  Exact for
    arbitrary root data.
    """
    dstar = conjugate_data(data)
    ctx_star = EvalContext(dstar)
    if ctx is None:
        ctx = EvalContext(data)
    x = complex(x)
    out = {}
    for a in range(1, n):
        for jvec in function_order(n, a):
            upper, _ = canonical_pair(n, jvec)
            mirror, _ = canonical_pair(n, species_conjugation_index(n, jvec))
            lhs = eval_aux(upper, dstar, x, ctx_star)
            rhs = np.conj(eval_aux(mirror, data, np.conj(x), ctx))
            out[(a, jvec)] = abs(lhs - rhs) / (1.0 + abs(lhs))
    return out


def legacy_cross_relations(data, x, ctx=None):
    """Residuals tying the n=4 legacy set to the canonical set through f.

    The valid relations on arbitrary root data are

        legacy B_{1,2}(x) = f(x) * B_{1,2}(x)
        legacy B_{3,3}(x) = f(x) * B_{3,3}(x)
        legacy B_{2,1}(x) = B_{2,1}(x - i) / f(x - i/2)
        legacy B_{2,6}(x) = B_{2,6}(x)     / f(x - i/2)

    with the canonical functions in their defining (unshifted) form.  The
    last two differ from the printed argument bookkeeping; the forms above
    are the ones that close numerically and map into each other under the
    species-conjugation symmetry.
    """
    if data.n != 4:
        raise DomainError("legacy cross relations are an n=4 statement")
    if ctx is None:
        ctx = EvalContext(data)
    x = complex(x)
    legacy = _LEGACY4_BY_LABEL
    f0 = eval_f(4, data, x, ctx)
    fm = eval_f(4, data, x - 0.5j, ctx)

    def canon(jvec, xx):
        upper, _ = canonical_pair(4, jvec)
        return eval_aux(upper, data, xx, ctx)

    pairs = {
        "B12": (eval_aux(legacy[(1, (2,))], data, x, ctx), f0 * canon((2,), x)),
        "B33": (eval_aux(legacy[(3, (3,))], data, x, ctx), f0 * canon((1, 3, 4), x)),
        "B21": (eval_aux(legacy[(2, (1,))], data, x, ctx), canon((1, 2), x - 1j) / fm),
        "B26": (eval_aux(legacy[(2, (6,))], data, x, ctx), canon((3, 4), x) / fm),
    }
    return {
        name: abs(lhs - rhs) / (1.0 + abs(lhs)) for name, (lhs, rhs) in pairs.items()
    }


def counting_values(n, beta=0.0, mu=None):
    """mu-weighted large-x limits (b_inf, B_inf) of the canonical pairs.

    Evaluates every definition on root-free N=0 data, where each box j
    contributes exp(beta*mu_j) and tableau values become weighted filling
    counts; the spectral parameter drops out.  So the values depend on
    beta and mu only through beta*mu: they are cached per (n, beta*mu),
    which at mu = 0 is one entry for every beta, and returned as copies.
    """
    n = integer_at_least("rank n", n, 2)
    beta = finite_real("beta", beta)
    mu = finite_vector("chemical potentials", mu, n)
    binf, Binf = _counting_values(n, tuple(beta * m for m in mu))
    return binf.copy(), Binf.copy()


@lru_cache(maxsize=64)
def _counting_values(n, beta_mu):
    """counting_values at beta = 1 and mu = beta_mu, the box weights
    exp(1 * beta_mu_j) = exp(beta*mu_j) bit for bit.  Every tableau value
    is real here, so each ratio is taken in float arithmetic, the
    quotient of the two products correctly rounded."""
    ctx = EvalContext(RootData.free(n, beta=1.0, mu=beta_mu))
    x = np.zeros(1, dtype=complex)

    def ratio(defn):
        num, den = (
            prod(ctx.tableau_value(t, x)[0].real for t in tableaux)
            for tableaux in (defn.numerator, defn.denominator)
        )
        return num / den

    pairs = canonical_defs(n)
    return np.array([ratio(lower) for _, lower in pairs]), np.array(
        [ratio(upper) for upper, _ in pairs]
    )
