"""Fourier-space kernel matrices, driving terms and integration constants.

Every kernel entry is the common function

    K^(a,b)(k) = e^{|k|/2} sh(min(a,b)k/2) sh((n-max(a,b))k/2)
                 / ( sh(k/2) sh(nk/2) )  -  delta_ab

plus a short list of exponentials e^{(alpha*k - gamma*|k|)/2}, conjugated by
the diagonal shift matrices T_j = diag(y^p), y = e^{k/2}.  Only the blocks
printed explicitly are transcribed: (1,1), (2,2), (1,2), (1,3) for n=4 and
(1,1), (1,2), (1,3), (1,4), (2,2), (2,3) for n=5.  The remaining blocks
follow from

    K_{i,j}(k) = T_i^-1 Pi_i T_{n-i}^-1 [K_{n-j,n-i}(k)]^t T_{n-j} Pi_j T_j
    K_{i,j}(k) = [K_{j,i}(-k)]^t        (Hermiticity for real kernels)

with the reflection matrix [Pi_j]_{mn} = delta_{d_j+1-m,n}.

On either side of k = 0 every entry is exactly a rational function of
u = e^{-|k|/4} with integer coefficients (_entry_form): with
S_m(u) = 1 + u + ... + u^{m-1}, the common kernel plus delta_ab is
u^{2(hi-lo)} S_{4 lo} S_{4(n-hi)} / D, D = S_4 S_{4n}, an exponential is a
power of u, and the shift e^{s4 k/4} is u^{-s4} for k > 0.  Each position's
numerator R is summed once in integers, so the raw terms that grow like
e^{|k|} after the T-sandwich cancel exactly; all exponent bookkeeping is
integer arithmetic in units of k/4.  KernelSystem reads every property of
K-hat from one table of the R per side of k = 0: its values (_evaluate),
the growth check, and the kink jumps at k = 0 that set the algebraic tail
of K(x) (_kink_jumps).
"""

from functools import cached_property, lru_cache
from itertools import product
from math import comb, factorial

import numpy as np

from .aux_functions import function_order
from .errors import DomainError, InconsistencyError, finite_real, finite_vector, tabulated_rank

__all__ = [
    "common_kernel",
    "KernelSystem",
    "integration_constants",
    "kernel_entry_value",
    "REP_DIMS",
]

REP_DIMS = {4: (4, 6, 4), 5: (5, 10, 10, 5)}


def common_kernel(n, a, b, k):
    """K^(a,b)_[n](k), vectorized; the k=0 singularity is removable."""
    if not (1 <= a <= n - 1 and 1 <= b <= n - 1):
        raise DomainError(f"need 1 <= a,b <= {n - 1}")
    lo, hi = min(a, b), max(a, b)
    k = np.asarray(k, dtype=float)
    kappa = np.abs(k)
    t_lo = -np.expm1(-lo * kappa)
    t_hi = -np.expm1(-(n - hi) * kappa)
    t_1 = -np.expm1(-kappa)
    t_n = -np.expm1(-n * kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.exp(-0.5 * (hi - lo) * kappa) * t_lo * t_hi / (t_1 * t_n)
    limit = lo * (n - hi) / n
    val = np.where(kappa < 1e-14, limit, val)
    out = val - (1.0 if a == b else 0.0)
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# entry catalogue: (a, b, extras); extras are (coeff, alpha2, gamma2)
# encoding coeff * e^{(alpha2*k - gamma2*|k|)/2}

_ENTRIES = {
    4: {
        0: (1, 1, ()),
        1: (1, 1, ((1, -1, 1),)),
        2: (1, 1, ((1, 1, 1),)),
        3: (2, 2, ()),
        4: (2, 2, ((1, -1, 1),)),
        5: (2, 2, ((1, 1, 1),)),
        6: (2, 2, ((1, -2, 2), (-1, -2, 0))),
        7: (2, 2, ((1, 2, 2), (-1, 2, 0))),
        8: (2, 2, ((2, -1, 1),)),
        9: (2, 2, ((2, 1, 1),)),
        10: (2, 2, ((1, 0, 2),)),
        11: (1, 2, ()),
        12: (1, 2, ((1, -2, 1), (-1, -1, 0))),
        13: (1, 2, ((1, 2, 1), (-1, 1, 0))),
        14: (1, 2, ((1, 0, 1),)),
        15: (1, 3, ()),
        16: (1, 3, ((1, -3, 1), (-1, -2, 0))),
        17: (1, 3, ((1, 3, 1), (-1, 2, 0))),
        18: (1, 3, ((1, -1, 1),)),
        19: (1, 3, ((1, 1, 1),)),
    },
    5: {
        0: (1, 1, ()),
        1: (1, 1, ((1, -1, 1),)),
        2: (1, 1, ((1, 1, 1),)),
        3: (1, 2, ()),
        4: (1, 2, ((1, 2, 1), (-1, 1, 0))),
        5: (1, 2, ((1, 0, 1),)),
        6: (1, 2, ((1, -2, 1), (-1, -1, 0))),
        7: (1, 3, ()),
        8: (1, 3, ((1, 3, 1), (-1, 2, 0))),
        9: (1, 3, ((1, 1, 1),)),
        10: (1, 3, ((1, -1, 1),)),
        11: (1, 3, ((1, -3, 1), (-1, -2, 0))),
        12: (1, 4, ()),
        13: (1, 4, ((1, 4, 1), (-1, 3, 0))),
        14: (1, 4, ((1, 2, 1),)),
        15: (1, 4, ((1, 0, 1),)),
        16: (1, 4, ((1, -2, 1),)),
        17: (1, 4, ((1, -4, 1), (-1, -3, 0))),
        18: (2, 2, ()),
        19: (2, 2, ((1, 1, 1),)),
        20: (2, 2, ((1, 2, 2), (-1, 2, 0))),
        21: (2, 2, ((1, -1, 1),)),
        22: (2, 2, ((2, 1, 1),)),
        23: (2, 2, ((1, 0, 2),)),
        24: (2, 2, ((2, -1, 1),)),
        25: (2, 2, ((1, -2, 2), (-1, -2, 0))),
        26: (2, 3, ()),
        27: (2, 3, ((1, 2, 1), (-1, 1, 0))),
        28: (2, 3, ((1, 0, 1),)),
        29: (2, 3, ((1, -2, 1), (-1, -1, 0))),
        30: (2, 3, ((1, 3, 2), (-1, 3, 0), (-1, 1, 0))),
        31: (2, 3, ((2, 2, 1), (-1, 1, 0))),
        32: (2, 3, ((1, 1, 2), (-1, 1, 0))),
        33: (2, 3, ((1, 1, 2),)),
        34: (2, 3, ((2, 0, 1),)),
        35: (2, 3, ((1, 0, 3), (-1, 0, 1))),
        36: (2, 3, ((1, -1, 2),)),
        37: (2, 3, ((1, -1, 2), (-1, -1, 0))),
        38: (2, 3, ((2, -2, 1), (-1, -1, 0))),
        39: (2, 3, ((1, -3, 2), (-1, -3, 0), (-1, -1, 0))),
    },
}

# transcribed block cores: entry ids at each position
_BLOCKS = {
    4: {
        (1, 1): [[0, 1, 1, 1],
                 [2, 0, 1, 1],
                 [2, 2, 0, 1],
                 [2, 2, 2, 0]],
        (2, 2): [[3, 4, 4, 4, 4, 6],
                 [5, 3, 4, 4, 8, 4],
                 [5, 5, 3, 10, 4, 4],
                 [5, 5, 10, 3, 4, 4],
                 [5, 9, 5, 5, 3, 4],
                 [7, 5, 5, 5, 5, 3]],
        (1, 2): [[11, 11, 11, 12, 12, 12],
                 [11, 14, 14, 11, 11, 12],
                 [13, 11, 14, 11, 14, 11],
                 [13, 13, 11, 13, 11, 11]],
        (1, 3): [[15, 15, 15, 16],
                 [15, 15, 18, 15],
                 [15, 19, 15, 15],
                 [17, 15, 15, 15]],
    },
    5: {
        (1, 1): [[0, 1, 1, 1, 1],
                 [2, 0, 1, 1, 1],
                 [2, 2, 0, 1, 1],
                 [2, 2, 2, 0, 1],
                 [2, 2, 2, 2, 0]],
        (1, 2): [[3, 3, 6, 3, 3, 6, 6, 6, 6, 6],
                 [3, 5, 3, 5, 5, 3, 3, 6, 6, 6],
                 [4, 3, 3, 5, 5, 5, 5, 3, 3, 6],
                 [4, 4, 4, 3, 5, 3, 5, 3, 5, 3],
                 [4, 4, 4, 4, 3, 4, 3, 4, 3, 3]],
        (1, 3): [[7, 7, 7, 7, 7, 11, 11, 7, 11, 11],
                 [7, 7, 7, 10, 10, 7, 7, 10, 7, 11],
                 [7, 9, 9, 7, 7, 7, 7, 10, 10, 7],
                 [8, 7, 9, 7, 9, 7, 9, 7, 7, 7],
                 [8, 8, 7, 8, 7, 8, 7, 7, 7, 7]],
        (1, 4): [[12, 12, 12, 12, 17],
                 [12, 12, 12, 16, 12],
                 [12, 12, 15, 12, 12],
                 [12, 14, 12, 12, 12],
                 [13, 12, 12, 12, 12]],
        (2, 2): [[18, 21, 21, 21, 21, 21, 21, 25, 25, 25],
                 [19, 18, 21, 21, 21, 24, 24, 21, 21, 25],
                 [19, 19, 18, 23, 23, 21, 21, 21, 21, 25],
                 [19, 19, 23, 18, 21, 21, 24, 21, 24, 21],
                 [19, 19, 23, 19, 18, 23, 21, 23, 21, 21],
                 [19, 22, 19, 19, 23, 18, 21, 21, 24, 21],
                 [19, 22, 19, 22, 19, 19, 18, 23, 21, 21],
                 [20, 19, 19, 19, 23, 19, 23, 18, 21, 21],
                 [20, 19, 19, 22, 19, 22, 19, 19, 18, 21],
                 [20, 20, 20, 19, 19, 19, 19, 19, 19, 18]],
        (2, 3): [[26, 26, 26, 29, 29, 29, 29, 29, 29, 39],
                 [26, 28, 28, 26, 26, 29, 29, 29, 38, 29],
                 [26, 28, 28, 28, 28, 26, 26, 37, 29, 29],
                 [27, 26, 28, 26, 28, 29, 36, 26, 29, 29],
                 [27, 27, 26, 27, 26, 35, 29, 26, 29, 29],
                 [27, 26, 28, 28, 34, 26, 28, 28, 26, 29],
                 [27, 27, 26, 33, 28, 27, 26, 28, 26, 29],
                 [27, 27, 32, 26, 28, 26, 28, 28, 28, 26],
                 [27, 31, 27, 27, 26, 27, 26, 28, 28, 26],
                 [30, 27, 27, 27, 27, 27, 27, 26, 26, 26]],
    },
}

# frozen shift-matrix diagonals: powers p of y = e^{k/2} per function.
# A function relabelled by x -> x + i*sigma carries y^{2 sigma}; the n=5
# tables print y^{sigma} for T_3's last entry and for T_4, which breaks the
# n=4 convention and leaves six matrix positions growing like e^{|k|/2}, so
# the uniform y^{2 sigma} reading is used.  On top of that the 8th and 9th
# a=3 functions get an extra y^{1/2} (a +i/4 relabelling the paper omits):
# this is the minimal patch making every assembled matrix position decay,
# which a damped fixed-point iteration needs.
_TPOW = {
    4: {1: (0, 0, 0, 0),
        2: (-1, 0, 0, 0, 0, 1),
        3: (0, 0, 0, 0)},
    5: {1: (0, 0, 0, 0.5, 0.5),
        2: (-1, -1, -1, 0, 0, 0, 0, 1, 1, 1.5),
        3: (-1.5, 0, 0, 0, 0, 0, 0, 0.5, 0.5, 2),
        4: (-1, -1, 0, 1, 1)},
}


def _tpow4(n, j):
    """Shift-matrix powers in exact units of k/4 (integers)."""
    return tuple(int(round(2 * p)) for p in _TPOW[n][j])


def integration_constants(n, mu, beta):
    """Constant-of-integration vector c (length 14 for n=4, 30 for n=5).

    c_j = (beta/n) (a*1 - n*1_j) . mu = -beta (sum_{i in j} mu_i - a mean(mu))
    for the j-vectors j of function_order(n, a), a = 1..n-1 (ANZC route:
    Kluemper, Batchelor & Pearce, J. Phys. A 24 (1991) 3111).  The rule gives
    the printed rows, and for n=5 the c_25 row (3, 3, -2, -2, -2) where the
    print reads (3, 3, -2, 2, 2), which does not annihilate uniform mu.
    """
    n = tabulated_rank(n)
    mu = np.array(finite_vector("chemical potentials", mu, n))
    beta = finite_real("beta", beta)
    rows = [[a - n * (i in j) for i in range(1, n + 1)]
            for a in range(1, n) for j in function_order(n, a)]
    return np.array([beta / n * np.dot(row, mu) for row in rows])


# ----------------------------------------------------------------------
# exact rational form in u = e^{-|k|/4}; polynomials are integer arrays,
# lowest power first

@lru_cache(maxsize=None)
def _denominator(n):
    """D(u) = S_4(u) S_{4n}(u) = (1-u^4)(1-u^{4n})/(1-u)^2; D(0) = 1."""
    return np.convolve(np.ones(4, int), np.ones(4 * n, int))


@lru_cache(maxsize=None)
def _entry_form(n, entry_id, s4, flip, side):
    """Exact form of one entry on one side of k = 0 (side = sign k).

    Returns (R, E) with K-hat(k) = R(u)/D(u) + sum_r E_r e^{r|k|/4}: R's
    integer coefficients, lowest power first, and the pairs (rate r > 0,
    integer E_r) in ascending rate.  The numerator over D is summed in
    integers, then its negative powers are divided out from the lowest up
    (exact, as D(0) = 1).
    """
    a, b, extras = _ENTRIES[n][entry_id]
    lo, hi = min(a, b), max(a, b)
    den = _denominator(n)
    core_side = -side if flip else side
    # the numerator over D as (power of u, integer polynomial) parts, unshifted
    parts = [(2 * (hi - lo), np.convolve(np.ones(4 * lo, int), np.ones(4 * (n - hi), int)))]
    parts += [(0, -den)] * (a == b)
    parts += [(2 * (gamma2 - alpha2 * core_side), c * den) for c, alpha2, gamma2 in extras]
    low = min(0, min(p for p, _ in parts) - side * s4)
    num = np.zeros(max(len(den), max(p + len(q) for p, q in parts) - side * s4) - low, int)
    for p, q in parts:
        num[p - side * s4 - low:][: len(q)] += q
    grow = []
    for i in range(-low):  # num[i] multiplies u^{low + i}, a negative power
        if num[i]:
            grow.append((-(low + i), int(num[i])))
            num[i : i + len(den)] -= num[i] * den
    rem = num[-low:]
    rem.flags.writeable = False
    return rem, tuple(sorted(grow))


def _tables(n, triples):
    """{side: (R, grow)} for the entries (entry_id, s4, flip): R (rows, W)
    their numerators over D, zero-padded, and grow their growing
    exponentials as (row, rate, E)."""
    tables = {}
    for side in (1, -1):
        forms = [_entry_form(n, int(e), int(s4), bool(fl), side) for e, s4, fl in triples]
        width = max(len(rem) for rem, _ in forms)
        R = np.array([np.pad(rem, (0, width - len(rem))) for rem, _ in forms])
        tables[side] = R, [(t, rate, c) for t, (_, g) in enumerate(forms) for rate, c in g]
    return tables


def _evaluate(n, tables, k):
    """(rows, len(k)) values of the tabled entries at the real k: on each
    side of k = 0, one Horner pass in u over all rows (a zero leading
    coefficient changes nothing, so each value is its entry's own), the
    division by D(u), then the growing exponentials.  NaN, on neither
    side, raises DomainError; +-inf are the limits."""
    if np.isnan(k).any():
        raise DomainError("kernel evaluated at k = NaN")
    kappa = np.abs(k)
    u = np.exp(-0.25 * kappa)
    den = np.polyval(_denominator(n)[::-1].astype(float), u)
    out = np.empty((len(tables[1][0]), k.size))
    for side, mask in ((1, k >= 0), (-1, k < 0)):
        if not mask.any():
            continue
        R, grow = tables[side]
        us, val = u[mask], np.zeros((len(R), mask.sum()))
        for column in R.T[::-1].astype(float):
            val *= us
            val += column[:, None]
        val /= den[mask]
        for t, rate, c in grow:
            val[t] += c * np.exp(0.25 * rate * kappa[mask])
        out[:, mask] = val
    return out


def _kink_jumps(n, tables, orders):
    """(rows, orders) jumps da_p = a_p^+ - a_p^-, p = 1..orders, of the
    one-sided expansions K-hat(k) = sum_p a_p^+- k^p at k = 0 of tabled
    entries without growing exponentials.  On a side u^m = e^{-m|k|/4}, so
    R and D expand with the integer moments r_p = sum_m R_m (-m)^p, and R/D
    by one series division in integers: Q_p = r_p d_0^p - sum_{j=1..p}
    C(p, j) d_j d_0^{j-1} Q_{p-j} is 4^p p! d_0^{p+1} times the coefficient
    of |k|^p = (side k)^p.  Each jump is one rounding of a ratio of ints."""
    def moments(poly):  # in Python ints, which do not overflow
        V = [[(-m) ** p for p in range(orders + 1)] for m in range(poly.shape[-1])]
        return poly.astype(object) @ np.array(V, dtype=object)

    d = moments(_denominator(n))
    Q = {}
    for side in (1, -1):
        r, Q[side] = moments(tables[side][0]), []
        for p in range(orders + 1):
            Q[side].append(r[:, p] * d[0] ** p - sum(
                comb(p, j) * d[j] * d[0] ** (j - 1) * Q[side][p - j] for j in range(1, p + 1)))
    return np.array([(Q[1][p] - (-1) ** p * Q[-1][p]) / (4**p * factorial(p) * d[0] ** (p + 1))
                     for p in range(1, orders + 1)], dtype=float).T


def kernel_entry_value(n, entry_id, k, s4=0, flip=False):
    """One assembled kernel entry K-hat(k) at every real k (_entry_form);
    growing exponentials belong only to raw catalogue entries (s4 = 0).
    Every assembled position of n = 4 and 5 lies within 1.3e-15 of an
    80-digit evaluation of the direct formula for |k| <= 64, k = 0 and
    |k| = 1e-13 included."""
    k = np.asarray(k, dtype=float)
    val = _evaluate(n, _tables(n, [(entry_id, s4, flip)]), np.atleast_1d(k))[0]
    return float(val[0]) if k.ndim == 0 else val


class KernelSystem:
    """Assembled kernel system for n = 4 or 5.

    positions[I][J] = (entry_id, s4, flip) resolves every matrix element to
    a catalogued entry, a net shift-matrix exponent (units of k/4) and an
    optional k -> -k reflection from the Hermiticity relation.  The
    distinct triples (39 of 196 at n = 4, 213 of 900 at n = 5) have one
    table per side (_tables), built once, and the positions gather values.
    """

    def __init__(self, n):
        self.n = n = tabulated_rank(n)
        self.dims = REP_DIMS[n]
        self.dim = sum(self.dims)
        self.offsets = np.concatenate(([0], np.cumsum(self.dims)))
        self._build_positions()
        self._tables = _tables(n, self._triples)

    def _build_positions(self):
        n = self.n
        core = {ij: (np.array(mat), False) for ij, mat in _BLOCKS[n].items()}
        # a block not printed is the Hermitian partner of a known block,
        # K_{i,j}(k) = K_{j,i}(-k)^t, where one exists, and otherwise the
        # reflection of K_{n-j,n-i}: [p, q] = core_{n-j,n-i}[dj-1-q, di-1-p]
        for i, j in product(range(1, n), repeat=2):
            if (i, j) in core:
                continue
            if (j, i) in core:
                src, sflip = core[(j, i)]
                core[(i, j)] = src.T, not sflip
            else:
                src, sflip = core[(n - j, n - i)]
                core[(i, j)] = src[::-1, ::-1].T, sflip

        positions = np.empty((self.dim, self.dim, 3), dtype=int)
        for (i, j), (mat, flip) in core.items():
            block = positions[self.offsets[i - 1]: self.offsets[i],
                              self.offsets[j - 1]: self.offsets[j]]
            # the full matrix is T^-1 C T with one global diagonal T, so
            # the sandwich exponent is t_col - t_row for every block; the
            # Hermiticity k -> -k flip lives entirely in the core.
            block[..., 0] = mat
            block[..., 1] = np.array(_tpow4(n, j)) - np.array(_tpow4(n, i))[:, None]
            block[..., 2] = flip
        self.positions = positions
        # the distinct triples, and each position's index among them
        self._triples, self._triple_of = np.unique(
            positions.reshape(-1, 3), axis=0, return_inverse=True
        )

    def max_growth(self):
        """Largest growing-exponential rate (units of |k|/4) over positions.

        Raw catalogue entries grow like up to e^{3|k|/2}; the shift-matrix
        sandwich cancels that in the integers of _entry_form, so no
        assembled position of n = 4 or 5 has a growing exponential and the
        rate is 0.  The FFT convolutions multiply each transform mode by
        these entries unfiltered, so a positive rate would amplify roundoff
        without bound: it means a transcription error and is rejected.
        """
        worst = max((rate for _, grow in self._tables.values() for _, rate, _ in grow),
                    default=0)
        if worst > 0:
            raise InconsistencyError(
                f"kernel of n={self.n} grows like e^{{{worst}|k|/4}}; "
                "transcription inconsistent"
            )
        return worst

    def matrix(self, k):
        """K-hat(k) with shape (dim, dim) for scalar k, else (dim, dim, len(k)).

        The array is a view of a mode-major (len(k), dim, dim) buffer, the
        layout the solver contracts in; transpose(2, 0, 1) recovers it."""
        k = np.asarray(k, dtype=float)
        out = self._gather(_evaluate(self.n, self._tables, np.atleast_1d(k)))
        return out[0] if k.ndim == 0 else out.transpose(1, 2, 0)

    def matrix0(self):
        """The k = 0 kernel matrix, matrix(0.0), computed once (a copy)."""
        return self._matrix0.copy()

    def limit(self):
        """K-hat(+inf) = matrix(inf), the large-k limit, exact in integers
        (entries -1, 0, 1, 2); K-hat(-inf) is its transpose."""
        return self._single(np.inf)

    def jumps(self, orders):
        """(orders, dim, dim) kink jumps da_p of K-hat at k = 0, p = 1..orders
        (_kink_jumps): they set the algebraic tail of K(x)."""
        self.max_growth()
        return self._gather(_kink_jumps(self.n, self._tables, orders))

    @cached_property
    def _matrix0(self):
        return self._single(0.0)

    def _single(self, k):
        # matrix(k) not through matrix: traced matrix calls are grid tables
        return self._gather(_evaluate(self.n, self._tables, np.array([k])))[0]

    def _gather(self, values):
        """(..., dim, dim) positions of the triples' values (rows, ...)."""
        shape = values.shape[:0:-1] + (self.dim, self.dim)
        return values.T.take(self._triple_of, axis=-1).reshape(shape)

    # -- driving -------------------------------------------------------

    def driving_hat(self, k):
        """d-hat(k) rows for every function; shape (dim,) or (dim, len(k))."""
        n = self.n
        k = np.asarray(k, dtype=float)
        scalar = k.ndim == 0
        karr = np.atleast_1d(k)
        kappa = np.abs(karr)
        out = np.empty((self.dim, karr.size))
        for a in range(1, n):
            num = -np.expm1(-(n - a) * kappa)
            den = -np.expm1(-n * kappa)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.exp(-0.5 * a * kappa) * num / den
            ratio = np.where(kappa < 1e-14, (n - a) / n, ratio)
            for q, p4 in enumerate(_tpow4(n, a)):
                out[self.offsets[a - 1] + q] = ratio * np.exp(-0.25 * p4 * karr)
        return out[:, 0] if scalar else out

    def driving0(self):
        return self.driving_hat(0.0)

    def constants(self, mu, beta):
        return integration_constants(self.n, mu, beta)


@lru_cache(maxsize=None)
def kernel_system(n):
    return KernelSystem(n)
