"""Kernel matrices, driving terms and integration constants."""

import mpmath
import numpy as np
import pytest

from qtmchain import (
    common_kernel,
    integration_constants,
    kernel_system,
)
from qtmchain.errors import DomainError
from qtmchain.kernels import _ENTRIES, REP_DIMS, kernel_entry_value, _tpow4


def direct_entry(n, entry_id, s4, flip, k):
    """An assembled entry from its defining formula in float64: the common
    kernel plus the extras at -k if flipped, times the shift e^{s4 k/4}."""
    a, b, extras = _ENTRIES[n][entry_id]
    kk = -k if flip else k
    val = common_kernel(n, a, b, kk)
    for c, alpha2, gamma2 in extras:
        val = val + c * np.exp(0.5 * (alpha2 * kk - gamma2 * np.abs(kk)))
    return np.exp(0.25 * s4 * k) * val


def reference_entry(n, entry_id, s4, flip, k):
    """The same formula in mpmath at the working precision, k = 0 by its
    limit lo (n - hi)/n - delta_ab + sum of the extras' coefficients."""
    a, b, extras = _ENTRIES[n][entry_id]
    lo, hi = min(a, b), max(a, b)
    k = mpmath.mpf(float(k))
    kk = -k if flip else k
    if k == 0:
        val = mpmath.mpf(lo * (n - hi)) / n
    else:
        sh = lambda m: mpmath.sinh(m * kk / 2)
        val = mpmath.exp(abs(kk) / 2) * sh(lo) * sh(n - hi) / (sh(1) * sh(n))
    val -= a == b
    for c, alpha2, gamma2 in extras:
        val += c * mpmath.exp((alpha2 * kk - gamma2 * abs(kk)) / 2)
    return mpmath.exp(s4 * k / 4) * val


def branch_entry(n, entry_id, s4, flip, side):
    """The defining formula in mpmath on the analytic branch of one side of
    k = 0, |k| read as side * k: a function of k whose singularity at
    k = 0 is removable."""
    a, b, extras = _ENTRIES[n][entry_id]
    lo, hi = min(a, b), max(a, b)

    def value(k):
        kk = -k if flip else k
        kappa = side * k
        sh = lambda m: mpmath.sinh(m * kk / 2)
        val = mpmath.exp(kappa / 2) * sh(lo) * sh(n - hi) / (sh(1) * sh(n)) - (a == b)
        for c, alpha2, gamma2 in extras:
            val += c * mpmath.exp((alpha2 * kk - gamma2 * kappa) / 2)
        return mpmath.exp(s4 * k / 4) * val

    return value


class TestCommonKernel:
    def test_zero_limits(self):
        assert common_kernel(4, 1, 1, 0.0) == pytest.approx(-0.25, abs=1e-14)
        assert common_kernel(5, 2, 2, 0.0) == pytest.approx(0.2, abs=1e-14)
        assert common_kernel(5, 1, 4, 0.0) == pytest.approx(0.2, abs=1e-14)

    def test_even_in_k(self):
        k = np.linspace(0.1, 40.0, 57)
        for (n, a, b) in ((4, 1, 2), (5, 2, 3), (5, 1, 4)):
            assert np.allclose(common_kernel(n, a, b, k), common_kernel(n, a, b, -k))

    def test_symmetric_in_ab(self):
        k = np.linspace(-9, 9, 31)
        assert np.allclose(common_kernel(5, 1, 3, k), common_kernel(5, 3, 1, k))

    def test_decay_at_large_k(self):
        assert abs(common_kernel(4, 1, 1, 300.0)) < 1e-100
        assert abs(common_kernel(5, 1, 4, 200.0)) < 1e-60


class TestStructuralDifferences:
    def test_sl4_printed_offsets(self):
        k = np.linspace(-8, 8, 61)
        d = kernel_entry_value(4, 1, k) - kernel_entry_value(4, 0, k)
        assert np.max(np.abs(d - np.exp(-k / 2 - np.abs(k) / 2))) < 1e-13
        d = kernel_entry_value(4, 10, k) - kernel_entry_value(4, 3, k)
        assert np.max(np.abs(d - np.exp(-np.abs(k)))) < 1e-13
        d = kernel_entry_value(4, 8, k) - kernel_entry_value(4, 3, k)
        assert np.max(np.abs(d - 2 * np.exp(-k / 2 - np.abs(k) / 2))) < 1e-13

    def test_sl5_printed_offsets(self):
        k = np.linspace(-8, 8, 61)
        d = kernel_entry_value(5, 30, k) - kernel_entry_value(5, 26, k)
        expect = np.exp(1.5 * k - np.abs(k)) - np.exp(1.5 * k) - np.exp(0.5 * k)
        assert np.max(np.abs(d - expect)) < 1e-13
        d = kernel_entry_value(5, 35, k) - kernel_entry_value(5, 26, k)
        expect = np.exp(-1.5 * np.abs(k)) - np.exp(-0.5 * np.abs(k))
        assert np.max(np.abs(d - expect)) < 1e-13

    def test_exponential_structure(self):
        # every entry minus the common kernel is the printed finite sum of
        # exponentials e^{alpha k - gamma |k|}
        k = np.linspace(-6, 6, 41)
        for n in (4, 5):
            for entry_id, (a, b, extras) in _ENTRIES[n].items():
                resid = kernel_entry_value(n, entry_id, k) - common_kernel(n, a, b, k)
                for c, a2, g2 in extras:
                    resid = resid - c * np.exp(0.5 * (a2 * k - g2 * np.abs(k)))
                assert np.max(np.abs(resid)) < 1e-12, (n, entry_id)


class TestAssembledMatrix:
    @pytest.mark.parametrize("n", [4, 5])
    def test_dimensions(self, n):
        K = kernel_system(n).matrix(0.37)
        dim = sum(REP_DIMS[n])
        assert K.shape == (dim, dim)
        assert dim == {4: 14, 5: 30}[n]

    @pytest.mark.parametrize("n", [4, 5])
    def test_hermiticity(self, n):
        sy = kernel_system(n)
        ks = np.linspace(-31.0, 31.0, 50)
        dev = np.max(np.abs(sy.matrix(ks) - sy.matrix(-ks).transpose(1, 0, 2)))
        assert dev <= 1e-13

    @pytest.mark.parametrize("n", [4, 5])
    def test_reflection_closure(self, n):
        # applying the reflection relation to the assembled blocks returns them
        sy = kernel_system(n)
        dims, off, nrep = sy.dims, sy.offsets, n - 1
        for k in (0.37, 1.9, -2.6, 11.0):
            K = sy.matrix(k)
            y = np.exp(k / 2)
            T = [np.diag([y ** (p / 2.0) for p in _tpow4(n, j)]) for j in range(1, n)]
            worst = 0.0
            for i in range(1, nrep + 1):
                for j in range(1, nrep + 1):
                    di, dj = dims[i - 1], dims[j - 1]
                    Kij = K[off[i - 1]:off[i - 1] + di, off[j - 1]:off[j - 1] + dj]
                    Ksrc = K[off[nrep - j]:off[nrep - j] + dj,
                             off[nrep - i]:off[nrep - i] + di]
                    Pi, Pj = np.eye(di)[::-1], np.eye(dj)[::-1]
                    rhs = (
                        np.linalg.inv(T[i - 1]) @ Pi @ np.linalg.inv(T[nrep - i])
                        @ Ksrc.T @ T[nrep - j] @ Pj @ T[j - 1]
                    )
                    worst = max(worst, float(np.max(np.abs(Kij - rhs))))
            assert worst <= 1e-13

    @pytest.mark.parametrize("n", [4, 5])
    def test_positions_take_their_entry_values(self, n):
        # each distinct (entry, s4, flip) is evaluated once and gathered into
        # every position that holds it: bit for bit the entry's own value
        sy = kernel_system(n)
        ks = np.array([0.37, -2.6, 11.0, 137.0])
        K = sy.matrix(ks)
        for I in range(sy.dim):
            for J in range(sy.dim):
                e, s4, fl = sy.positions[I, J]
                want = kernel_entry_value(n, e, ks, s4=s4, flip=bool(fl))
                assert K[I, J].tobytes() == want.tobytes(), (I, J)

    @pytest.mark.parametrize("n", [4, 5])
    def test_zero_mode_limit(self, n):
        sy = kernel_system(n)
        assert sy.matrix0().tobytes() == sy.matrix(0.0).tobytes()
        assert np.max(np.abs(sy.matrix0() - sy.matrix(1e-12))) < 1e-10

    @pytest.mark.parametrize("n", [4, 5])
    def test_limit_at_infinity(self, n):
        # K-hat(+inf) = limit() is exact in integers (entries -1, 0, 1, 2)
        # and K-hat(-inf) its transpose, bit for bit; K-hat reaches it like
        # e^{-|k|/4} at n = 5 and e^{-|k|/2} at n = 4 (6.7e-4 and 2.3e-7 at
        # |k| = 32), so at |k| = 200 both sides lie within 1e-20 of it
        sy = kernel_system(n)
        plus, minus = sy.matrix(np.inf), sy.matrix(-np.inf)
        assert sy.limit().tobytes() == plus.tobytes()
        assert np.array_equal(plus, np.round(plus))
        assert set(np.unique(plus)) <= {-1.0, 0.0, 1.0, 2.0}
        assert np.array_equal(minus, plus.T)
        assert np.max(np.abs(sy.matrix(200.0) - plus)) < 1e-20
        assert np.max(np.abs(sy.matrix(-200.0) - minus)) < 1e-20

    @pytest.mark.parametrize("n", [4, 5])
    def test_nan_k_raises(self, n):
        # a NaN k lies on neither side of k = 0, so no side's pass would
        # fill its column; it is refused, and +-inf stay the limits
        sy = kernel_system(n)
        for k in (np.nan, np.array([0.5, np.nan, 1.0])):
            with pytest.raises(DomainError):
                sy.matrix(k)
            with pytest.raises(DomainError):
                kernel_entry_value(n, 1, k)
        assert np.all(np.isfinite(sy.matrix(np.array([-np.inf, 0.5, np.inf]))))
        assert np.isfinite(kernel_entry_value(n, 1, np.inf))

    @pytest.mark.parametrize("n", [4, 5])
    def test_growth_budget(self, n):
        # the FFT convolutions filter no mode: no entry may grow in |k|
        assert kernel_system(n).max_growth() <= 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_positions_match_high_precision_reference(self, n):
        # every position against the defining formula at 80 digits, which
        # covers the e^{96} cancellation of raw terms at |k| = 64; the
        # measured worst deviation is 1.3e-15 (n = 5)
        rng = np.random.default_rng(11)
        ks = np.concatenate([
            [0.0, 1e-13, -1e-13, 1e-6, -1e-6, 1.99, -1.99, 2.0, -2.0, 2.01, -2.01,
             30.0, -30.0, 64.0, -64.0],
            rng.uniform(-12.0, 12.0, 30),
        ])
        sy = kernel_system(n)
        K = sy.matrix(ks)
        with mpmath.workdps(80):
            want = np.array([
                [float(reference_entry(n, e, s4, bool(fl), k)) for k in ks]
                for e, s4, fl in sy._triples
            ])
        dev = np.abs(K - want[sy._triple_of.reshape(sy.dim, sy.dim)])
        assert np.max(dev) <= 2e-15

    @pytest.mark.parametrize("n", [4, 5])
    def test_kink_jumps_match_high_precision_reference(self, n):
        # the jumps of the one-sided Taylor coefficients at k = 0, p = 1..3,
        # against 50-digit Taylor series of each side's branch of the
        # defining formula, for every distinct triple; measured worst
        # deviation 2.2e-16 (n = 5), one rounding of the exact ratio
        sy = kernel_system(n)
        with mpmath.workdps(50):
            want = []
            for e, s4, fl in sy._triples:
                plus, minus = (
                    mpmath.taylor(branch_entry(n, e, int(s4), bool(fl), side), 0, 3,
                                  singular=True)
                    for side in (1, -1)
                )
                want.append([float(plus[p] - minus[p]) for p in (1, 2, 3)])
        want = np.array(want).T[:, sy._triple_of].reshape(3, sy.dim, sy.dim)
        assert np.max(np.abs(sy.jumps(3) - want)) <= 1e-14

    @pytest.mark.parametrize("n", [4, 5])
    def test_reflection_rule_on_entry_ids(self, n):
        # every block, printed or derived, is the reflection of block
        # (n-j, n-i) in its entry ids and flips; the shift exponents are
        # the T-sandwich's (_tpow4) and do not obey it at n = 5
        sy = kernel_system(n)
        off = sy.offsets
        for i in range(1, n):
            for j in range(1, n):
                block = sy.positions[off[i - 1]:off[i], off[j - 1]:off[j]]
                src = sy.positions[off[n - j - 1]:off[n - j], off[n - i - 1]:off[n - i]]
                mirrored = src[::-1, ::-1].swapaxes(0, 1)
                assert np.array_equal(block[..., 0], mirrored[..., 0]), (i, j)
                assert np.array_equal(block[..., 2], mirrored[..., 2]), (i, j)

    def test_large_k_stability(self):
        # the exact forms stay finite and match the direct formula in float64,
        # whose own cancellation error sets the bound
        for n in (4, 5):
            sy = kernel_system(n)
            ks = np.concatenate([-np.linspace(0.5, 6, 23), np.linspace(0.5, 6, 23)])
            for I in range(sy.dim):
                for J in range(sy.dim):
                    e, s4, fl = sy.positions[I, J]
                    a = kernel_entry_value(n, e, ks, s4=s4, flip=bool(fl))
                    b = direct_entry(n, e, s4, bool(fl), ks)
                    assert np.max(np.abs(a - b)) < 5e-12
            assert np.all(np.isfinite(sy.matrix(137.0)))


class TestDriving:
    def test_zero_mode(self):
        d4 = kernel_system(4).driving_hat(0.0)
        assert d4[0] == pytest.approx(0.75)
        assert d4[4] == pytest.approx(0.5)
        assert d4[-1] == pytest.approx(0.25)
        d5 = kernel_system(5).driving_hat(0.0)
        assert d5[-1] == pytest.approx(0.2)

    def test_shift_matrix_factors(self):
        # n=4: only T_2 differs from identity, diag(1/y, 1,1,1,1, y)
        k = 0.83
        y = np.exp(k / 2)
        d = kernel_system(4).driving_hat(k)
        ratio = np.sinh((4 - 2) * k / 2) / np.sinh(4 * k / 2)
        rep2 = d[4:10]
        assert rep2[0] == pytest.approx(ratio * y)        # (T_2^-1)_11 = y
        assert rep2[1] == pytest.approx(ratio)
        assert rep2[5] == pytest.approx(ratio / y)        # (T_2^-1)_66 = 1/y
        rep1 = d[:4]
        assert np.allclose(rep1, np.sinh(3 * k / 2) / np.sinh(2 * k))

    def test_decay(self):
        for n in (4, 5):
            assert np.max(np.abs(kernel_system(n).driving_hat(220.0))) < 1e-8
            assert np.max(np.abs(kernel_system(n).driving_hat(-220.0))) < 1e-8


class TestConstants:
    def test_printed_first_entry(self):
        c = integration_constants(4, (1.0, 0.0, 0.0, 0.0), 1.0)
        assert c[0] == pytest.approx(-0.75)

    @pytest.mark.parametrize("n", [4, 5])
    def test_uniform_mu_annihilated(self, n):
        c = integration_constants(n, (1.0,) * n, 1.0)
        assert np.max(np.abs(c)) == 0.0
        c = integration_constants(n, (0.0,) * n, 1.0)
        assert np.max(np.abs(c)) == 0.0

    def test_completed_c25_row_follows_the_rule(self):
        # the rule's row 25 at n = 5 (a = 3, j = (3, 4, 5)) is the completed
        # row; the print reads (3, 3, -2, 2, 2)
        rows = np.array([integration_constants(5, mu, 5.0) for mu in np.eye(5)]).T
        assert rows[24].tolist() == [3, 3, -2, -2, -2]

    def test_lengths(self):
        assert integration_constants(4, (0.1, 0, 0, 0), 2.0).shape == (14,)
        assert integration_constants(5, (0.1, 0, 0, 0, 0), 2.0).shape == (30,)
