"""Fixed-point solver, convolutions, eigenvalue reconstruction."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import hfft, ihfft

from qtmchain import (
    ConvergenceError,
    Grid,
    asymptotic_constants,
    default_grid,
    free_energy,
    gamma_term,
    kernel_system,
    log_eigenvalue,
    solve_nlie,
)
from qtmchain import solver
from qtmchain.errors import DomainError
from qtmchain.kernels import kernel_entry_value
from qtmchain.solver import (
    _LIMIT_DEVIATION,
    _TAIL_FIT_TOL,
    _contract,
    _convolve,
    _grid_system,
    _image_basis,
    _iterate,
    _log1p_exp,
    _precondition,
    _preconditioner,
    _tail_fit,
    _tangent_solver,
    _weight,
    _Workspace,
)

EPS = np.finfo(float).eps


class TestAsymptotics:
    def test_sl4_counting_values(self):
        logb, logB = asymptotic_constants(4, T=1.0)
        assert logb[0] == pytest.approx(np.log(1.0 / 3.0))
        assert logB[0] == pytest.approx(np.log(4.0 / 3.0))

    def test_sl5_conjugate_pair(self):
        logb, _ = asymptotic_constants(5, T=2.0)
        assert logb[0] == pytest.approx(np.log(0.25))
        assert logb[-1] == pytest.approx(logb[0])

    @pytest.mark.parametrize("n", [4, 5])
    def test_constant_equation(self, n):
        # log binf = -c - Khat(0) log Binf to 1e-12, mu = 0 and mu != 0
        for mu in (None, tuple(0.12 * (-1) ** i for i in range(n))):
            logb, logB = asymptotic_constants(n, T=1.5, mu=mu)
            sys = kernel_system(n)
            c = sys.constants(mu or (0.0,) * n, 1.0 / 1.5)
            resid = np.max(np.abs(logb + c + sys.matrix0() @ logB))
            assert resid <= 1e-12


class TestConvolution:
    """The solver's one convolution, _convolve, on the half space x <= 0
    of its window."""

    def grid(self):
        return Grid(half_width=40.0, points=2048)

    def test_constant_input(self):
        grid = self.grid()
        gsys = _grid_system(4, grid.half_width, grid.points)
        logB_inf = np.linspace(0.1, 0.4, 14)
        logB = np.tile(logB_inf[:, None], (1, grid.points // 2 + 1)).astype(complex)
        out = _convolve(gsys, logB, logB_inf)
        expect = kernel_system(4).matrix0() @ logB_inf
        assert out.shape == (14, grid.points // 2 + 1)
        assert np.max(np.abs(out - expect[:, None])) < 1e-12

    def test_gaussian_against_quadrature(self):
        # trapezoid quadrature of the transform integral on an independent k
        # mesh, Richardson-extrapolated in dk: the |k| kink at k = 0 leaves
        # the plain rule an O(dk^2) error of 1.1e-8 at dk = 1e-3.  The
        # Gaussian is component 1 of n = 4, every other component zero, so
        # row 0 of the output is the convolution with entry [0, 1] alone.
        # The even, real Gaussian keeps the symmetry g(-x) = conj g(x), so
        # the output at x > 0 is read through out(-x) = conj out(x)
        grid = self.grid()
        M = grid.points
        sys = kernel_system(4)
        e, s4, flip = sys.positions[0, 1]

        def entry(k):
            return kernel_entry_value(4, e, k, s4=s4, flip=bool(flip))

        sigma, amp, c_inf = 1.7, 0.8, 0.31
        g = amp * np.exp(-grid.x[: M // 2 + 1] ** 2 / (2 * sigma**2))
        logB = np.zeros((14, M // 2 + 1), dtype=complex)
        logB[1] = g + c_inf
        logB_inf = np.zeros(14)
        logB_inf[1] = c_inf
        out = _convolve(_grid_system(4, grid.half_width, M), logB, logB_inf)[0]

        def trapezoid(x, dk):
            kq = np.linspace(-60.0, 60.0, int(round(120.0 / dk)) + 1)
            ghat = amp * sigma * np.sqrt(2 * np.pi) * np.exp(-(sigma * kq) ** 2 / 2.0)
            return np.trapezoid(entry(kq) * ghat * np.exp(1j * kq * x), kq) / (2 * np.pi)

        for x_near in (-3.1, 0.0, 2.4):
            # probe on grid points: rounding an off-grid x alone costs 1.8e-3
            idx = int(round((x_near + grid.half_width) / grid.dx))
            x = grid.x[idx]
            value = out[idx] if idx <= M // 2 else np.conj(out[M - idx])
            direct = (4 * trapezoid(x, 5e-4) - trapezoid(x, 1e-3)) / 3
            direct = direct + entry(0.0) * c_inf
            assert abs(value - direct) <= 1e-9 * (1.0 + abs(direct))

    @pytest.mark.parametrize("n", [4, 5])
    def test_reproduces_solver_fixed_point(self, n):
        # the convolution with the drive made here by the complex FFT of the
        # full grid: the converged state satisfies
        # log b = -(c + beta J d + K * log B) on x <= 0, to the stop rule's
        # tolerance, at mu = 0 and at unequal mu (measured 3.3e-14,
        # 1.1e-13 for n = 4 and 7.2e-14, 8.0e-14 for n = 5)
        mu_cases = {
            4: [(1.0, None), (2.0, (0.3, 0.0, 0.0, -0.3))],
            5: [(1.0, None), (1.0, (0.1, 0.05, 0.0, -0.02, -0.13))],
        }
        tol = 1e-12
        for T, mu in mu_cases[n]:
            state = solve_nlie(n, T=T, mu=mu, tol=tol)
            grid = state.grid
            half = grid.points // 2 + 1
            gsys = _grid_system(n, grid.half_width, grid.points)
            d_x = np.fft.ifft(
                2 * np.pi * kernel_system(n).driving_hat(grid.k)
                * np.exp(-1j * grid.k * grid.half_width), axis=1
            ) / grid.dx
            drive = kernel_system(n).constants(state.mu, 1.0 / T)[:, None] + d_x / T
            conv = _convolve(gsys, state.logB()[:, :half], state.logB_inf)
            worst = np.max(np.abs((state.logb + drive)[:, :half] + conv))
            assert worst <= tol, (T, mu)

    def test_far_field_against_wider_grid(self):
        # the closure's far field (the sources past 2L and the pad sources
        # whose lag wraps, through the kernel tail) against the plain FFT
        # convolution on a grid 8x as wide at the same dx, which holds the
        # fitted tail (x^-2 and x^-3) itself out to 8L; the input is the
        # mu != 0 state, whose x^-2 tail the closure must carry.  Measured:
        # 2.4e-11, where leaving out the far field costs 6.5e-9
        state = solve_nlie(4, T=1.0, mu=(0.3, 0.0, 0.0, -0.3))
        grid = state.grid
        L, M, N = grid.half_width, grid.points, grid.points // 2
        gsys = _grid_system(4, L, M)
        d = state.logB()[:, : N + 1] - state.logB_inf[:, None]
        out = _convolve(gsys, d, np.zeros(14))
        a = _tail_fit(gsys.far, d)[1] / gsys.far.scale
        wide = Grid(8 * L, 8 * M)
        x = wide.x[: wide.points // 2 + 1]
        ext = (a @ (-L / x[None, : -N - 1]) ** np.array([[2.0], [3.0]])).astype(complex)
        seam = d[:, :1].real + 1j * a.sum(axis=1, keepdims=True).imag  # x = -L
        ext = np.concatenate([ext, seam, d[:, 1:]], axis=1)
        direct = _convolve(_grid_system(4, wide.half_width, wide.points), ext, np.zeros(14))
        direct = direct[:, -N - 1:]
        direct[:, 0] = direct[:, 0].real  # the window's seam keeps Re alone
        assert np.max(np.abs(out - direct)) <= 1e-10
        far = np.concatenate(list(gsys.tail @ np.hstack([a, a.conj()])), axis=1) @ gsys.far.H
        assert np.max(np.abs(out - far - direct)) >= 1e-9

    def test_smallest_grid_builds(self):
        # the image correction reads the kernel's exact kink jumps, not
        # samples at k = 0, so the smallest grid (8 points, padded to 16 for
        # the convolution) builds
        gsys = _grid_system(4, 10.0, 8)
        assert gsys.Kpad.shape == (9, 14, 14)
        assert np.all(np.isfinite(gsys.Kpad))

    def test_tail_violation_exceeds_fit_tol(self):
        # a 1/|x| tail, which no term of the far field carries: its fit by
        # |x|^-2 and |x|^-3 on (-L, -L/2] misses it by 3.2e-3, above the
        # _TAIL_FIT_TOL at which the solver warns, where the 1/(1 + x^2)
        # that the closure carries leaves 2.0e-7 (its x^-4)
        grid = self.grid()
        far = _grid_system(4, grid.half_width, grid.points).far
        x = grid.x[: grid.points // 2 + 1]
        for slow, above in ((1.0 / (1.0 + np.abs(x)), True),
                            (1.0 / (1.0 + x**2), False)):
            residual = _tail_fit(far, np.tile(slow, (14, 1)).astype(complex))[0]
            assert (residual > _TAIL_FIT_TOL) == above, residual


class TestSolverKernels:
    """The per-mode contraction, the half-mode inverse and log(1+e^z)
    against plain references, to float64 rounding bounds."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_half_table_transpose_identity(self, n):
        # K-hat(-k_m) = K-hat(k_m)^T, on which the half table rests, holds
        # to rounding (measured: bitwise) for every m != M/2 on the default
        # grid and on TestConvolution's L = 40, M = 2048 grid; the Nyquist
        # mode, sampled at k = -pi/dx, has no partner and is not its own
        # transpose: entries that tend to 2 theta(k) read 0 against 2
        sys = kernel_system(n)
        for grid in (default_grid(1.0), Grid(half_width=40.0, points=2048)):
            M = grid.points
            K = sys.matrix(grid.k).transpose(2, 0, 1)
            m = np.arange(1, M // 2)
            mirror = np.abs(K[M - m] - K[m].swapaxes(1, 2))
            assert np.max(mirror) <= 4 * EPS * np.max(np.abs(K))
            nyq = K[M // 2]
            split = np.abs(nyq - nyq.T) > 1.0
            assert split.any()
            assert set(np.round(nyq[split], 12)) == {0.0, 2.0}
            assert np.allclose(nyq[split] + nyq.T[split], 2.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5])
    def test_half_table_image_correction(self, n):
        # the solver's half table against the correction of the full table
        # built here from the kernel's exact kink jumps: the same table, and
        # the corrected modes M-m remain the transposes of the modes m to
        # rounding (1.1e-16 measured).  The table is that of the padded grid
        # (2L, 2M) on which the convolution runs; the window's table, for
        # the preconditioner, is its even modes
        window = default_grid(1.0)
        gsys = _grid_system(n, window.half_width, window.points)
        grid = Grid(2 * window.half_width, 2 * window.points)
        M, half = grid.points, grid.points // 2 + 1
        sys = kernel_system(n)
        K = sys.matrix(grid.k).transpose(2, 0, 1)
        flat = K.reshape(M, -1)
        basis = _image_basis(M, grid.half_width)
        full = (flat - basis @ sys.jumps(3).reshape(3, -1)).reshape(K.shape)
        table = gsys.Kpad
        assert np.shares_memory(gsys.Kmat, table)
        assert np.array_equal(gsys.Kmat, table[::2])
        bound = 4 * EPS * np.max(np.abs(table))
        assert np.max(np.abs(full[:half] - table)) <= bound
        mirror = full[M - np.arange(1, M // 2)] - table[1: M // 2].swapaxes(1, 2)
        assert np.max(np.abs(mirror)) <= bound

    @pytest.mark.parametrize("F", [14, 30])
    def test_contract_against_einsum(self, F):
        # the half-table product against einsum over the full (M, F, F)
        # table, Nyquist mode included, for the sizes F of n = 4 and 5: each
        # output is a sum of F products, so both lie within F eps sum |a||b|
        # of the exact sum
        M = 512
        half = M // 2 + 1
        rng = np.random.default_rng(F)
        table = rng.standard_normal((half, F, F))
        full = np.concatenate([table, table[half - 2: 0: -1].swapaxes(1, 2)])
        ghat = rng.standard_normal((F, M))
        ref = np.einsum("mrf,fm->rm", full, ghat)
        bound = 2 * F * EPS * np.einsum("mrf,fm->rm", np.abs(full), np.abs(ghat))
        out = _contract(table, ghat)
        assert out.shape == (F, M)
        assert np.all(np.abs(out - ref) <= bound)

    @pytest.mark.parametrize("cut", [1, 100, 256])
    def test_contract_past_the_cut(self, cut):
        # a table cut below M/2+1 takes the limit on the modes k > 0 past
        # the cut, and its transpose on their mirrors and the Nyquist mode:
        # against einsum over the whole table it stands for, to the bound
        # of test_contract_against_einsum
        M, F = 512, 14
        half = M // 2 + 1
        rng = np.random.default_rng(cut)
        table = rng.standard_normal((half, F, F))
        limit = rng.standard_normal((F, F))
        table[cut:] = limit
        table[-1] = limit.T
        full = np.concatenate([table, table[half - 2: 0: -1].swapaxes(1, 2)])
        ghat = rng.standard_normal((F, M))
        ref = np.einsum("mrf,fm->rm", full, ghat)
        bound = 2 * F * EPS * np.einsum("mrf,fm->rm", np.abs(full), np.abs(ghat))
        out = _contract(table[:cut], ghat, limit=limit)
        assert out.shape == (F, M)
        assert np.all(np.abs(out - ref) <= bound)

    @pytest.mark.parametrize("n, kept", [(4, 191), (5, 382)])
    def test_preconditioner_cut(self, n, kept):
        # the default window keeps Q for the modes below the cut alone:
        # 191 and 382 of its 1025 (|k| < 12 and 24), at most 20 % and 40 %.
        # Every mode past the cut lies within _LIMIT_DEVIATION of the limit
        # K-hat(+inf) (the Nyquist mode, sampled at -pi/dx, of K-hat(-inf),
        # its transpose), and the last kept mode does not.  A coarse
        # window, whose modes all depart from the limit, keeps every mode
        grid = default_grid(1.0)
        gsys = _grid_system(n, grid.half_width, grid.points)
        K, K_inf, cut = gsys.Kmat, gsys.K_inf, gsys.cut
        assert cut == kept and cut <= (0.2 if n == 4 else 0.4) * len(K)
        assert np.array_equal(K_inf, kernel_system(n).limit())
        assert np.all(np.max(np.abs(K[cut:-1] - K_inf), axis=(1, 2)) < _LIMIT_DEVIATION)
        assert np.max(np.abs(K[-1] - K_inf.T)) < _LIMIT_DEVIATION
        assert np.max(np.abs(K[cut - 1] - K_inf)) >= _LIMIT_DEVIATION
        coarse = _grid_system(n, 50.0, 64)
        assert coarse.cut == len(coarse.Kmat)
        # the grid's map holds the table below the cut and the limit's Q
        Q, Q_inf = gsys.precondition.args
        assert Q.shape == (cut,) + K_inf.shape and Q_inf.shape == K_inf.shape

    @pytest.mark.parametrize(
        "n, T, mu", [(4, 1.0, None), (5, 1.0, None), (4, 2.0, (0.3, 0.0, 0.0, -0.3))]
    )
    def test_half_inverse_against_inv(self, n, T, mu):
        # the map at the asymptote's W, I - Q W on every mode (Q kept for
        # the modes below the cut, its transposes for their mirrors, and
        # the limit Q_inf past the cut, as _precondition applies them),
        # against np.linalg.inv of the full A = I + K-hat W, mode by mode.
        # On the table's modes an inverse computed in float64 is within
        # F eps cond(A) |A^-1| of the exact one, and the product with W and
        # the difference add two roundings.  Past the cut the map is
        # A_inf^-1 = (I + K_inf W)^-1, with K_inf = K-hat(+inf) on k > 0
        # and its transpose on the mirrors and the Nyquist mode, and
        # A_inf^-1 - A^-1 = A^-1 (K-hat - K_inf) W A_inf^-1: its entries
        # are within |A^-1| |(K-hat - K_inf) W| |A_inf^-1| (infinity
        # norms), where every entry of K-hat - K_inf is below
        # _LIMIT_DEVIATION
        grid = default_grid(T)
        gsys = _grid_system(n, grid.half_width, grid.points)
        logb_inf, _ = asymptotic_constants(n, T, mu)
        W = _weight(logb_inf).real
        assert np.all((W > 0) & (W < 1))
        K, M, F, cut = gsys.Kmat, grid.points, len(W), gsys.cut
        full = np.concatenate([K, K[M // 2 - 1: 0: -1].swapaxes(1, 2)])
        A = full * W + np.eye(F)
        ref = np.linalg.inv(A)
        Q, Q_inf = _preconditioner(K[:cut], gsys.K_inf, W)
        assert Q.shape == (cut, F, F)  # the table below the cut only
        # column f of every mode's map, from the spectrum e_f on all modes
        QW = np.stack(
            [_contract(Q, np.outer(W * np.eye(F)[f], np.ones(M)), limit=Q_inf)
             for f in range(F)],
            axis=2,
        ).transpose(1, 0, 2)
        out = np.eye(F) - QW
        scale = np.linalg.cond(A) * np.max(np.abs(ref), axis=(1, 2))
        err = np.max(np.abs(out - ref), axis=(1, 2))
        rounding = 4 * F * EPS * scale
        kept = np.zeros(M, bool)
        kept[:cut] = kept[M - cut + 1:] = True
        assert np.all(err[kept] <= rounding[kept])  # k = 0 included
        limit = np.where((np.arange(M) < M // 2)[:, None, None], gsys.K_inf, gsys.K_inf.T)
        deviation = (full - limit)[~kept]
        assert np.max(np.abs(deviation)) < _LIMIT_DEVIATION
        norm = lambda X: np.max(np.sum(np.abs(X), axis=-1), axis=-1)  # noqa: E731
        A_inf = limit[~kept] * W + np.eye(F)
        bound = norm(ref[~kept]) * norm(deviation * W) * norm(np.linalg.inv(A_inf))
        assert np.all(err[~kept] <= bound + rounding[~kept])  # Nyquist included

    @pytest.mark.parametrize("n", [4, 5])
    def test_preconditioner_table_transpose(self, n):
        # Q(-k) = Q(k)^T (the push-through identity), which lets _contract
        # apply the table below the cut on both signs of k, and Q_inf^T,
        # the Q of K-hat(-inf) = K_inf^T, on the mirrors and the Nyquist
        # mode past it: Q solved from the samples at -k against the
        # transposes of the table's modes, each solve within
        # F eps cond(A) |Q| of the exact one
        grid = default_grid(1.0)
        gsys = _grid_system(n, grid.half_width, grid.points)
        W = _weight(asymptotic_constants(n, 1.0)[0]).real
        eye = np.eye(len(W))
        m = np.array([1, 2, 7, 100, gsys.cut - 1])
        Q, Q_inf = _preconditioner(gsys.Kmat[: gsys.cut], gsys.K_inf, W)
        Q = Q[m]
        Kneg = np.ascontiguousarray(gsys.Kmat[m].swapaxes(1, 2))  # K-hat(-k)
        Qneg, Qneg_inf = _preconditioner(Kneg, kernel_system(n).matrix(-np.inf), W)
        cond = np.max(np.linalg.cond(gsys.Kmat[m] * W + eye))
        bound = 2 * len(W) * EPS * cond * np.max(np.abs(Q))
        assert np.max(np.abs(Qneg - Q.swapaxes(1, 2))) <= bound
        cond = np.linalg.cond(gsys.K_inf * W + eye)
        bound = 2 * len(W) * EPS * cond * np.max(np.abs(Q_inf))
        assert np.max(np.abs(Qneg_inf - Q_inf.T)) <= bound

    @pytest.mark.parametrize("n", [4, 5])
    def test_precondition_exact_at_asymptote_and_identity_at_zero(self, n):
        # the operator v -> v + K * (W v) of the window, per Fourier mode,
        # is inverted exactly by _precondition at W = Winf on the modes of
        # its table (to the bound of test_half_inverse_against_inv,
        # F eps cond(A) times 4), here for a v whose spectrum lies below
        # the cut; at W = 0 both are the identity, bit for bit
        grid = default_grid(1.0)
        gsys = _grid_system(n, grid.half_width, grid.points)
        M, cut = grid.points, gsys.cut
        W = _weight(asymptotic_constants(n, 1.0)[0]).real[:, None]
        Q, Q_inf = _preconditioner(gsys.Kmat[:cut], gsys.K_inf, W[:, 0])
        rng = np.random.default_rng(3)
        # a real spectrum on the modes below the cut and their mirrors: v
        # is real at x = -L and x = 0, as in the solver
        spec = np.zeros((len(W), M))
        spec[:, :cut] = rng.standard_normal((len(W), cut))
        spec[:, M - cut + 1:] = rng.standard_normal((len(W), cut - 1))
        v = ihfft(spec * M, axis=1)
        assert np.all(v.imag[:, [0, -1]] == 0)
        Av = v + ihfft(_contract(gsys.Kmat, hfft(W * v, n=M, axis=1)), axis=1)
        back = _precondition(Q, Q_inf, W, Av)
        cond = np.max(np.linalg.cond(gsys.Kmat[:cut] * W[:, 0] + np.eye(len(W))))
        bound = 4 * len(W) * EPS * cond * np.max(np.abs(v))
        assert np.max(np.abs(back - v)) <= bound
        assert np.array_equal(_precondition(Q, Q_inf, np.zeros_like(W), v), v)

    def test_log1p_exp_against_long_double(self):
        # reference: 1 + e^z in extended precision, with the modulus taken
        # by log1p away from the zeros of 1 + e^z; tolerance: the error of
        # rounding z and the result to float64, eps (|f| + |z f'(z)|)
        if np.finfo(np.longdouble).eps >= EPS:
            pytest.skip("no extended-precision long double on this platform")
        rng = np.random.default_rng(7)
        # Re z over the whole exp range, |Im z| up to 40 (the T = 0.05 range)
        z = rng.uniform(-700, 700, 20000) + 1j * rng.uniform(-40, 40, 20000)
        near_zero = (rng.uniform(-1e-6, 1e-6, 200)
                     + 1j * (np.pi + rng.uniform(-1e-6, 1e-6, 200)))
        edges = np.array([0, 1e-300j, 700 + 40j, -700 - 40j, 30 - 3j, -30 + 3j,
                          -1.4 + 38.2j, 1e-9 + 5j, -1e-9 - 5j])
        z = np.concatenate([z, near_zero, edges])
        w = np.exp(z.astype(np.clongdouble))
        x, y = 1 + w.real, w.imag
        q = x * x + y * y
        re = np.where(q < 0.5, np.log(q), np.log1p(w.real * (2 + w.real) + y * y)) / 2
        ref = re + 1j * np.arctan2(y, x)
        dfdz = np.abs(w / (1 + w)).astype(float)
        bound = 4 * EPS * (np.abs(ref).astype(float) + np.abs(z) * dfdz)
        out = _log1p_exp(z)
        assert np.all(np.abs(out - ref).astype(float) <= bound)


class TestIterate:
    def test_anderson_on_linear_contraction(self):
        # x = B x + c, B symmetric with eigenvalues in [0, 0.9]: the plain
        # update x <- B x + c contracts by 0.9 per step, and the mixed one
        # must reach the same tol in fewer steps and at the solution
        F, M = 2, 16
        N = F * M
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        B = Q @ np.diag(np.linspace(0.0, 0.9, N)) @ Q.T
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        solution = np.linalg.solve(np.eye(N) - B, c).reshape(F, M)

        def step(x):
            return (B @ x.ravel() + c).reshape(F, M)

        tol = 1e-12
        x, plain = np.zeros((F, M), dtype=complex), 0
        while np.max(np.abs(step(x) - x)) >= tol:
            x, plain = step(x), plain + 1
        x, it, residual, theta, restarts, hist, switched = _iterate(
            step, np.zeros((F, M), dtype=complex), lambda W, v: v, None, 0.0, 0.0,
            tol, 1000,
        )  # A^-1 = I
        assert residual < tol and restarts == 0 and len(hist) == it
        assert switched is None
        # the iterate whose residual met tol is within
        # |(I - B)^-1| |r|_2 <= 10 sqrt(N) tol of x*; the returned one, a
        # mixed step further, is at 5.1e-12
        assert np.max(np.abs(x - solution)) <= 10 * np.sqrt(N) * tol
        assert it < plain / 2


class TestWorkspace:
    """Every step of a solve runs in the solve's one workspace."""

    def test_numpy_fft_forms_match_scipy(self):
        # the solver's transforms against scipy.fft, on an n = 5 padded grid
        # (F = 30, 4096 points): hfft is irfft of the conjugate and ihfft the
        # conjugate of rfft, both with norm="forward".  The input's
        # imaginary parts at the seam and Nyquist columns, which neither
        # reads, are nonzero.  Equal bit for bit, but for the sign of the
        # zero imaginary parts of modes 0 and 2048 (+0 from scipy, -0 here)
        rng = np.random.default_rng(11)
        g = rng.standard_normal((30, 2049)) + 1j * rng.standard_normal((30, 2049))
        spec = np.fft.irfft(np.conj(g), 4096, axis=1, norm="forward",
                            out=np.empty((30, 4096)))
        assert np.array_equal(spec.view(np.int64),
                              hfft(g, n=4096, axis=1).view(np.int64))
        c = rng.standard_normal((4096, 30)).T  # transposed, as _contract returns it
        back = np.fft.ihfft(c, axis=1, out=np.empty((30, 2049), complex))
        ref = ihfft(c, axis=1)
        assert np.array_equal(back, ref)
        assert np.all(back.imag[:, [0, -1]] == 0) and np.all(ref.imag[:, [0, -1]] == 0)
        back.imag[:, [0, -1]] = ref.imag[:, [0, -1]]
        assert np.array_equal(back.view(np.int64), ref.view(np.int64))

    def test_reused_workspace_gives_fresh_results(self):
        # the convolution and the preconditioner share the workspace's
        # buffers; called alternately on two inputs, each gives exactly what
        # a fresh workspace gives
        grid = default_grid(1.0)
        gsys = _grid_system(5, grid.half_width, grid.points)
        W = _weight(asymptotic_constants(5, 1.0)[0]).real[:, None]
        Q, Q_inf = _preconditioner(gsys.Kmat[: gsys.cut], gsys.K_inf, W[:, 0])
        rng = np.random.default_rng(13)
        shape = (len(W), grid.points // 2 + 1)
        inputs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in range(2)]
        g_inf = rng.standard_normal(len(W))
        ws = _Workspace()
        for g in inputs + inputs:
            assert np.array_equal(_convolve(gsys, g, g_inf, ws), _convolve(gsys, g, g_inf))
            assert np.array_equal(_precondition(Q, Q_inf, W, g, ws),
                                  _precondition(Q, Q_inf, W, g))

    def test_warm_steps_allocate_no_grid_array(self, monkeypatch):
        # a warm nonlinear step, tangent step and preconditioner application
        # at n = 5 each raise the traced peak by less than one real
        # half-space vector (246 KB), where the grid arrays of a step come
        # to 5.4 MB and those of a preconditioner application to 1.7 MB
        taken = []
        iterate = solver._iterate

        def spy(step, x, precondition, W, *args, state_W=None):
            out = iterate(step, x, precondition, W, *args, state_W=state_W)
            taken.append((step, out[0], precondition, W if state_W is None else state_W))
            return out

        monkeypatch.setattr(solver, "_iterate", spy)
        _tangent_solver(solve_nlie(5, 1.0))(dbetaJ=1.0)
        (step, x, precondition, W), (tangent_step, u, *_) = taken
        v = step(x) - x
        vector = W.size * 8
        tracemalloc.start()
        try:
            for run in (lambda: step(x), lambda: tangent_step(u),
                        lambda: precondition(W, v)):
                run()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                assert tracemalloc.get_traced_memory()[1] - base < vector
        finally:
            tracemalloc.stop()


class TestSolver:
    def test_invalid_temperature(self):
        with pytest.raises(DomainError):
            solve_nlie(4, T=-1.0)

    def test_non_finite_input_raises(self, monkeypatch):
        # a NaN or infinite width or temperature is refused up front, before
        # a grid is built or an iteration taken
        for width in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                Grid(width, 2048)
        built = []
        monkeypatch.setattr(solver, "_grid_system", lambda *args: built.append(args))
        for T in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                solve_nlie(4, T)
        assert not built

    def test_integer_half_width(self):
        # Grid keeps a float width, so an int one solves as its float twin
        assert Grid(50, 1024).half_width == 50.0
        f_int = free_energy(solve_nlie(4, 1.0, grid=Grid(50, 1024)))
        f_float = free_energy(solve_nlie(4, 1.0, grid=Grid(50.0, 1024)))
        assert f_int == f_float

    def test_non_integer_point_count(self):
        # a point count that is no integer is outside the domain; numpy's
        # integers are integers, and are kept as int
        for points in (1024.0, "1024", 1024.5):
            with pytest.raises(DomainError):
                Grid(50.0, points)
        grid = Grid(50.0, np.int64(1024))
        assert grid == Grid(50.0, 1024) and type(grid.points) is int

    @pytest.mark.parametrize("n, T, beta_mu", [(4, 0.2, 3.0), (5, 0.05, 0.0)])
    def test_cut_table_solves_as_the_whole_table(self, n, T, beta_mu, monkeypatch):
        # the limit past the cut leaves the solve as the whole table has
        # it: the same iterations, and f within 1e-14 (measured: equal at
        # T = 0.05, and to 15 digits at |beta mu| = 3 along the Cartan
        # direction h_j = (n+1)/2 - j, where a zero of 1 + b nears the axis)
        h = (n + 1) / 2 - np.arange(1, n + 1)
        mu = tuple(T * beta_mu * h / np.max(np.abs(h)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # |beta mu| > 1
            cut = solve_nlie(n, T, mu=mu)
            monkeypatch.setattr(solver, "_LIMIT_DEVIATION", 0.0)
            solver._cached_grid_system.cache_clear()
            try:
                whole = solve_nlie(n, T, mu=mu)
                gsys = _grid_system(n, cut.grid.half_width, cut.grid.points)
                assert gsys.cut == len(gsys.Kmat)
            finally:
                solver._cached_grid_system.cache_clear()
        assert whole.iterations == cut.iterations
        assert abs(free_energy(whole) - free_energy(cut)) <= 1e-14

    def test_convergence_error_carries_the_record(self):
        with pytest.raises(ConvergenceError) as info:
            solve_nlie(4, 1.0, max_iter=5)
        err = info.value
        assert len(err.history) == err.iterations == 5
        assert err.residual == err.history[-1] > 1e-12 and err.restarts == 0

    def test_sl4_low_t_converges(self):
        # 14 iterations with the iterate's own W(x) in the preconditioner;
        # 30 with the asymptote's W alone, 50 without Anderson mixing
        state = solve_nlie(4, T=0.1, tol=1e-12)
        assert state.iterations <= 22
        assert state.residual < 1e-12
        assert state.diagnostics["asymptote_equation_residual"] <= 1e-12

    def test_sl5_low_t_converges(self):
        # 17 iterations with the iterate's own W(x) in the preconditioner;
        # 29 with the asymptote's W alone, 60 without Anderson mixing
        state = solve_nlie(5, T=0.1, tol=1e-12)
        assert state.iterations <= 22
        assert state.residual < 1e-12

    @pytest.mark.parametrize("T, mu, budget", [
        pytest.param(0.01, None, 28, id="T=0.01"),
        pytest.param(0.2, (0.2, 0.0, 0.0, 0.0, -0.2), 20, id="beta-mu=1"),
    ])
    def test_sl5_extremes_converge(self, T, mu, budget):
        # the extremes of the solver's range at n = 5: T = 0.01 takes 24
        # iterations (45 with the asymptote's W alone) and |beta mu| = 1
        # at T = 0.2 takes 16; no warning, so the fit that closes the
        # window carries log B to within _TAIL_FIT_TOL (4.1e-7 at T = 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = solve_nlie(5, T=T, mu=mu)
        assert state.residual < 1e-12
        assert state.iterations <= budget
        assert state.diagnostics["restarts"] == 0

    # Iterations of the ten mu = 0 cold solves of the benchmark (n = 4, 5;
    # T = 0.05, 0.1, 1, 2, 100), measured with the iterate's own W(x) in the
    # preconditioner; with the asymptote's W alone they were 33, 30, 14,
    # 11, 8 and 33, 29, 15, 13, 8.
    COLD_ITERATIONS = {
        (4, 0.05): 15, (4, 0.1): 14, (4, 1.0): 11, (4, 2.0): 10, (4, 100.0): 8,
        (5, 0.05): 18, (5, 0.1): 17, (5, 1.0): 12, (5, 2.0): 11, (5, 100.0): 8,
    }

    @pytest.mark.parametrize("n, T", list(COLD_ITERATIONS))
    def test_cold_iteration_counts(self, n, T):
        # pinned at the measured count + 2, so that a preconditioner that
        # converges more slowly fails here, not only in the benchmark
        state = solve_nlie(n, T)
        assert state.iterations <= self.COLD_ITERATIONS[n, T] + 2
        assert state.diagnostics["state_preconditioned_from"] is not None

    def test_sl5_high_t_converges_fast(self):
        state = solve_nlie(5, T=100.0, tol=1e-12)
        assert state.iterations <= 30

    def test_contraction_at_moderate_temperature(self):
        state = solve_nlie(4, T=1.0, tol=1e-12)
        hist = state.diagnostics["residual_history"]
        assert all(b < a for a, b in zip(hist[3:], hist[4:]))
        assert state.diagnostics["setup_s"] > 0
        assert state.diagnostics["iterate_s"] > 0

    @pytest.mark.parametrize("n, T", [
        pytest.param(4, 0.075, id="4"), pytest.param(5, 0.075, id="5"),
        pytest.param(4, 0.03, id="4-0.03"), pytest.param(5, 0.03, id="5-0.03"),
    ])
    def test_default_grid_edge_tail(self, n, T):
        # the closure of the one default window, L = 50, at mu = 0: the
        # far field fits log B - log Binf on (-L, -L/2] to 1.35e-7 / 1.56e-7
        # (n = 4 / 5) at T = 0.075 and 1.92e-7 / 2.40e-7 at T = 0.03, below
        # the 1e-6 at which the solver warns, and the fitted tail is the
        # measured inverse cube, |A3| = 0.79 / 0.83 and 1.01 / 1.11
        # (x^3 |log B - log Binf| -> 0.73 at T = 0.1, n = 5), with a trace
        # of x^-2: |A2| is 1.5e-3 to 2.5e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = solve_nlie(n, T=T)
        assert state.grid.half_width == 50.0
        d = state.diagnostics
        assert d["tail_fit_residual"] < 1e-6
        assert 0.5 < d["tail_A3"] < 1.5
        assert d["tail_A2"] < 1e-2 * d["tail_A3"]

    def test_mu_on_default_grid(self):
        # the default window closes the x^-2 tail of unequal mu: no
        # warning, and f within 1e-11 of L = 320, M = 16384 (measured
        # 9.7e-13; the windowed equation at L = 100 was 5.4e-10 off)
        mu = (0.3, 0.0, 0.0, -0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = solve_nlie(4, T=1.0, mu=mu)
        assert state.diagnostics["tail_A2"] > 1e-2  # 0.026: x^-2, not x^-3
        wide = solve_nlie(4, T=1.0, mu=mu, grid=Grid(320.0, 16384))
        assert abs(free_energy(state) - free_energy(wide)) <= 1e-11

    def test_parity_at_zero_mu(self):
        for n in (4, 5):
            state = solve_nlie(n, T=0.7)
            lb = state.logb
            refl = np.empty_like(lb)
            refl[:, 1:] = lb[:, :0:-1]
            refl[:, 0] = lb[:, 0]
            assert np.max(np.abs(lb - np.conj(refl))) <= 1e-8

    def test_mu_reversal_invariance(self):
        mu = (0.2, -0.05, 0.1, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f1 = free_energy(solve_nlie(4, T=0.9, mu=mu))
            f2 = free_energy(solve_nlie(4, T=0.9, mu=mu[::-1]))
        assert abs(f1 - f2) < 1e-10

    def test_uniform_mu_shift(self):
        f0 = free_energy(solve_nlie(5, T=1.3))
        fc = free_energy(solve_nlie(5, T=1.3, mu=(0.07,) * 5))
        assert fc == pytest.approx(f0 - 0.07, abs=1e-9)

    def test_restart_keeps_the_whole_record(self, monkeypatch):
        # damping -5 (a mixing weight of 6) overshoots and diverges even
        # with Anderson mixing, which converges -0.8 through -3; the
        # automatic restart at damping 0.5 converges, to the f of the solve
        # without it, and the record keeps the diverging steps
        used = []  # per step: whether the preconditioner took the iterate's W(x)
        iterate = solver._iterate

        def spy(step, x, precondition, W, *args, state_W=None):
            def recording(weights, v):
                used.append(weights is state_W)
                return precondition(weights, v)
            return iterate(step, x, recording, W, *args, state_W=state_W)

        monkeypatch.setattr(solver, "_iterate", spy)
        state = solve_nlie(4, T=1.0, damping=-5.0)
        hist = state.diagnostics["residual_history"]
        assert state.diagnostics["restarts"] == 1
        assert state.residual < 1e-12
        assert state.iterations == len(hist) == len(used)
        assert abs(free_energy(state) - free_energy(solve_nlie(4, T=1.0))) <= 1e-13
        # W(x) from the first step below the switch (1: the start's
        # residual is 0.76); the restart goes back to Winf until the
        # residual is below the switch again (two steps, at 3.8 and 2.1),
        # then W(x)
        first = state.diagnostics["state_preconditioned_from"]
        assert first == 1 and hist[0] < solver._STATE_SWITCH
        back = used.index(False, first)
        # the step before it restarted: the first whose residual exceeds
        # _DIVERGENCE times the least one before it
        assert hist[back - 1] > solver._DIVERGENCE * min(hist[: back - 1])
        assert all(hist[i] <= solver._DIVERGENCE * min(hist[:i]) for i in range(1, back - 1))
        again = used.index(True, back)
        assert all(used[:back])
        assert all(h >= solver._STATE_SWITCH for h in hist[back:again])
        assert hist[again] < solver._STATE_SWITCH and all(used[again:])

    def test_warnings(self):
        with pytest.warns(UserWarning, match="analyticity"):
            solve_nlie(4, T=0.5, mu=(0.8, 0.0, 0.0, -0.8))
        with pytest.warns(UserWarning, match="J < 0"):
            solve_nlie(4, T=5.0, J=-0.3)

    def test_warnings_name_the_caller(self):
        # both warnings point at the code that called solve_nlie; they are
        # raised before the first step, so max_iter=0 costs no iteration
        with pytest.warns(UserWarning) as caught, pytest.raises(ConvergenceError):
            solve_nlie(4, T=0.5, mu=(0.8, 0.0, 0.0, -0.8), J=-0.3, max_iter=0)
        assert len(caught) == 2
        assert all(w.filename == __file__ for w in caught)

    def test_state_roundtrip_schema(self):
        state = solve_nlie(4, T=2.0)
        d = state.to_dict()
        assert set(d) == {
            "params", "grid", "logb", "asymptote", "iterations", "residual", "f",
        }
        assert len(d["logb"]) == 14
        assert len(d["logb"][0]) == state.grid.points
        assert d["f"] == pytest.approx(free_energy(state))


class TestEigenvalue:
    def test_gamma_term_at_origin(self):
        # psi(1/4) = -gamma - pi/2 - 3 ln 2 gives (3/2) ln2 + pi/4
        assert gamma_term(4, 0.0) == pytest.approx(1.5 * np.log(2) + np.pi / 4)
        assert gamma_term(4, 0.0) == pytest.approx(1.8251, abs=1e-4)

    def test_high_t_limit_log_n(self):
        state = solve_nlie(5, T=100.0)
        assert log_eigenvalue(state, 0.0) == pytest.approx(np.log(5), abs=1e-2)

    def test_beta_zero_with_mu(self):
        # high-T expansion log sum_j e^{beta mu_j} - beta J sum_j rho_j^2,
        # rho_j = e^{beta mu_j} / sum_k e^{beta mu_k}; the next order is
        # measured at 0.48 (beta J)^2, so J = 1 is held to (beta J)^2
        mu = (0.4, 0.1, -0.2, 0.0, -0.3)
        T = 2000.0
        w = np.exp(np.array(mu) / T)
        rho = w / w.sum()
        for J, bound in ((0.0, 1e-7), (1.0, (1.0 / T) ** 2)):
            state = solve_nlie(5, T=T, mu=mu, J=J)
            expect = np.log(w.sum()) - J / T * np.sum(rho**2)
            assert log_eigenvalue(state, 0.0) == pytest.approx(expect, abs=bound)

    def test_off_origin_against_full_grid(self):
        # log Lambda(x) at grid points 0 < |x| < L/2 against the convolution
        # d^dagger * log B done here by the complex FFT of the full grid,
        # and even in x, on the grid and off it, at unequal mu
        mu = (0.3, 0.0, 0.0, -0.3)
        state = solve_nlie(4, T=2.0, mu=mu)
        grid, beta = state.grid, 0.5
        sys = kernel_system(4)
        ghat = np.fft.fft(state.logB() - state.logB_inf[:, None], axis=1)
        conv = np.fft.ifft(np.sum(sys.driving_hat(-grid.k) * ghat, axis=0))
        conv = conv.real + sys.driving0() @ state.logB_inf
        for x_near in (-17.3, 2.2, 23.6):
            j = int(round((x_near + grid.half_width) / grid.dx))
            x = grid.x[j]
            expect = (
                beta * (gamma_term(4, x) - 1.0 / (1.0 + x * x))
                + beta * np.mean(mu) + conv[j]
            )
            value = log_eigenvalue(state, x)
            assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect)), x
            for y in (x, x + grid.dx / 3):
                both = log_eigenvalue(state, np.array([y, -y]))
                assert abs(both[0] - both[1]) <= 1e-12 * max(1.0, abs(both[0])), y

    def test_outside_window_raises(self):
        state = solve_nlie(4, T=2.0)
        half = state.grid.half_width / 2
        assert np.all(np.isfinite(log_eigenvalue(state, np.array([-half, half]))))
        for x in (half + 0.1, np.array([0.0, -1.5 * half]), np.nan, -np.inf,
                  np.array([0.0, np.nan])):
            with pytest.raises(DomainError):
                log_eigenvalue(state, x)

    @pytest.mark.parametrize(
        "n, T, mu", [(4, 2.0, (0.3, 0.0, 0.0, -0.3)), (5, 0.1, None)]
    )
    def test_inner_half_against_wider_window(self, n, T, mu):
        # the same solve on a window four times as wide with the same dx;
        # the worst of four states measured 1.1e-11 up to |x| = L/2, where
        # the error starts to grow toward the edge (7.5e-11 at x = 40)
        state = solve_nlie(n, T=T, mu=mu)
        g = state.grid
        wide = solve_nlie(n, T=T, mu=mu, grid=Grid(4 * g.half_width, 4 * g.points))
        xs = np.array([0.0, 10.0, g.half_width / 2])
        err = np.abs(log_eigenvalue(state, xs) - log_eigenvalue(wide, xs))
        assert np.max(err) <= 2e-11

    def test_two_site_trace_limit(self):
        state = solve_nlie(5, T=100.0)
        f = free_energy(state)
        assert f + 100.0 * np.log(5) == pytest.approx(0.2, abs=5e-3)

    def test_grid_stability(self):
        f0 = free_energy(solve_nlie(4, T=1.0))
        g = default_grid(1.0)
        fM = free_energy(solve_nlie(4, T=1.0, grid=Grid(g.half_width, 2 * g.points)))
        fL = free_energy(solve_nlie(4, T=1.0, grid=Grid(2 * g.half_width, g.points)))
        assert abs(fM - f0) <= 1e-8
        assert abs(fL - f0) <= 1e-8
