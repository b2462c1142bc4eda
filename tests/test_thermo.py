"""Observable layer: derivatives of the free energy (cheap checks only;
the expensive sweeps live in the acceptance suite)."""

import numpy as np
import pytest

from qtmchain import free_energy, solve_nlie, solver, thermo, thermo_point
from qtmchain.thermo import parse_t_range, sweep


class TestThermoPoint:
    def test_high_temperature_entropy(self):
        pt = thermo_point(5, 100.0, with_chi=False)
        assert pt.S == pytest.approx(np.log(5), abs=1e-3)
        assert abs(pt.C) < 1e-2
        assert pt.n.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(pt.n, 0.2, atol=1e-8)

    def test_densities_follow_mu(self):
        pt = thermo_point(4, 2.0, mu=(0.3, 0.0, 0.0, -0.3), with_chi=False)
        assert pt.n.sum() == pytest.approx(1.0, abs=1e-8)
        assert pt.n[0] > pt.n[1] > pt.n[3]

    def test_concurrent_tangent_solves_match_sequential(self):
        # each tangent solve owns its workspace, so the five density
        # tangents that share two threads give what one thread gives
        one = thermo_point(5, 1.0, with_chi=False, workers=1)
        two = thermo_point(5, 1.0, with_chi=False, workers=2)
        assert one.row() == two.row()

    def test_positive_specific_heat(self):
        pt = thermo_point(4, 0.8, with_chi=False, with_densities=False)
        assert pt.C > 0
        assert pt.S > 0

    def test_meta_counts_every_solve(self):
        # the nonlinear solve plus the tangent solves of S and of C
        pt = thermo_point(4, 1.0, with_chi=False, with_densities=False)
        assert pt.meta["solves"] == 3
        assert pt.meta["iterations"] >= 5
        assert pt.meta["residual"] < 1e-12
        assert pt.meta["slowest_solve_s"] > 0
        # the nonlinear solve's far-field record, as its diagnostics hold
        # it: fit residual 3.6e-8 (the solver warns above 1e-6), |A2|
        # 4.1e-4 and |A3| 0.195 (x^3 |log B - log Binf| -> 0.1956)
        diagnostics = solve_nlie(4, 1.0).diagnostics
        for key in ("tail_fit_residual", "tail_A2", "tail_A3"):
            assert pt.meta[key] == diagnostics[key]
        assert 0 < pt.meta["tail_fit_residual"] < 1e-6
        assert 0.19 < pt.meta["tail_A3"] < 0.2

    def test_nonlinear_solve_is_solve_nlie(self, monkeypatch):
        # a point takes its nonlinear solve through solve_nlie, so whatever
        # wraps that name sees every point's solve
        calls = []
        orig = thermo.solve_nlie
        monkeypatch.setattr(
            thermo, "solve_nlie", lambda *a, **kw: calls.append(a) or orig(*a, **kw)
        )
        pts, failures = sweep(4, [1.0, 2.0], workers=1)
        assert not failures and len(pts) == 2
        assert calls == [(4, 1.0), (4, 2.0)]

    def test_one_preconditioner_per_point(self, monkeypatch):
        # the grid owns the map of the mu = 0 asymptote, the same at every
        # T: a mu = 0 point builds no table, and its state and tangent
        # solves take the grid's map
        grid = solver.default_grid(1.0)
        gsys = solver._grid_system(4, grid.half_width, grid.points)
        built = []
        orig = solver._preconditioner
        monkeypatch.setattr(
            solver, "_preconditioner", lambda *a: built.append(1) or orig(*a)
        )
        for T in (1.0, 2.0):
            pt = thermo_point(4, T, with_chi=False, with_densities=False)
            assert pt.meta["preconditioners_built"] == 0
            state = solve_nlie(4, T)
            assert state.precondition is gsys.precondition
            assert state.diagnostics["preconditioner_built"] is False
        solver._tangent_solver(state)
        assert len(built) == 0
        # mu != 0: every point has an asymptote of its own, inverted once
        # for its three solves, on whichever thread it runs
        temps = [2.0, 3.0, 4.0, 6.0]
        pts, failures = sweep(4, temps, mu=(0.3, 0.0, 0.0, -0.3), workers=2)
        assert not failures
        assert len(built) == len(temps)
        assert [p.meta["preconditioners_built"] for p in pts] == [1] * len(temps)
        # the grid's map holds one table, a fresh Q = A^-1 K-hat of the
        # preconditioner grid's modes below their cut, the limit's Q_inf,
        # bit for bit, and the window's far field, which fills the pad; it
        # takes its weights per call
        logb_inf, _ = solver.asymptotic_constants(4, 1.0)
        W = solver._weight(logb_inf).real
        precondition = gsys.precondition
        assert precondition.func is solver._precondition
        assert len(precondition.args) == 3
        Q, Q_inf = orig(gsys.Kprec, gsys.K_inf, W)
        assert np.array_equal(precondition.args[0], Q)
        assert np.array_equal(precondition.args[1], Q_inf)
        assert precondition.args[2] is gsys.far

    def test_low_temperature_iteration_budget(self):
        # 32 iterations over the three solves (15 + 9 + 8) with the
        # states' own W(x) in the padded preconditioner, pinned at + 2; 38
        # (18 + 11 + 9) with the window's, 93 with the asymptote's W alone,
        # and 183 (69 + 64 + 50) without Anderson mixing
        pt = thermo_point(5, 0.05, with_chi=False, with_densities=False)
        assert pt.meta["solves"] == 3
        assert pt.meta["iterations"] <= 34
        # the nonlinear solve's first step with its iterate's W(x)
        assert pt.meta["state_preconditioned_from"] == 6

    def test_high_temperature_tangent_budget(self, monkeypatch):
        # at n = 5, T = 100 the tangent solves of S and C take 8 and 9
        # iterations against the nonlinear solve's 5, pinned at + 2: with
        # the window's circular preconditioner, whose edge missed the
        # closed operator, they took 13 and 12 against 8
        counts = []
        iterate = solver._iterate

        def spy(*args, **kwargs):
            out = iterate(*args, **kwargs)
            counts.append(out[1])
            return out

        monkeypatch.setattr(solver, "_iterate", spy)
        thermo_point(5, 100.0, with_chi=False, with_densities=False, workers=1)
        nonlinear, u_beta, w_beta_beta = counts
        assert nonlinear <= 7 and u_beta <= 10 and w_beta_beta <= 11


class TestTangentPath:
    """S, C, n_i and chi from the tangent equations, at n = 4, T = 2 and
    unequal mu."""

    T = 2.0
    MU = (0.3, 0.0, 0.0, -0.3)

    @pytest.fixture(scope="class")
    def point(self):
        return thermo_point(4, self.T, mu=self.MU, with_chi=True)

    def test_density_sum_rule(self, point):
        # f(mu + c 1) = f(mu) - c exactly, so sum_i n_i = 1
        assert abs(point.n.sum() - 1.0) <= 1e-12

    def test_chi_rows_sum_to_zero(self, point):
        # and every row of chi_ij = dn_j/dmu_i sums to d(sum_j n_j)/dmu_i = 0
        assert np.max(np.abs(point.chi.sum(axis=1))) <= 1e-12

    def test_against_central_differences(self, point):
        # Five-point central differences of f = free_energy(solve_nlie(...)),
        # in u = log T for S = -f_u/T and C = -(f_uu - f_u)/T and in mu_i for
        # n_i = -f_mu_i, all with step h = 1e-3.  Noise model: every solve
        # stops at residual tol, which leaves f a noise of about T tol; the
        # stencil weights sum to 18 in magnitude for a first derivative
        # (over 12 h) and 64 for a second (over 12 h^2).  So S carries
        # 18 tol/(12 h), C carries 64 tol/(12 h^2) plus that of S, and n_i
        # carries 18 T tol/(12 h).  The truncation, of order h^4 times a
        # fifth derivative, is far below these.
        tol, h, T, mu = 1e-12, 1e-3, self.T, self.MU
        d1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
        d2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))

        def f(Tv, m=mu):
            return free_energy(solve_nlie(4, Tv, mu=m, tol=tol))

        fT = {s: f(T * np.exp(s * h)) for s in (-2, -1, 1, 2)}
        fT[0] = point.f
        f_u = sum(w * fT[s] for s, w in d1) / (12 * h)
        f_uu = sum(w * fT[s] for s, w in d2) / (12 * h * h)
        noise_S = 18 * tol / (12 * h)
        noise_C = 64 * tol / (12 * h * h) + noise_S
        assert abs(point.S - (-f_u / T)) <= noise_S
        assert abs(point.C - (-(f_uu - f_u) / T)) <= noise_C

        for i in range(4):
            fm = {}
            for s, _ in d1:
                m = list(mu)
                m[i] += s * h
                fm[s] = f(T, tuple(m))
            n_i = -sum(w * fm[s] for s, w in d1) / (12 * h)
            assert abs(point.n[i] - n_i) <= 18 * T * tol / (12 * h)


class TestTangentStop:
    """Points whose tangents have large asymptotes |u_inf|: a tangent's
    residual stalls near eps max|u| (measured 1.2-2.3e-16 |u|), so each
    tangent stops at max(1e-12, 10 eps max|u_inf|).  With the absolute
    1e-12 alone both points ran a tangent to the step limit and raised."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize(
        "T, mu, u_inf",
        [
            # a chi tangent's max|u_inf| is 4.72e3 at mu = 0, T = 0.01
            (0.01, None, 4.8e3),
            # |beta mu| = 0.1 at T = 2000; w_beta,beta's max|u_inf| is 2.02e4
            (2000.0, (200.0, 0.0, 0.0, 0.0, -200.0), 2.1e4),
        ],
    )
    def test_large_asymptote_converges(self, T, mu, u_inf):
        point = thermo_point(5, T, mu=mu, with_chi=True, workers=2)
        assert abs(point.n.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(point.chi.sum(axis=1))) <= 1e-12
        assert point.meta["residual"] <= 10 * self.EPS * u_inf


class TestSweep:
    def test_parse_range(self):
        ts = parse_t_range("0.1:10:5log")
        assert len(ts) == 5
        assert ts[0] == pytest.approx(0.1) and ts[-1] == pytest.approx(10.0)
        ts = parse_t_range("1:3:3lin")
        assert np.allclose(ts, [1.0, 2.0, 3.0])

    def test_single_point_matches_direct(self):
        pts, failures = sweep(4, [0.9], with_densities=False)
        assert not failures
        direct = thermo_point(4, 0.9, with_chi=False, with_densities=False)
        assert pts[0].f == direct.f
        assert pts[0].S == direct.S
        assert pts[0].C == direct.C

    def test_concurrent_points_match_sequential(self):
        temps = [2.0, 0.5, 4.0, 1.0]
        one, fail_one = sweep(4, temps, workers=1)
        two, fail_two = sweep(4, temps, workers=2)
        assert not fail_one and not fail_two
        assert [p.T for p in two] == sorted(temps)
        for a, b in zip(one, two):
            assert a.row() == b.row()

    def test_cold_concurrent_sweep_builds_once(self, monkeypatch):
        # points that start together on a grid not yet built share one grid
        # system, so at mu = 0 its one preconditioner serves them all
        built = []
        orig = solver._preconditioner
        monkeypatch.setattr(
            solver, "_preconditioner", lambda *a: built.append(1) or orig(*a)
        )
        solver._cached_grid_system.cache_clear()
        pts, failures = sweep(4, [1.0, 2.0, 3.0, 4.0], workers=2)
        assert not failures
        assert len(built) == 1
        assert sum(p.meta["preconditioners_built"] for p in pts) == 0
        assert solver._cached_grid_system.cache_info().misses == 1

    def test_failed_point_is_recorded(self):
        pts, failures = sweep(4, [2.0, -1.0, 1.0], workers=2)
        assert [p.T for p in pts] == [1.0, 2.0]
        assert len(failures) == 1
        T, err = failures[0]
        assert T == -1.0 and err.startswith("DomainError")

    def test_entropy_monotone_on_small_grid(self):
        pts, failures = sweep(4, [0.5, 1.0, 2.0, 4.0], with_densities=False)
        assert not failures
        S = [p.S for p in pts]
        assert all(b > a for a, b in zip(S, S[1:]))
