"""Observable layer: derivatives of the free energy (cheap checks only;
the expensive sweeps live in the acceptance suite)."""

import numpy as np
import pytest

from qtmchain import thermo_point
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

    def test_positive_specific_heat(self):
        pt = thermo_point(4, 0.8, with_chi=False, with_densities=False)
        assert pt.C > 0
        assert pt.S > 0

    def test_meta_counts_every_solve(self):
        # the centre plus the four T-stencil points of S and C
        pt = thermo_point(4, 1.0, with_chi=False, with_densities=False)
        assert pt.meta["solves"] == 5
        assert pt.meta["iterations"] >= 5
        assert pt.meta["residual"] < 1e-12
        assert pt.meta["slowest_solve_s"] > 0


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

    def test_entropy_monotone_on_small_grid(self):
        pts, failures = sweep(4, [0.5, 1.0, 2.0, 4.0], with_densities=False)
        assert not failures
        S = [p.S for p in pts]
        assert all(b > a for a, b in zip(S, S[1:]))
