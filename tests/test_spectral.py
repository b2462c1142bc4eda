"""Adjacency matrices, analytic factors, Bethe roots and residue checks."""

import numpy as np
import pytest

from qtmchain import (
    RootData,
    adjacency_matrix,
    bae_residuals,
    eaf_factorization,
    eigenvalue_from_roots,
    residue_check,
    solve_bethe_roots,
)
from qtmchain.errors import BetheStateError, ConvergenceError, UnsupportedSubsetError
from qtmchain.spectral import eval_eaf_polynomial

from conftest import random_root_data, random_x

# the three printed sl4 matrices: entries (level, 2*shift) keyed by (i, j)
GOLDEN_SL4 = {
    1: {(0, 1): (1, 0), (1, 2): (2, 0), (2, 3): (3, 0)},
    2: {
        (0, 1): (2, 1),
        (1, 2): (3, 1),
        (1, 3): (1, -1),
        (2, 4): (1, -1),
        (3, 4): (3, 1),
        (4, 5): (2, -1),
    },
    3: {(0, 1): (3, 2), (1, 2): (2, 0), (2, 3): (1, -2)},
}


class TestAdjacency:
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_sl4_golden(self, a):
        adj = adjacency_matrix(4, a)
        assert adj.edges == GOLDEN_SL4[a]

    def test_vertex_order_is_lexicographic(self):
        adj = adjacency_matrix(4, 2)
        assert adj.vertices == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_shift_law(self, n):
        # every edge label shift equals r - (a+1)/2 for the differing row r
        for a in range(1, n):
            adj = adjacency_matrix(n, a)
            for (i, j), (level, dh) in adj.edges.items():
                vi, vj = adj.vertices[i], adj.vertices[j]
                diff = [r for r in range(a) if vi[r] != vj[r]]
                assert len(diff) == 1
                r = diff[0] + 1
                assert dh == 2 * r - (a + 1)
                assert {vi[diff[0]], vj[diff[0]]} == {level, level + 1}

    def test_symmetric_zero_diagonal(self):
        adj = adjacency_matrix(5, 2)
        for (i, j) in adj.edges:
            assert i != j
        assert adj.label(3, 1) == adj.label(1, 3)

    def test_export_schema(self):
        d = adjacency_matrix(4, 2).as_dict()
        assert set(d) == {"n", "a", "vertices", "edges"}
        assert all(set(e) == {"i", "j", "level", "shift"} for e in d["edges"])


class TestEafFactorization:
    def test_first_representation_examples(self):
        fact = eaf_factorization(4, 1, (0, 1))
        assert fact.unremoved_poles == ((2, 0),)
        assert fact.removed_poles == ((1, 0),)
        assert fact.common_zeros == (("+", 0),)
        assert fact.degree_half_n == 1 and fact.degree_roots == (2,)

        fact = eaf_factorization(4, 1, (1, 2))
        assert set(fact.unremoved_poles) == {(1, 0), (3, 0)}
        assert set(fact.common_zeros) == {("+", 0), ("-", 0)}

        fact = eaf_factorization(4, 1, (0, 1, 2, 3))
        assert fact.unremoved_poles == ()
        assert fact.removed_poles == ((1, 0), (2, 0), (3, 0))

    def test_full_set_has_no_poles(self):
        fact = eaf_factorization(4, 2, tuple(range(6)))
        assert fact.unremoved_poles == ()

    def test_partial_a2_sum(self):
        fact = eaf_factorization(4, 2, tuple(range(5)))
        assert fact.unremoved_poles == ((2, -1),)
        assert set(fact.common_zeros) == {("+", -1), ("-", 1)}

    def test_non_range_subset_rejected(self):
        with pytest.raises(UnsupportedSubsetError):
            eaf_factorization(4, 2, (0, 5))
        with pytest.raises(UnsupportedSubsetError):
            eaf_factorization(4, 2, (1, 2, 4))
        with pytest.raises(UnsupportedSubsetError):
            eaf_factorization(4, 1, ())

    def test_degree_formula(self):
        data = solve_bethe_roots(4, 2, beta=0.5)
        fact = eaf_factorization(4, 1, (0, 1))
        assert fact.degree(data) == 2  # N/2 + m_2 = 1 + 1

    def test_reconstruction_identity(self, rng):
        # p * (prod Phi) / (prod q) equals the tableau sum by construction;
        # evaluate both paths independently
        data = solve_bethe_roots(4, 2, beta=0.7)
        from qtmchain import eval_q, eval_range_tableau

        for subset in ((0, 1), (1, 2), (0, 1, 2)):
            fact = eaf_factorization(4, 1, subset)
            for _ in range(10):
                x = random_x(rng)
                s = eval_range_tableau(data, fact.tableau(), x)
                p = eval_eaf_polynomial(fact, data, x)
                back = p
                for sign, dh in fact.common_zeros:
                    lvl = 4 if sign == "+" else 0
                    back = back * eval_q(data, lvl, x + 0.5j * dh)
                for lvl, dh in fact.unremoved_poles:
                    back = back / eval_q(data, lvl, x + 0.5j * dh)
                assert abs(back - s) <= 1e-10 * (1.0 + abs(s))

    def test_polynomial_degree_growth(self):
        # p grows like x^deg: the (deg+1)-th finite difference annihilates it
        data = solve_bethe_roots(4, 1 * 2, beta=0.6)
        fact = eaf_factorization(4, 1, (0, 1))
        deg = fact.degree(data)
        xs = np.arange(deg + 2) * 0.7 + 0.9j
        vals = np.array([eval_eaf_polynomial(fact, data, x) for x in xs])
        diff = vals
        for _ in range(deg + 1):
            diff = np.diff(diff)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(diff)) <= 1e-8 * scale


class TestBetheRoots:
    def test_sl2_single_root_at_origin(self):
        data = solve_bethe_roots(2, 2, beta=0.9)
        assert len(data.roots[0]) == 1
        assert abs(data.roots[0][0]) < 1e-12
        assert max(bae_residuals(data)) <= 1e-10

    def test_sl4_root_pattern(self):
        data = solve_bethe_roots(4, 2, beta=0.7)
        assert [len(lvl) for lvl in data.roots] == [1, 1, 1]
        assert max(bae_residuals(data)) <= 1e-10
        # invariance under x -> -conj(x) per level
        for lvl in data.roots:
            mirrored = sorted((-np.conj(r) for r in lvl), key=lambda z: (z.real, z.imag))
            orig = sorted(lvl, key=lambda z: (z.real, z.imag))
            assert all(abs(a - b) < 1e-9 for a, b in zip(orig, mirrored))

    def test_sl3_with_chemical_potentials(self):
        data = solve_bethe_roots(3, 2, beta=0.6, mu=(0.2, -0.1, -0.1))
        assert max(bae_residuals(data)) <= 1e-10

    def test_n4_trotter4(self):
        data = solve_bethe_roots(4, 4, beta=0.4)
        assert [len(lvl) for lvl in data.roots] == [2, 2, 2]
        assert max(bae_residuals(data)) <= 1e-10

    def test_n5_trotter4_mu_homotopy(self):
        # the largest system, reached through the four homotopy steps in mu
        data = solve_bethe_roots(5, 4, beta=0.9, mu=np.linspace(0.2, -0.2, 5))
        assert [len(lvl) for lvl in data.roots] == [2, 2, 2, 2]
        assert max(bae_residuals(data)) <= 1e-10

    def test_non_dominant_set_raises(self):
        # at n = 4, N = 12, beta = 0.5 the Newton iteration lands on a Bethe
        # solution whose Lambda(0) is -0.996: not the dominant state, whose
        # Lambda(0) is real and positive, and its f would be NaN
        with pytest.raises(BetheStateError) as info:
            solve_bethe_roots(4, 12, beta=0.5)
        err = info.value
        assert (err.n, err.N) == (4, 12)
        assert err.lambda0.real == pytest.approx(-0.996, abs=1e-3)

    def test_stall_reports_the_start_residual(self):
        with pytest.raises(ConvergenceError) as info:
            solve_bethe_roots(4, 2, beta=0.7, max_iter=0)
        assert info.value.iterations == 0 and np.isfinite(info.value.residual)


class TestResidues:
    def test_solved_roots_cancel_poles(self):
        data = solve_bethe_roots(4, 2, beta=0.7)
        for a, subset in ((1, (0, 1)), (1, (1, 2)), (2, tuple(range(5))), (2, (0, 1, 3))):
            fact = eaf_factorization(4, a, subset)
            assert residue_check(fact, data) <= 1e-9

    def test_perturbed_roots_fail(self):
        data = solve_bethe_roots(4, 2, beta=0.7)
        bad_roots = tuple(
            tuple(r * 1.01 + (0.002 if abs(r) < 1e-9 else 0.0) for r in lvl)
            for lvl in data.roots
        )
        bad = RootData(
            n=4, N=2, tau=data.tau, mu=data.mu, beta=data.beta, roots=bad_roots
        )
        fact = eaf_factorization(4, 1, (0, 1))
        assert residue_check(fact, bad) > 1e-4

    def test_eigenvalue_on_top_of_root(self):
        # the circle mean evaluates the analytic sum exactly at a root
        data = solve_bethe_roots(2, 2, beta=0.5)
        tau = data.tau  # stored with the sign matching the staggered product
        direct = 2.0 * (1.0 + tau + tau * tau)  # hand expansion of the N=2 sum
        assert eigenvalue_from_roots(data, 0.0) == pytest.approx(direct, abs=1e-10)
