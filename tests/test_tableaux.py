"""Eigenvalue functions, tableau evaluation and the fusion identities."""

from math import comb

import numpy as np
import pytest

from qtmchain import (
    DomainError,
    EvalContext,
    PoleError,
    RangeTableau,
    RootData,
    canonical_defs,
    check_functional_relation,
    conjugate_data,
    eval_aux,
    eval_lambda,
    eval_q,
    eval_range_tableau,
    fused_eigenvalue,
)
from qtmchain import tableaux
from qtmchain.tableaux import conjugate_tableau, eval_range_tableau_naive

from conftest import random_root_data, random_x


class TestQFunctions:
    def test_phi_levels(self):
        data = RootData(n=2, N=2, tau=0.5, mu=(0.0, 0.0), beta=1.0, roots=((),))
        assert eval_q(data, 0, 0.0) == pytest.approx(-0.5j)
        assert eval_q(data, 2, 0.0) == pytest.approx(+0.5j)

    def test_root_product(self):
        data = RootData(
            n=2, N=0, tau=0.0, mu=(0.0, 0.0), beta=1.0, roots=((0.3, -0.3),)
        )
        assert eval_q(data, 1, 1.0) == pytest.approx(0.91)

    def test_empty_product_is_one(self):
        data = RootData.free(3)
        assert eval_q(data, 1, 0.37 + 0.2j) == 1.0

    def test_level_out_of_range(self):
        data = RootData.free(3)
        with pytest.raises(DomainError):
            eval_q(data, 4, 0.0)


class TestLambda:
    def test_free_data_is_unity(self, rng):
        data = RootData.free(4)
        for j in range(1, 5):
            x = random_x(rng)
            assert eval_lambda(data, j, x) == pytest.approx(1.0)

    def test_chemical_potential_weight(self):
        data = RootData.free(3, beta=1.0, mu=(0.2, 0.0, 0.0))
        assert eval_lambda(data, 1, 0.8 + 0.3j) == pytest.approx(np.exp(0.2))

    def test_single_root(self):
        data = RootData(n=2, N=0, tau=0.0, mu=(0.0, 0.0), beta=1.0, roots=((0.0,),))
        assert eval_lambda(data, 1, 1.0) == pytest.approx(1.0 + 1.0j)

    def test_pole_identifies_root(self):
        data = RootData(n=2, N=0, tau=0.0, mu=(0.0, 0.0), beta=1.0, roots=((0.7,),))
        with pytest.raises(PoleError) as err:
            eval_lambda(data, 1, 0.7)
        assert err.value.root == pytest.approx(0.7)


class TestRangeTableau:
    def test_counting_single_box(self):
        data = RootData.free(4)
        assert eval_range_tableau(data, RangeTableau.box(1, 4), 0.3) == pytest.approx(4)

    def test_counting_column_ranges(self):
        # ordering display: five admissible fillings of the ((1,2),(2,4)) column
        data = RootData.free(4)
        t = RangeTableau.column([(1, 2), (2, 4)])
        assert eval_range_tableau(data, t, 0.1) == pytest.approx(5)
        assert eval_range_tableau_naive(data, t, 0.1) == 5

    def test_counting_row_and_column(self):
        data = RootData.free(2)
        assert fused_eigenvalue(data, 1, 2, 0.0) == pytest.approx(3)
        assert fused_eigenvalue(data, 2, 1, 0.0) == pytest.approx(1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_column_counts_are_binomial(self, n):
        data = RootData.free(n)
        for a in range(1, n + 1):
            t = RangeTableau.full(a, 1, n)
            assert eval_range_tableau_naive(data, t, 0.0) == comb(n, a)
            assert eval_range_tableau(data, t, 0.0) == pytest.approx(comb(n, a))

    def test_counting_equals_filling_count(self, rng):
        data = RootData.free(5)
        for _ in range(12):
            a = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            cells = tuple(
                tuple(
                    (lo, int(rng.integers(lo, 6)))
                    for lo in (int(rng.integers(1, 5)),)
                )[0]
                for _ in range(s)
            )
            t = RangeTableau(tuple((cells) for _ in range(a)))
            count = eval_range_tableau_naive(data, t, 0.0)
            assert eval_range_tableau(data, t, random_x(rng)) == pytest.approx(count)

    def test_no_admissible_filling_gives_exact_zero(self):
        data = random_root_data(4, np.random.default_rng(0))
        # a strictly decreasing column; two columns that each have states,
        # but whose second row would need 3..4 <= 2
        for t in (
            RangeTableau.column([(2, 2), (1, 1)]),
            RangeTableau((((2, 3), (1, 2)), ((3, 4), (2, 2)))),
        ):
            assert eval_range_tableau(data, t, 0.3) == 0j
            assert eval_range_tableau_naive(data, t, 0.3) == 0j

    def test_no_filling_evaluates_no_box(self):
        # the top box of a height-2 column sits at x - i/2 = 0.7, the root of q_1
        data = RootData(n=2, N=0, tau=0.0, mu=(0.0, 0.0), beta=1.0, roots=((0.7,),))
        x = 0.7 + 0.5j
        with pytest.raises(PoleError):
            eval_range_tableau(data, RangeTableau.column([(1, 2), (2, 2)]), x)
        assert eval_range_tableau(data, RangeTableau.column([(2, 2), (1, 1)]), x) == 0j

    @pytest.mark.parametrize(
        "cells",
        [(((0, 2),),), (((1, 4),),), (((2, 1),),), ((1,), (2,), (3,), (3,))],
        ids=["below", "above", "reversed", "too-tall"],
    )
    def test_invalid_tableau_raises(self, cells):
        data = RootData.free(3)
        t = RangeTableau(cells)
        with pytest.raises(DomainError):
            eval_range_tableau(data, t, 0.3)
        with pytest.raises(DomainError):
            eval_range_tableau_naive(data, t, 0.3)

    def test_memoized_matches_naive(self, rng):
        for n in range(2, 6):
            tabs = [
                RangeTableau.full(a, s, n) for a in range(1, n + 1) for s in range(1, 5)
            ]
            for pair in canonical_defs(n):
                for defn in pair:
                    tabs += [*defn.numerator, *defn.denominator]
            for _ in range(4):
                a = int(rng.integers(1, n + 1))
                s = int(rng.integers(1, 4))
                lo = rng.integers(1, n + 1, (a, s))
                hi = lo + rng.integers(0, n + 1 - lo)
                cells = tuple(
                    tuple((int(l), int(h)) for l, h in zip(lrow, hrow))
                    for lrow, hrow in zip(lo, hi)
                )
                tabs.append(RangeTableau(cells))
            data = random_root_data(n, rng)
            x = random_x(rng)
            for t in tabs:
                fast = eval_range_tableau(data, t, x)
                slow = eval_range_tableau_naive(data, t, x)
                assert abs(fast - slow) <= 1e-13 * abs(slow)

    def test_shared_context_matches_fresh(self, rng):
        # one context memoizes box and tableau values; every value through
        # it, first or repeated, equals a fresh context's bit for bit
        data = random_root_data(4, rng)
        ctx = EvalContext(data)
        tabs = [
            RangeTableau.column([(1, 2), (2, 4)], shift=0.5j),
            RangeTableau.column([(1, 4)], shift=-0.5j),
            RangeTableau.column([(1, 2), (2, 4)]),
            RangeTableau.full(2, 3, 4),
            RangeTableau.full(4, 4, 4),
            *(t for pair in canonical_defs(4) for d in pair for t in d.denominator),
        ]
        for x in [random_x(rng) for _ in range(6)] + [0.3 + 0.3j, -1.0 + 1e-3j]:
            xs = np.array([x, x + 0.5j, random_x(rng)])
            for _ in range(2):
                for t in tabs:
                    for point in (x, x - 0.5j, x + 0.5j):
                        assert eval_range_tableau(data, t, point, ctx) == eval_range_tableau(
                            data, t, point
                        )
                    shared = eval_range_tableau(data, t, xs, ctx)
                    assert np.array_equal(shared, eval_range_tableau(data, t, xs))
            for a in range(0, 5):
                for s in range(0, 5):
                    assert fused_eigenvalue(data, a, s, x, ctx) == fused_eigenvalue(data, a, s, x)

    def test_array_matches_scalar(self, rng):
        # full, range and canonical tableaux, fused eigenvalues and
        # auxiliary functions at an array of x equal their values at each
        # point alone, bit for bit
        for n in range(2, 6):
            tabs = [RangeTableau.full(a, s, n) for a in range(1, n + 1) for s in range(1, 5)]
            tabs += [
                RangeTableau((((1, n), (2, n)), ((2, n), (2, n))), shift=0.5j),
                RangeTableau.column([(1, 1), (1, n)]),
            ]
            defs = [defn for pair in canonical_defs(n) for defn in pair]
            for defn in defs:
                tabs += [*defn.numerator, *defn.denominator]
            data = random_root_data(n, rng)
            xs = np.array([random_x(rng) for _ in range(5)])
            for t in tabs:
                vals = eval_range_tableau(data, t, xs)
                assert vals.shape == xs.shape
                assert [eval_range_tableau(data, t, x) for x in xs] == list(vals)
            for a in range(n + 1):
                for s in range(5):
                    vals = fused_eigenvalue(data, a, s, xs)
                    assert [fused_eigenvalue(data, a, s, x) for x in xs] == list(vals)
            for defn in defs:
                vals = eval_aux(defn, data, xs)
                assert [eval_aux(defn, data, x) for x in xs] == list(vals)

    def test_one_ladder_per_point(self, rng, monkeypatch):
        # a one-point ladder reaches at least n + 3: every fused eigenvalue
        # up to n x 4 at x, x - i/2 and x + i/2 builds one ladder per point
        built, box_ladder = [], tableaux._box_ladder

        def counted(data, x, reach):
            built.append(reach)
            return box_ladder(data, x, reach)

        monkeypatch.setattr(tableaux, "_box_ladder", counted)
        for n in range(2, 6):
            data = random_root_data(n, rng)
            ctx = EvalContext(data)
            x = random_x(rng)
            built.clear()
            for a in range(n + 1):
                for s in range(5):
                    for point in (x, x - 0.5j, x + 0.5j):
                        fused_eigenvalue(data, a, s, point, ctx)
            assert built == [n + 3] * 3

    def test_array_of_x_through_every_entry_point(self, rng):
        data = random_root_data(4, rng)
        xs = np.array([random_x(rng) for _ in range(3)])
        assert np.array_equal(fused_eigenvalue(data, 0, 2, xs), np.ones(3))
        assert np.array_equal(fused_eigenvalue(data, 5, 1, xs), np.zeros(3))
        empty = RangeTableau.column([(2, 2), (1, 1)])
        assert np.array_equal(eval_range_tableau(data, empty, xs), np.zeros(3))
        for j in range(1, 5):
            lam = eval_lambda(data, j, xs)
            assert [eval_lambda(data, j, x) for x in xs] == list(lam)

    def test_array_pole_names_the_point(self):
        # two points sit on roots of q_1; the error names the first of them
        data = RootData(n=3, N=2, tau=0.4, mu=(0.0,) * 3, beta=1.0, roots=((0.7, -0.3), ()))
        xs = np.array([0.1 + 0.2j, -0.3, -0.4 + 0.1j, 0.7])
        with pytest.raises(PoleError) as err:
            eval_range_tableau(data, RangeTableau.full(1, 1, 3), xs)
        assert err.value.level == 1
        assert err.value.argument == pytest.approx(-0.3)
        assert err.value.root == pytest.approx(-0.3)
        # the same points, moved off the roots, evaluate
        vals = eval_range_tableau(data, RangeTableau.full(1, 1, 3), xs + 0.25j)
        assert np.all(np.isfinite(vals))


class TestFunctionalRelations:
    def test_counting_case(self):
        data = RootData.free(2)
        assert check_functional_relation(data, "t_system", 0.4, a=1, s=1) == 0.0

    def test_simplest_fusion(self, rng):
        data = random_root_data(3, rng)
        assert check_functional_relation(data, "simplest_fusion", random_x(rng)) < 1e-12

    @pytest.mark.parametrize("n,a,s", [(4, 2, 1), (5, 3, 2), (5, 4, 3), (3, 1, 3)])
    def test_t_system_random_data(self, rng, n, a, s):
        for _ in range(5):
            data = random_root_data(n, rng)
            res = check_functional_relation(data, "t_system", random_x(rng), a=a, s=s)
            assert res <= 1e-10

    def test_t_system_takes_two_ladders(self, rng, monkeypatch):
        # x takes a one-point ladder reaching n + 3; x -/+ i/2 share one
        # two-point ladder reaching only as far as the a x s rectangle asks
        built, box_ladder = [], tableaux._box_ladder

        def counted(data, x, reach):
            built.append((len(x), reach))
            return box_ladder(data, x, reach)

        monkeypatch.setattr(tableaux, "_box_ladder", counted)
        for n, a, s in ((2, 1, 1), (4, 2, 3), (5, 4, 2)):
            built.clear()
            data = random_root_data(n, rng)
            check_functional_relation(data, "t_system", random_x(rng), a=a, s=s)
            assert sorted(built) == [(1, n + 3), (2, a + s - 2)]

    def test_fusion_move_with_ranges(self, rng):
        for n, jvec in ((4, (1, 3)), (5, (2, 4)), (5, (1, 3, 4)), (4, (2,))):
            data = random_root_data(n, rng)
            res = check_functional_relation(
                data, "general_fusion_move", random_x(rng), jvec=jvec
            )
            assert res <= 1e-10

    def test_t_system_sweep_over_shapes(self, rng):
        # compressed version of the 100-draw property; the full run lives in
        # the acceptance suite
        worst = 0.0
        for n in range(2, 6):
            for _ in range(5):
                data = random_root_data(n, rng)
                for a in range(1, n):
                    for s in (1, 2, 3):
                        worst = max(
                            worst,
                            check_functional_relation(
                                data, "t_system", random_x(rng), a=a, s=s
                            ),
                        )
        assert worst <= 1e-10


class TestConjugation:
    def test_tableau_conjugation_identity(self, rng):
        for n in (3, 4, 5):
            data = random_root_data(n, rng)
            t = RangeTableau((((1, 2), (1, n)), ((2, n), (3, n))), shift=0.5j)
            x = random_x(rng)
            lhs = eval_range_tableau(data, t, x)
            rhs = np.conj(
                eval_range_tableau(
                    conjugate_data(data), conjugate_tableau(t, n), np.conj(x)
                )
            )
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
