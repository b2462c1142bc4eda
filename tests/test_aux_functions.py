"""Canonical auxiliary functions, the legacy set, f and the Y-system."""

from math import comb, prod

import numpy as np
import pytest

from qtmchain import (
    EvalContext,
    RootData,
    canonical_defs,
    canonical_pair,
    check_y_relations,
    counting_values,
    eval_aux,
    eval_f,
    eval_f_conjugate,
    eval_range_tableau,
    function_order,
    legacy_defs,
)
from qtmchain.aux_functions import (
    _counting_values,
    check_species_conjugation,
    legacy_cross_relations,
    species_conjugation_index,
)
from qtmchain.errors import DomainError

from conftest import random_root_data, random_x


class TestDefinitions:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 14), (5, 30)])
    def test_function_counts(self, n, count):
        pairs = canonical_defs(n)
        assert len(pairs) == count == 2**n - 2
        for a in range(1, n):
            assert len(function_order(n, a)) == comb(n, a)

    def test_n5_kernel_order(self):
        # the a = 2, 3 sectors interleave non-lexicographically
        assert function_order(5, 2)[:5] == ((1, 2), (1, 3), (2, 3), (1, 4), (1, 5))
        assert function_order(5, 3)[5:8] == ((2, 3, 4), (2, 3, 5), (1, 4, 5))
        assert function_order(5, 1) == ((1,), (2,), (3,), (4,), (5,))

    def test_legacy_counts(self):
        assert len(legacy_defs(4)) == 14
        for n in (3, 5):
            with pytest.raises(DomainError):
                legacy_defs(n)

    def test_invalid_jvec(self):
        with pytest.raises(DomainError):
            canonical_pair(4, (2, 2))
        with pytest.raises(DomainError):
            canonical_pair(4, (0, 1))

    def test_definitions_cannot_be_mutated(self):
        # the pairs are built once per n; a caller's list is its own copy
        pairs = canonical_defs(4)
        first = pairs[0]
        pairs.clear()
        assert canonical_defs(4)[0] == first
        assert len(canonical_defs(4)) == 14
        assert canonical_pair(4, [1, 3]) is canonical_pair(4, (1, 3))

    def test_eval_aux_at_an_array_of_x(self, rng):
        data = random_root_data(5, rng)
        xs = np.array([random_x(rng) for _ in range(6)])
        for defn in canonical_pair(5, (2, 4)):
            vals = eval_aux(defn, data, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs, vals):
                assert eval_aux(defn, data, x) == v


class TestCountingValues:
    def test_sl4_first_pair(self):
        binf, Binf = counting_values(4)
        assert binf[0] == pytest.approx(1.0 / 3.0)
        assert Binf[0] == pytest.approx(4.0 / 3.0)

    def test_sl5_conjugate_ends(self):
        binf, _ = counting_values(5)
        assert binf[0] == pytest.approx(0.25)
        assert binf[-1] == pytest.approx(binf[0])

    def test_b_plus_one_counting(self):
        for n in (2, 3, 4, 5):
            binf, Binf = counting_values(n)
            assert np.max(np.abs(Binf - 1.0 - binf)) < 1e-14

    def test_weighted_counting(self):
        mu = (0.3, -0.2, 0.1, 0.0)
        binf, _ = counting_values(4, beta=1.0, mu=mu)
        w = np.exp(mu)
        assert binf[0] == pytest.approx(w[0] / (w[1] + w[2] + w[3]))

    @pytest.mark.parametrize("n, beta, mu", [
        (5, 20.0, None), (5, 0.01, None), (4, 2.5, (0.3, 0.0, 0.0, -0.3)),
        (5, 5.0, (0.2, 0.0, 0.0, 0.0, -0.2)),
    ])
    def test_cache_against_the_sums(self, n, beta, mu):
        # the cached values, keyed by beta*mu, are the ratios of the sums
        # over the weighted fillings at (beta, mu), taken in float
        # arithmetic, bit for bit; they lie within two ulp of eval_aux's
        # complex ratio, which divides by multiplying with the reciprocal,
        # and every call returns arrays of its own
        data = RootData.free(n, beta=beta, mu=mu)
        ctx = EvalContext(data)

        def ratio(defn):
            num, den = (
                prod(eval_range_tableau(data, t, 0.0, ctx).real for t in tableaux)
                for tableaux in (defn.numerator, defn.denominator)
            )
            return num / den

        pairs = canonical_defs(n)
        binf = np.array([ratio(lower) for _, lower in pairs])
        Binf = np.array([ratio(upper) for upper, _ in pairs])
        first = counting_values(n, beta=beta, mu=mu)
        first[0][:] = np.nan
        got = counting_values(n, beta=beta, mu=mu)
        assert np.array_equal(got[0], binf) and np.array_equal(got[1], Binf)
        for value, (upper, _) in zip(Binf, pairs):
            assert abs(eval_aux(upper, data, 0.0, ctx) - value) <= 2 * np.finfo(float).eps * value

    def test_one_entry_at_zero_mu(self):
        # at mu = 0 the key beta*mu is the same at every temperature
        counting_values(5, beta=7.0)
        hits = _counting_values.cache_info().hits
        counting_values(5, beta=0.5)
        counting_values(5, beta=40.0, mu=(0.0,) * 5)
        assert _counting_values.cache_info().hits == hits + 2


class TestFusionPair:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_b_equals_one_plus_b(self, rng, n):
        worst = 0.0
        for _ in range(8):
            data = random_root_data(n, rng)
            ctx = EvalContext(data)
            for _ in range(3):
                x = random_x(rng)
                for upper, lower in canonical_defs(n):
                    B = eval_aux(upper, data, x, ctx)
                    b = eval_aux(lower, data, x, ctx)
                    worst = max(worst, abs(B - 1.0 - b) / (1.0 + abs(B)))
        assert worst <= 1e-10

    def test_asymptotic_values(self, rng):
        # evaluating far out on the real axis reproduces the weighted counts
        for n in (4, 5):
            data = random_root_data(n, rng, max_roots=1)
            weights = counting_values(n, beta=data.beta, mu=data.mu)
            ctx = EvalContext(data)
            for idx, (upper, _) in enumerate(canonical_defs(n)):
                far = eval_aux(upper, data, 1.0e6, ctx)
                assert abs(far - weights[1][idx]) <= 1e-6 * abs(weights[1][idx])


class TestF:
    def test_counting_value(self):
        data = RootData.free(4)
        assert eval_f(4, data, 0.3) == pytest.approx(25.0 / 24.0)

    def test_self_conjugated(self, rng):
        from qtmchain import conjugate_data

        data = random_root_data(4, rng)
        x = random_x(rng)
        lhs = eval_f(4, data, x)
        rhs = np.conj(eval_f(4, conjugate_data(data), np.conj(x)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_f5_finite_nonzero(self, rng):
        data = random_root_data(5, rng)
        val = eval_f(5, data, random_x(rng))
        assert np.isfinite(val) and val != 0
        valbar = eval_f_conjugate(5, data, random_x(rng))
        assert np.isfinite(valbar) and valbar != 0


class TestYSystem:
    def test_counting_case(self):
        data = RootData.free(4)
        res = check_y_relations(4, data, 0.0)
        assert max(res.values()) < 1e-13

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_data(self, rng, n):
        worst = 0.0
        for _ in range(4):
            data = random_root_data(n, rng, max_roots=1)
            res = check_y_relations(n, data, random_x(rng))
            worst = max(worst, max(res.values()))
        assert worst <= 1e-10


class TestLegacyRelations:
    def test_cross_relations_random(self, rng):
        worst = 0.0
        for _ in range(10):
            data = random_root_data(4, rng)
            worst = max(worst, max(legacy_cross_relations(data, random_x(rng)).values()))
        assert worst <= 1e-10

    def test_counting_value_of_legacy(self):
        data = RootData.free(4)
        ctx = EvalContext(data)
        legacy = {d.label: d for d in legacy_defs(4)}
        # B_{1,2} counting: 3*5/(2*6)
        assert eval_aux(legacy[(1, (2,))], data, 0.0, ctx) == pytest.approx(1.25)


class TestSpeciesConjugation:
    def test_index_map(self):
        assert species_conjugation_index(4, (1,)) == (4,)
        assert species_conjugation_index(4, (1, 4)) == (1, 4)
        assert species_conjugation_index(5, (2, 3)) == (3, 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identity(self, rng, n):
        data = random_root_data(n, rng, max_roots=1)
        res = check_species_conjugation(n, data, random_x(rng))
        assert max(res.values()) <= 1e-10
