import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wildriff.core import NonFiniteDataError
from wildriff.metrics import (
    EmptyInputError,
    MetricsError,
    OptimismPair,
    ShapeMismatchError,
    empirical_norm,
    ht_average,
    wild_optimism,
    wild_responses,
)
from wildriff.sampling import Subsample

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(length, elements=finite_floats):
    return arrays(dtype=np.float64, shape=(length,), elements=elements)


class TestEmpiricalNorm:
    def test_three_four(self):
        assert empirical_norm([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_zeros(self):
        assert empirical_norm(np.zeros(7)) == 0.0

    def test_constant_vector(self):
        assert empirical_norm(np.full(11, -2.5)) == pytest.approx(2.5, rel=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            empirical_norm([])

    @given(c=st.floats(-100, 100, allow_nan=False), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, c, data):
        v = data.draw(vec(data.draw(st.integers(1, 20)), st.floats(-100, 100)))
        assert empirical_norm(c * v) == pytest.approx(abs(c) * empirical_norm(v), abs=1e-9)


class TestOptimismPair:
    def test_total(self):
        pair = OptimismPair(opt_tilde=0.25, opt_check=-0.5)
        assert pair.total == -0.25

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["opt_tilde", "opt_check"])
    def test_non_finite_field_rejected(self, field, bad):
        values = {"opt_tilde": 0.1, "opt_check": 0.2, field: bad}
        with pytest.raises(NonFiniteDataError):
            OptimismPair(**values)


class TestWildResponses:
    def test_plus(self):
        out = wild_responses([0.0], [1.0], [2.0], rho=1.0, direction="plus")
        assert out[0] == pytest.approx(2.0)

    def test_minus(self):
        out = wild_responses([0.0], [1.0], [2.0], rho=1.0, direction="minus")
        assert out[0] == pytest.approx(-2.0)

    def test_rho_zero_rejected(self):
        with pytest.raises(MetricsError):
            wild_responses([0.0], [1.0], [2.0], rho=0.0, direction="plus")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            wild_responses([0.0, 1.0], [1.0], [2.0], rho=1.0, direction="plus")

    def test_plus_minus_mirror(self):
        b = np.array([1.0, -2.0, 0.5])
        e = np.array([1.0, -1.0, 1.0])
        v = np.array([0.3, 0.7, -1.1])
        plus = wild_responses(b, e, v, 2.0, "plus")
        minus = wild_responses(b, e, v, 2.0, "minus")
        np.testing.assert_allclose(plus + minus, 2 * b)


class TestWildOptimism:
    def test_hand_example(self):
        # (1*1*2 + (-1)*1*0) / 2 = 1
        val = wild_optimism([1.0, -1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0])
        assert val == pytest.approx(1.0)

    def test_zero_when_wild_equals_breve(self):
        b = np.array([0.4, 0.9, -0.2])
        assert wild_optimism([1, -1, 1], [0.5, 1.5, 2.0], b, b) == 0.0

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_sign_antisymmetry(self, data):
        m = data.draw(st.integers(1, 15))
        signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
        res = data.draw(vec(m, st.floats(-100, 100)))
        wild = data.draw(vec(m, st.floats(-100, 100)))
        breve = data.draw(vec(m, st.floats(-100, 100)))
        a = wild_optimism(signs, res, wild, breve)
        b = wild_optimism(-signs, res, wild, breve)
        assert a == pytest.approx(-b, abs=1e-9)


class TestHtAverage:
    def test_full_index_set_recovers_full_average(self):
        n = 9
        rng = np.random.default_rng(0)
        e = rng.choice([-1.0, 1.0], n)
        v = rng.normal(size=n)
        g = rng.normal(size=n)
        sub = Subsample(indices=np.arange(n), n=n)
        assert ht_average(e, v, g, sub) == pytest.approx(float(np.mean(e * v * g)), rel=1e-12)

    def test_zero_diff(self):
        sub = Subsample(indices=np.array([0, 2]), n=4)
        assert ht_average([1, -1, 1, -1], [1.0, 2.0, 3.0, 4.0], np.zeros(4), sub) == 0.0

    def test_exhaustive_unbiasedness_n4_m2(self):
        rng = np.random.default_rng(42)
        e = rng.choice([-1.0, 1.0], 4)
        v = rng.normal(size=4)
        g = rng.normal(size=4)
        a_n = float(np.mean(e * v * g))
        vals = [ht_average(e, v, g, Subsample(indices=np.array(c), n=4))
                for c in itertools.combinations(range(4), 2)]
        assert abs(np.mean(vals) - a_n) < 1e-12

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_unbiasedness_property(self, data):
        n = data.draw(st.integers(2, 8))
        m = data.draw(st.integers(1, n))
        e = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        v = data.draw(vec(n, st.floats(-10, 10)))
        g = data.draw(vec(n, st.floats(-10, 10)))
        a_n = float(np.mean(e * v * g))
        vals = [ht_average(e, v, g, Subsample(indices=np.array(c), n=n))
                for c in itertools.combinations(range(n), m)]
        assert abs(float(np.mean(vals)) - a_n) < 1e-10 * max(1.0, abs(a_n))

    def test_parent_size_mismatch(self):
        sub = Subsample(indices=np.array([0, 1]), n=3)
        with pytest.raises(ShapeMismatchError):
            ht_average([1.0, -1.0], [1.0, 1.0], [1.0, 1.0], sub)
