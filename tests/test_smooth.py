"""Property tests of the quadrature rule every integral goes through."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ample.smooth import cumulative_simpson, quad_integral

TAILS = [(), (2,), (2, 3)]  # integrand values of shape (n,), (n, 2), (n, 2, 3)
VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# results of subnormal values are spaced 5e-324 apart, below any relative
# bound; rounding in a sum of n terms grows with n, so the absolute slack is
# n such spacings (a Higham-style n u bound)
SUBNORMAL = np.finfo(float).smallest_subnormal


def monomial_integral(a, b, k):
    """int_a^b s^k ds, with b^(k+1) - a^(k+1) factored so that nothing cancels."""
    return (b - a) * sum(a**j * b ** (k - j) for j in range(k + 1)) / (k + 1)


class TestQuadIntegral:
    @settings(max_examples=60, deadline=None)
    @given(
        coef=st.sampled_from(TAILS).flatmap(lambda tail: arrays(float, (4,) + tail, elements=VALUES)),
        a=st.floats(-5.0, 5.0),
        width=st.floats(0.01, 5.0),
        half_m=st.integers(2, 40),
    )
    @example(coef=np.full(4, 2.2250738585072014e-313), a=0.0, width=0.03125, half_m=2)
    def test_exact_for_cubics(self, coef, a, width, half_m):
        tail = coef.shape[1:]
        b = a + width

        def f(s):
            s = s.reshape((-1,) + (1,) * len(tail))
            return sum(coef[k] * s**k for k in range(4))

        got = quad_integral(f, a, b, 2 * half_m)
        exact = sum(coef[k] * monomial_integral(a, b, k) for k in range(4))
        scale = sum(np.abs(coef[k]) * max(abs(a), abs(b)) ** k for k in range(4)) * (b - a)
        assert got.shape == tail
        n_terms = 2 * half_m + 1
        assert np.all(np.abs(got - exact) <= 1e-12 * scale + n_terms * SUBNORMAL)

    def test_rejects_odd_or_few_panels(self):
        for M in (2, 7):
            with pytest.raises(ValueError):
                quad_integral(np.sin, 0.0, 1.0, M)


class TestCumulativeSimpson:
    @settings(max_examples=60, deadline=None)
    @given(
        vals=st.tuples(st.integers(2, 40), st.sampled_from(TAILS)).flatmap(
            lambda mt: arrays(float, (2 * mt[0] + 1,) + mt[1], elements=VALUES)
        ),
        h=st.floats(1e-3, 10.0),
    )
    @example(vals=np.array([5e-324, 5e-324, -3e-318, 0.0, 1e-320]), h=2.811466857557312)
    @example(vals=np.full(35, 2.2250738585072014e-311), h=0.0078125)
    def test_last_entry_is_the_whole_integral(self, vals, h):
        M = len(vals) - 1
        cum = cumulative_simpson(vals, h)
        whole = quad_integral(lambda s: vals, 0.0, M * h, M)
        assert cum.shape == vals.shape and np.all(cum[0] == 0.0)
        slack = 1e-12 * h * np.sum(np.abs(vals), axis=0) + len(vals) * SUBNORMAL
        assert np.all(np.abs(cum[-1] - whole) <= slack)

    def test_rejects_odd_panel_count(self):
        with pytest.raises(ValueError):
            cumulative_simpson(np.ones(8), 0.1)
