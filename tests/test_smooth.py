"""Property tests of the quadrature rule every integral goes through."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ample.smooth import cumulative_simpson, quad_integral

TAILS = [(), (2,), (2, 3)]  # integrand values of shape (n,), (n, 2), (n, 2, 3)
VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def monomial_integral(a, b, k):
    """int_a^b s^k ds, with b^(k+1) - a^(k+1) factored so that nothing cancels."""
    return (b - a) * sum(a**j * b ** (k - j) for j in range(k + 1)) / (k + 1)


class TestQuadIntegral:
    @settings(max_examples=60, deadline=None)
    @given(
        tail=st.sampled_from(TAILS),
        a=st.floats(-5.0, 5.0),
        width=st.floats(0.01, 5.0),
        half_m=st.integers(2, 40),
        data=st.data(),
    )
    def test_exact_for_cubics(self, tail, a, width, half_m, data):
        coef = data.draw(arrays(float, (4,) + tail, elements=VALUES))
        b = a + width

        def f(s):
            s = s.reshape((-1,) + (1,) * len(tail))
            return sum(coef[k] * s**k for k in range(4))

        got = quad_integral(f, a, b, 2 * half_m)
        exact = sum(coef[k] * monomial_integral(a, b, k) for k in range(4))
        scale = sum(np.abs(coef[k]) * max(abs(a), abs(b)) ** k for k in range(4)) * (b - a)
        assert got.shape == tail
        assert np.all(np.abs(got - exact) <= 1e-12 * scale)

    def test_rejects_odd_or_few_panels(self):
        for M in (2, 7):
            with pytest.raises(ValueError):
                quad_integral(np.sin, 0.0, 1.0, M)


class TestCumulativeSimpson:
    @settings(max_examples=60, deadline=None)
    @given(tail=st.sampled_from(TAILS), half_m=st.integers(2, 40), h=st.floats(1e-3, 10.0), data=st.data())
    def test_last_entry_is_the_whole_integral(self, tail, half_m, h, data):
        M = 2 * half_m
        vals = data.draw(arrays(float, (M + 1,) + tail, elements=VALUES))
        cum = cumulative_simpson(vals, h)
        whole = quad_integral(lambda s: vals, 0.0, M * h, M)
        assert cum.shape == vals.shape and np.all(cum[0] == 0.0)
        assert np.all(np.abs(cum[-1] - whole) <= 1e-12 * h * np.sum(np.abs(vals), axis=0))

    def test_rejects_odd_panel_count(self):
        with pytest.raises(ValueError):
            cumulative_simpson(np.ones(8), 0.1)
