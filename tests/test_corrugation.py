from dataclasses import replace

import numpy as np
import pytest

from ample import loops
from ample.corrugation import (
    _AVG_M,
    CorrugationJob,
    choose_N,
    corrugated_derivative,
    corrugation,
    remainder,
    sup_norms,
)
from ample.errors import BudgetExceeded
from ample.jets import DualPair
from ample.smooth import quad_integral


class CircleFamily(loops.LoopFamily):
    """gamma_x(s) = center + (cos 2 pi s, sin 2 pi s), independent of x and t."""

    def __init__(self, center=(0.0, 0.0)):
        self.dim_f = 2
        self.center = np.asarray(center, dtype=float)

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.center + np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)


class ScaledCircleFamily(loops.LoopFamily):
    """gamma_x(s) = x_0 * circle(s): linear in the point."""

    def __init__(self):
        self.dim_f = 2

    def eval(self, x, t, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ring = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=-1)
        return float(np.atleast_1d(x)[0]) * ring


class ConstantFamily(loops.LoopFamily):
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.dim_f = self.value.size

    def eval(self, x, t, s):
        return np.tile(self.value, (len(np.atleast_1d(s)), 1))


class CountingFamily(CircleFamily):
    """CircleFamily that counts every call into eval, average_at and integral_over."""

    def __init__(self, center=(0.0, 0.0)):
        super().__init__(center)
        self.calls = 0

    def eval(self, x, t, s):
        self.calls += 1
        return super().eval(x, t, s)

    def average_at(self, x, t, M=256):
        self.calls += 1
        return super().average_at(x, t, M=M)

    def integral_over(self, x, t, a, b, M=256):
        self.calls += 1
        return super().integral_over(x, t, a, b, M=M)


class EvalCountingFamily(CircleFamily):
    """CircleFamily that counts its eval calls and keeps the inherited
    LoopFamily.average_at, whose quadrature calls eval too."""

    def __init__(self, center=(0.0, 0.0)):
        super().__init__(center)
        self.evals = 0

    def eval(self, x, t, s):
        self.evals += 1
        return super().eval(x, t, s)


def corrugation_direct(job, x, t):
    """Oracle: corrugation by direct quadrature over the full span
    [0, N pi(x)], at the panel density the periodicity reduction implicitly
    uses."""
    z = job.N * job.p.pairing(x)
    if z == 0.0:
        return np.zeros(job.family.dim_f)
    M = max(2048, 512 * int(np.ceil(abs(z))))
    M += M % 2
    I = job.family.integral_over(x, t, 0.0, z, M=M)
    return (I - z * job.family.average_at(x, t, M=_AVG_M)) / job.N


def pair2():
    return DualPair(pi=[1.0, 0.0], v=[1.0, 0.0])


def circle_corrugation_exact(N, x1):
    """Oracle: the closed-form antiderivative of the centered circle loop."""
    return np.array(
        [np.sin(2 * np.pi * N * x1) / (2 * np.pi * N), (1 - np.cos(2 * np.pi * N * x1)) / (2 * np.pi * N)]
    )


class TestQuadIntegral:
    def test_linear_exact(self):
        assert float(quad_integral(lambda s: s, 0.0, 1.0, 16)) == pytest.approx(0.5, abs=1e-15)

    def test_cubic_exact(self):
        assert float(quad_integral(lambda s: s**3, 0.0, 1.0, 16)) == pytest.approx(0.25, abs=1e-15)

    def test_sine_period(self):
        val = float(quad_integral(lambda s: np.sin(2 * np.pi * s), 0.0, 1.0, 64))
        assert abs(val) <= 1e-10


class TestCorrugation:
    def test_constant_family_zero(self):
        job = CorrugationJob(pair2(), 8.0, ConstantFamily([1.0, -2.0]))
        for x in ([0.3, 0.1], [2.0, -1.0]):
            assert np.linalg.norm(corrugation(job, x, 0.7)) <= 1e-12

    def test_circle_closed_form(self):
        fam = CircleFamily()
        rng = np.random.default_rng(0)
        for N in (1.0, 4.0, 16.0):
            job = CorrugationJob(pair2(), N, fam)
            for _ in range(10):
                x = rng.uniform(-2, 2, size=2)
                got = corrugation(job, x, 0.5)
                want = circle_corrugation_exact(N, x[0])
                assert np.linalg.norm(got - want) <= 1e-10

    def test_zero_pairing(self):
        job = CorrugationJob(pair2(), 8.0, CircleFamily())
        assert np.linalg.norm(corrugation(job, [0.0, 3.0], 0.2)) <= 1e-14

    def test_whole_phase_calls_no_family(self):
        fam = CountingFamily(center=(0.4, -0.2))
        job = CorrugationJob(pair2(), 4.0, fam)
        for x in ([0.75, 0.3], [-1.25, 2.0], [3.0, -0.6]):  # N pi(x) = 3, -5, 12
            got = corrugation(job, x, 0.7)
            assert got.shape == (fam.dim_f,) and np.all(got == 0.0)
        assert fam.calls == 0

    def test_periodicity_reduction_matches_direct(self):
        rng = np.random.default_rng(1)
        fam = CircleFamily(center=(0.4, -0.2))
        for _ in range(20):
            N = float(rng.integers(1, 9))
            job = CorrugationJob(pair2(), N, fam)
            x = rng.uniform(-2, 2, size=2)
            a = corrugation(job, x, 0.3)
            b = corrugation_direct(job, x, 0.3)
            assert np.linalg.norm(a - b) <= 1e-8


class TestRemainder:
    def test_constant_in_x(self):
        job = CorrugationJob(pair2(), 4.0, CircleFamily())
        R = remainder(job, [0.37, 0.2], 0.9)
        assert np.linalg.norm(R) <= 1e-9

    def test_linear_in_x_columnwise(self):
        # oracle: d(gamma)/dx_0 = circle, so column 0 is the circle corrugation
        fam = ScaledCircleFamily()
        N = 4.0
        job = CorrugationJob(pair2(), N, fam)
        x = np.array([0.63, -0.4])
        R = remainder(job, x, 0.5)
        want = circle_corrugation_exact(N, x[0])
        assert np.linalg.norm(R[:, 0] - want) <= 1e-8
        assert np.linalg.norm(R[:, 1]) <= 1e-9

    def test_zero_pairing(self):
        job = CorrugationJob(pair2(), 4.0, ScaledCircleFamily())
        assert np.linalg.norm(remainder(job, [0.0, 1.0], 0.5)) <= 1e-14


def fd_corrugation_jacobian(job, x, t, h=1e-5):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((corrugation(job, x + e, t) - corrugation(job, x - e, t)) / (2 * h))
    return np.stack(cols, axis=-1)


class TestCorrugatedDerivative:
    def test_constant_family(self):
        job = CorrugationJob(pair2(), 8.0, ConstantFamily([0.5, 0.5]))
        x = np.array([0.4, -0.1])
        D = corrugated_derivative(job, x, 0.3)
        assert np.linalg.norm(D) <= 1e-10
        assert np.linalg.norm(fd_corrugation_jacobian(job, x, 0.3) - D) <= 1e-10

    def test_circle_fd_match(self):
        fam = CircleFamily()
        job = CorrugationJob(pair2(), 4.0, fam)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            D = corrugated_derivative(job, x, 0.2)
            F = fd_corrugation_jacobian(job, x, 0.2)
            assert np.linalg.norm(D - F) <= 1e-5 * (1 + np.linalg.norm(D))

    def test_x_constant_family_rank_one(self):
        fam = CircleFamily()
        N = 8.0
        job = CorrugationJob(pair2(), N, fam)
        x = np.array([0.21, 0.9])
        D = corrugated_derivative(job, x, 0.5)
        want = np.outer(fam.eval(x, 0.5, np.array([N * x[0]]))[0], np.array([1.0, 0.0]))
        assert np.linalg.norm(D - want) <= 1e-9


class TestChooseN:
    def grid_points(self):
        xs = np.linspace(-1, 1, 9)
        return [np.array([a, b]) for a in xs for b in xs]

    def test_constant_family_accepts_base(self):
        job = CorrugationJob(pair2(), 1.0, ConstantFamily([1.0, 0.0]))
        assert choose_N(job, self.grid_points(), [0.0, 1.0], eps=0.01) == 1.0

    def test_circle_family_bounds_and_minimality(self):
        fam = CircleFamily()
        job = CorrugationJob(pair2(), 1.0, fam)
        pts = self.grid_points()
        N = choose_N(job, pts, [0.5, 1.0], eps=0.01)
        ok_c, ok_r = sup_norms(replace(job, N=N), pts, [0.5, 1.0])
        assert ok_c <= 0.01 and ok_r <= 0.01
        half_c, half_r = sup_norms(replace(job, N=N / 2), pts, [0.5, 1.0])
        assert max(half_c, half_r) > 0.01
        # |Corr| peaks at x_1 = 1/(2N), off the nodes x_1 in Z/4 where N pi(x)
        # is an integer and every sampled corrugation vanishes
        x = np.array([1.0 / (2.0 * N), 0.3])
        exact = circle_corrugation_exact(N, x[0])
        assert np.linalg.norm(exact) <= 0.01
        got = corrugation(replace(job, N=N), x, 1.0)
        assert np.linalg.norm(got - exact) <= 1e-10

    def test_bound_samples_each_point_once(self):
        # one sample array at x and at each of the 2d shifted points; the
        # inherited mean reuses it instead of sampling again
        fam = EvalCountingFamily(center=(0.4, -0.2))
        pts = self.grid_points()[:7]
        sup_norms(CorrugationJob(pair2(), 1.0, fam), pts, [0.5, 1.0])
        assert fam.evals == (1 + 2 * 2) * len(pts) * 2

    def test_one_over_n_decay(self):
        fam = CircleFamily()
        pts = self.grid_points()
        sups = {}
        for N in (4.0, 8.0, 16.0, 32.0):
            job = CorrugationJob(pair2(), N, fam)
            sups[N], _ = sup_norms(job, pts, [1.0])
        products = [N * sups[N] for N in (4.0, 8.0, 16.0, 32.0)]
        assert max(products) / min(products) <= 1.10

    def test_budget_exceeded(self):
        class Unbounded(loops.LoopFamily):
            def __init__(self):
                self.dim_f = 1

            def eval(self, x, t, s):
                s = np.atleast_1d(s)
                return np.sign(np.sin(2 * np.pi * s))[:, None] * 1e9

            def average_at(self, x, t, M=256):
                return np.zeros(1)

        job = CorrugationJob(DualPair(pi=[1.0], v=[1.0]), 1.0, Unbounded())
        with pytest.raises(BudgetExceeded):
            choose_N(job, [np.array([0.31])], [1.0], eps=1e-12)
