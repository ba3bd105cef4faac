import numpy as np
import pytest

from ample import jets
from ample.jets import (
    DualPair,
    FamilyOfSections,
    JetSection,
    OneJet,
    Relation,
    bar_family,
    holonomy_residual,
    parametric_relation,
    psi_project,
    relation_slice,
    update,
)


def immersion_relation():
    # maps R -> R^2: the derivative column must not vanish
    return Relation(
        member=lambda jet: np.linalg.norm(jet.phi) > 0,
        margin=lambda jet: np.linalg.norm(jet.phi),
    )


class TestDualPair:
    def test_pairing_validation(self):
        with pytest.raises(ValueError):
            DualPair(pi=[1.0, 0.0], v=[0.0, 1.0])

    def test_valid(self):
        p = DualPair(pi=[1.0, 1.0], v=[1.0, 0.0])
        assert p.pairing([2.0, 3.0]) == 5.0


class TestUpdate:
    def test_columns(self):
        p = DualPair(pi=[1, 0], v=[1, 0])
        out = update(p, np.eye(2), [2, 3])
        assert np.allclose(out, np.array([[2.0, 0.0], [3.0, 1.0]]))

    def test_idempotent_case(self):
        p = DualPair(pi=[1, 0], v=[1, 0])
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(update(p, phi, phi @ p.v), phi)

    def test_skew_pair(self):
        # oracle: the rank-one formula evaluated by hand
        p = DualPair(pi=[1, 1], v=[1, 0])
        phi = np.eye(2)
        w = np.zeros(2)
        expected = phi + np.outer(w - phi @ p.v, p.pi)
        out = update(p, phi, w)
        assert np.allclose(out, expected)
        # kernel direction (1, -1) is untouched, v goes to w
        assert np.allclose(out @ np.array([1.0, -1.0]), phi @ np.array([1.0, -1.0]))
        assert np.allclose(out @ p.v, w)

    def test_random_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, m = rng.integers(2, 5), rng.integers(1, 4)
            v = rng.normal(size=n)
            pi = rng.normal(size=n)
            pi = pi / (pi @ v)
            p = DualPair(pi=pi, v=v)
            phi = rng.normal(size=(m, n))
            w = rng.normal(size=m)
            out = update(p, phi, w)
            assert np.linalg.norm(out @ v - w) <= 1e-12 * (1 + np.linalg.norm(w))
            # kernel vectors: complete v to a basis and project onto ker pi
            for _k in range(3):
                u = rng.normal(size=n)
                u = u - (pi @ u) * v
                assert np.linalg.norm((out - phi) @ u) <= 1e-11 * (1 + np.linalg.norm(u))
            again = update(p, phi, out @ v)
            assert np.allclose(again, out, atol=1e-12)

    def test_dimension_mismatch(self):
        p = DualPair(pi=[1, 0], v=[1, 0])
        with pytest.raises(ValueError):
            update(p, np.eye(3), [1, 2, 3])


class TestSlice:
    def test_immersion_slice_is_nonzero_set(self):
        R = immersion_relation()
        sigma = OneJet(x=[0.0], y=[0.0, 0.0], phi=[[1.0], [0.0]])
        p = DualPair(pi=[1.0], v=[1.0])
        sl = relation_slice(R, sigma, p)
        assert sl(np.array([0.5, -0.2]))
        assert not sl(np.zeros(2))

    def test_constant_true(self):
        R = Relation(member=lambda jet: True)
        sigma = OneJet(x=[0.0, 0.0], y=[0.0], phi=[[1.0, 2.0]])
        p = DualPair(pi=[1.0, 0.0], v=[1.0, 0.0])
        sl = relation_slice(R, sigma, p)
        rng = np.random.default_rng(1)
        assert all(sl(rng.normal(size=1)) for _ in range(20))

    def test_member_sees_the_updated_jet(self):
        seen = []
        R = Relation(member=lambda jet: seen.append(jet) or True)
        rng = np.random.default_rng(2)
        sigma = OneJet(x=rng.normal(size=3), y=rng.normal(size=2), phi=rng.normal(size=(2, 3)))
        p = DualPair(pi=[1.0, 0.5, 0.0], v=[0.6, 0.8, 0.3])
        sl = relation_slice(R, sigma, p)
        ws = [rng.normal(size=2) for _ in range(10)] + [[1.5, -2.0], (0.0, 0.0)]
        for w in ws:
            assert sl(w)
        for w, jet in zip(ws, seen):
            w = np.asarray(w, dtype=float)
            assert np.array_equal(jet.x, sigma.x) and np.array_equal(jet.y, sigma.y)
            assert np.array_equal(jet.phi, update(p, sigma.phi, w))
            # oracle: the rank-one formula written out
            assert np.array_equal(jet.phi, sigma.phi + np.outer(w - sigma.phi @ p.v, p.pi))

    def test_dimension_mismatch(self):
        R = Relation(member=lambda jet: True)
        sigma = OneJet(x=[0.0, 0.0], y=[0.0, 0.0], phi=np.eye(2))
        sl = relation_slice(R, sigma, DualPair(pi=[1.0, 0.0], v=[1.0, 0.0]))
        for w in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError):
                sl(w)
        with pytest.raises(ValueError):
            relation_slice(R, sigma, DualPair(pi=[1.0, 0.0, 0.0], v=[1.0, 0.0, 0.0]))


class TestHolonomy:
    def test_linear_exact(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0]])
        F = JetSection(f=lambda x: A @ x, phi=lambda x: A)
        assert holonomy_residual(F, [0.3, -0.7], list(np.eye(2))) <= 1e-8

    def test_mismatch(self):
        F = JetSection(f=lambda x: x.copy(), phi=lambda x: np.zeros((1, 1)))
        assert holonomy_residual(F, [0.5], [np.array([1.0])]) > 1e-3

    def test_quadratic_fd(self):
        F = JetSection(
            f=lambda x: np.array([x[0] ** 2, x[1]]),
            phi=lambda x: np.diag([2.0 * x[0], 1.0]),
        )
        assert holonomy_residual(F, [1.0, 1.0], list(np.eye(2))) <= 1e-6

    def test_analytic_derivative_preferred(self):
        F = JetSection(
            f=lambda x: np.array([np.sin(x[0])]),
            phi=lambda x: np.array([[np.cos(x[0])]]),
            df=lambda x: np.array([[np.cos(x[0])]]),
        )
        assert holonomy_residual(F, [0.4], [np.array([1.0])]) <= 1e-14


class TestPsiProject:
    def test_block_extraction(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0], [6.0]])
        sigma = OneJet(x=[0.1, 0.2, 0.3], y=[1.0, 2.0], phi=np.hstack([A, B]))
        out = psi_project(sigma, 2)
        assert np.allclose(out.phi, A)
        assert np.allclose(out.x, [0.1, 0.2])

    def test_trivial_parameter(self):
        sigma = OneJet(x=[0.1], y=[1.0], phi=[[2.0]])
        out = psi_project(sigma, 1)
        assert np.allclose(out.phi, sigma.phi)

    def test_single_column(self):
        sigma = OneJet(x=[0.0, 0.0], y=[1.0, 2.0], phi=[[1.0, 2.0], [3.0, 4.0]])
        out = psi_project(sigma, 1)
        assert np.allclose(out.phi, [[1.0], [3.0]])


class TestParametricRelation:
    def test_param_dim_zero_preserves(self):
        R = immersion_relation()
        RP = parametric_relation(R, 0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            jet = OneJet(x=rng.normal(size=1), y=rng.normal(size=2), phi=rng.normal(size=(2, 1)))
            assert R.member(jet) == RP.member(jet)

    def test_parameter_block_discarded(self):
        R = immersion_relation()
        RP = parametric_relation(R, 1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = rng.normal(size=(2, 1))
            B = rng.normal(size=(2, 1))
            jet = OneJet(x=rng.normal(size=2), y=rng.normal(size=2), phi=np.hstack([A, B]))
            assert RP.member(jet) == (np.linalg.norm(A) > 0)

    def test_definition_oracle(self):
        R = Relation(member=lambda jet: float(jet.phi.sum()) > 0.0)
        RP = parametric_relation(R, 2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            jet = OneJet(x=rng.normal(size=3), y=rng.normal(size=2), phi=rng.normal(size=(2, 3)))
            assert RP.member(jet) == R.member(psi_project(jet, 1))


class TestBarFamily:
    def test_constant_in_p(self):
        fam = FamilyOfSections(
            dim_e=1,
            param_dim=1,
            eval=lambda p, x: (np.array([x[0], 2.0 * x[0]]), np.array([[1.0], [2.0]])),
        )
        bar = bar_family(fam)
        phi = bar.phi(np.array([0.3, 0.7]))
        assert np.allclose(phi[:, 1], 0.0, atol=1e-9)

    def test_shift_family_hand_derivative(self):
        # f_p(x) = x + p over E = F = P = R: the lifted candidate is [1 | 1]
        fam = FamilyOfSections(
            dim_e=1,
            param_dim=1,
            eval=lambda p, x: (np.array([x[0] + p[0]]), np.array([[1.0]])),
        )
        bar = bar_family(fam)
        xp = np.array([0.2, -0.4])
        assert np.allclose(bar.phi(xp), np.array([[1.0, 1.0]]), atol=1e-9)
        assert holonomy_residual(bar, xp, list(np.eye(2))) <= 1e-7

    def test_holonomy_equivalence_sampled(self):
        # holonomic in the lift exactly when the slice family is holonomic
        def ev(p, x):
            y = np.array([np.sin(x[0]) + p[0] ** 2])
            phi = np.array([[np.cos(x[0]) + p[0]]])  # wrong unless p = 0
            return y, phi

        fam = FamilyOfSections(dim_e=1, param_dim=1, eval=ev)
        bar = bar_family(fam)
        for pv, expect in [(0.0, True), (0.5, False)]:
            xp = np.array([0.3, pv])
            sec = fam.section_at(np.array([pv]))
            assert (holonomy_residual(sec, [0.3], [np.array([1.0])]) <= 1e-5) == expect
            assert (holonomy_residual(bar, xp, list(np.eye(2))) <= 1e-5) == expect

    def test_projection_roundtrip(self):
        def ev(p, x):
            return np.array([x[0] * p[0]]), np.array([[p[0]]])

        fam = FamilyOfSections(dim_e=1, param_dim=1, eval=ev)
        bar = bar_family(fam)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, pv = rng.normal(size=2)
            xp = np.array([x, pv])
            jet = psi_project(bar.jet(xp), 1)
            f, phi = fam.eval(np.array([pv]), np.array([x]))
            assert np.allclose(jet.y, f)
            assert np.allclose(jet.phi, phi)
