import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precondrisk import (OutOfRegimeError, SpectralMeasure,
                         finite_diff_check, m_derivative, solve_m)


def _measure(values, weights):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return SpectralMeasure(values, weights / weights.sum())


class TestClosedForms:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 5.0])
    def test_point_mass(self, c, gamma):
        spec = _measure([c], [1.0])
        sol = solve_m(spec, gamma)
        assert sol.m0 == pytest.approx(1.0 / (c * (gamma - 1)), rel=1e-12)

    @pytest.mark.parametrize("pair", [(1.0, 4.0), (0.25, 9.0)])
    def test_two_equal_atoms_gamma_two(self, pair):
        a, b = pair
        spec = _measure([a, b], [0.5, 0.5])
        sol = solve_m(spec, 2.0)
        assert sol.m0 == pytest.approx(1.0 / math.sqrt(a * b), rel=1e-12)

    def test_two_atom_normalized_gamma_two(self, two_atom20):
        a, b = two_atom20.values
        sol = solve_m(two_atom20, 2.0)
        assert sol.m0 == pytest.approx(1.0 / math.sqrt(a * b), rel=1e-12)
        # frozen reference for the kappa=20 Frobenius-normalized pair
        assert sol.m0 == pytest.approx(3.1662280397975135, rel=1e-10)
        assert sol.m_prime == pytest.approx(33.562410548157196, rel=1e-8)

    def test_point_mass_derivative(self):
        # m = 1/(c(gamma-1)) at lam=0; closed form for m' as well:
        # m' = 1/(1/m^2 - gamma c^2/(1+cm)^2) with cm = 1/(gamma-1)
        c, gamma = 2.0, 3.0
        sol = solve_m(_measure([c], [1.0]), gamma)
        m = sol.m0
        expected = 1.0 / (1.0 / m ** 2 - gamma * c ** 2 / (1 + c * m) ** 2)
        assert sol.m_prime == pytest.approx(expected, rel=1e-12)


class TestSolver:
    def test_self_consistency_residual(self, two_atom20):
        for gamma in (1.1, 2.0, 7.0):
            sol = solve_m(two_atom20, gamma)
            lhs = 1.0 / sol.m0
            rhs = gamma * float(np.sum(
                two_atom20.weights * two_atom20.values
                / (1 + two_atom20.values * sol.m0)))
            assert lhs == pytest.approx(rhs, rel=1e-11)
            assert abs(sol.residual) <= 1e-12 * max(1.0, sol.m0)

    def test_ridge_monotone_in_lambda(self, two_atom20):
        sols = [solve_m(two_atom20, 2.0, lam) for lam in (0.0, 0.1, 1.0)]
        assert sols[0].m0 > sols[1].m0 > sols[2].m0

    def test_gamma_at_most_one_rejected(self, two_atom20):
        with pytest.raises(OutOfRegimeError):
            solve_m(two_atom20, 1.0)
        with pytest.raises(OutOfRegimeError):
            solve_m(two_atom20, 0.7)

    def test_ratio_property(self, two_atom20):
        sol = solve_m(two_atom20, 2.0)
        assert sol.ratio == pytest.approx(sol.m_prime / sol.m0 ** 2)

    def test_gamma_near_one_explodes(self, two_atom20):
        # variance factor m'/m^2 - 1 ~ 1/(gamma-1) near the threshold
        near = solve_m(two_atom20, 1.0 + 1e-6)
        assert near.ratio - 1.0 > 1e5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1),
           st.floats(1.05, 10.0))
    def test_random_spectra_solve(self, k, seed, gamma):
        rng = np.random.default_rng(seed)
        spec = _measure(rng.uniform(0.1, 10.0, k), rng.dirichlet(np.ones(k)))
        sol = solve_m(spec, gamma)
        assert sol.m0 > 0
        assert sol.m_prime > 0
        assert abs(sol.residual) <= 1e-12 * max(1.0, sol.m0)


class TestDerivative:
    def test_matches_finite_difference(self, two_atom20):
        for gamma, lam in ((1.3, 0.05), (2.0, 0.2), (5.0, 0.01)):
            sol = solve_m(two_atom20, gamma, lam)
            mp = m_derivative(two_atom20, gamma, sol)
            fd = finite_diff_check(two_atom20, gamma, lam,
                                   h=1e-6 * max(1.0, lam))
            assert mp == pytest.approx(fd, rel=1e-6)
            assert mp == pytest.approx(sol.m_prime, rel=1e-12)

    def test_finite_diff_needs_room(self, two_atom20):
        with pytest.raises(Exception):
            finite_diff_check(two_atom20, 2.0, 0.0, h=1e-6)
