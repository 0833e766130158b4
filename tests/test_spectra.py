import math

import numpy as np
import pytest

from precondrisk import (DomainError, PreconditionerSpec, SpectralMeasure,
                         make_joint, make_poly_decay, make_two_atom,
                         make_uniform, precondition_spectrum)
from conftest import inv_prior, iso_prior


class TestSpectralMeasure:
    def test_two_atom_frobenius(self):
        spec = make_two_atom(20.0)
        a = math.sqrt(2.0 / (1.0 + 400.0))
        assert spec.values == pytest.approx([a, 20 * a], rel=1e-14)
        assert np.all(spec.weights == 0.5)
        assert spec.second_moment() == pytest.approx(1.0, abs=1e-12)
        assert spec.condition_number() == pytest.approx(20.0)
        assert spec.normalized_frobenius

    def test_two_atom_raw(self):
        spec = make_two_atom(20.0, frobenius_normalize=False)
        assert spec.values == pytest.approx([1.0, 20.0])

    def test_uniform(self):
        spec = make_uniform(20.0, 200)
        assert spec.n_atoms == 200
        assert spec.condition_number() == pytest.approx(20.0, rel=1e-12)
        assert spec.second_moment() == pytest.approx(1.0, abs=1e-10)
        assert np.all(spec.weights == 1.0 / 200)

    def test_poly_decay(self):
        spec = make_poly_decay(1.0, 500.0, 300)
        assert spec.n_atoms == 300
        assert spec.condition_number() == pytest.approx(500.0, rel=1e-10)
        assert spec.second_moment() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(spec.values) > 0)  # sorted ascending

    def test_poly_decay_exponent_too_small(self):
        # i**(-1e-20) rounds to 1 for every i: no spread to rescale
        with pytest.raises(DomainError):
            make_poly_decay(1e-20, 500.0, 300)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            SpectralMeasure(np.array([1.0, 2.0]), np.array([0.6, 0.6]))

    def test_rejects_negative_atoms(self):
        with pytest.raises(DomainError):
            SpectralMeasure(np.array([-0.5, 2.0]), np.array([0.5, 0.5]))

    def test_rejects_zero_weight(self):
        with pytest.raises(DomainError):
            SpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_merges_duplicate_atoms(self):
        spec = SpectralMeasure(np.array([2.0, 1.0, 2.0]),
                               np.array([0.25, 0.5, 0.25]))
        assert spec.n_atoms == 2
        assert spec.values == pytest.approx([1.0, 2.0])
        assert spec.weights == pytest.approx([0.5, 0.5])

    def test_expect_and_moments(self):
        spec = SpectralMeasure(np.array([1.0, 3.0]), np.array([0.25, 0.75]))
        assert spec.mean() == pytest.approx(2.5)
        assert spec.expect(lambda v: v ** 2) == pytest.approx(7.0)

    def test_scaled(self):
        spec = make_two_atom(5.0)
        doubled = spec.scaled(2.0)
        assert doubled.values == pytest.approx(2 * spec.values)
        assert doubled.weights == pytest.approx(spec.weights)

    def test_record_roundtrip(self):
        spec = make_uniform(7.0, 5)
        back = SpectralMeasure.from_record(spec.to_record())
        assert back.values == pytest.approx(spec.values, rel=1e-15)
        assert back.weights == pytest.approx(spec.weights, rel=1e-15)

    def test_json_roundtrip(self):
        spec = make_two_atom(20.0)
        back = SpectralMeasure.from_json(spec.to_json())
        assert back.values == pytest.approx(spec.values, rel=1e-15)

    def test_point_mass_detection(self):
        one = SpectralMeasure(np.array([2.0]), np.array([1.0]))
        assert one.is_point_mass
        assert not make_two_atom(3.0).is_point_mass


class TestPreconditionerSpec:
    def test_population_kinds(self):
        assert PreconditionerSpec.identity().is_population
        assert PreconditionerSpec.inverse_pop_fisher().is_population
        assert not PreconditionerSpec.sample_pseudo_inverse().is_population

    def test_interp_alpha_range(self):
        with pytest.raises(DomainError):
            PreconditionerSpec("power", alpha=1.5)
        with pytest.raises(DomainError):
            PreconditionerSpec("additive_interp", alpha=-0.1)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            PreconditionerSpec("newton")

    def test_eig_maps(self):
        x = np.array([0.5, 2.0, 8.0])
        assert PreconditionerSpec.identity().eig_map(x) == pytest.approx(
            np.ones(3))
        assert PreconditionerSpec.inverse_pop_fisher().eig_map(
            x) == pytest.approx(1.0 / x)
        assert PreconditionerSpec.power(0.5).eig_map(x) == pytest.approx(
            x ** -0.5)
        assert PreconditionerSpec.additive_interp(0.25).eig_map(
            x) == pytest.approx(0.25 / x + 0.75)
        assert PreconditionerSpec.damped_inverse(0.25).eig_map(
            x) == pytest.approx(1.0 / (0.25 * x + 0.75))

    def test_xp_map_inverse_fisher_is_exactly_one(self):
        x = np.array([1e-8, 1.0, 1e8])
        out = PreconditionerSpec.inverse_pop_fisher().xp_map(x)
        assert np.all(out == 1.0)

    def test_xp_map_matches_product(self):
        x = np.array([0.3, 1.7, 9.0])
        for spec in (PreconditionerSpec.power(0.3),
                     PreconditionerSpec.additive_interp(0.6),
                     PreconditionerSpec.damped_inverse(0.4)):
            assert spec.xp_map(x) == pytest.approx(x * spec.eig_map(x),
                                                   rel=1e-14)

    def test_prior_match_uses_prior(self):
        spec = PreconditionerSpec.prior_match()
        x = np.array([0.5, 2.0])
        assert spec.eig_map(x, prior_map=inv_prior) == pytest.approx(1.0 / x)
        with pytest.raises(DomainError):
            spec.eig_map(x)  # no prior available

    def test_sample_kinds_have_no_eig_map(self):
        with pytest.raises(DomainError):
            PreconditionerSpec.sample_pseudo_inverse().eig_map(
                np.array([1.0]))


class TestPreconditionedSpectra:
    def test_inverse_fisher_collapses_to_point_mass(self, two_atom20):
        out = precondition_spectrum(
            two_atom20, PreconditionerSpec.inverse_pop_fisher())
        assert out.is_point_mass
        assert out.values == pytest.approx([1.0])

    def test_identity_is_noop(self, two_atom20):
        out = precondition_spectrum(two_atom20,
                                    PreconditionerSpec.identity())
        assert out.values == pytest.approx(two_atom20.values)
        assert out.weights == pytest.approx(two_atom20.weights)

    def test_joint_alignment(self, two_atom20):
        joint = make_joint(two_atom20, inv_prior,
                           PreconditionerSpec.power(0.5))
        assert joint.ux == pytest.approx(two_atom20.values)
        assert joint.utheta == pytest.approx(1.0 / two_atom20.values)
        assert joint.uxp == pytest.approx(two_atom20.values ** 0.5)
        assert joint.xp_measure().values == pytest.approx(
            np.sort(two_atom20.values ** 0.5))
        assert joint.x_measure().values == pytest.approx(two_atom20.values)

    def test_prior_match_joint_equalizes(self, two_atom20):
        joint = make_joint(two_atom20, iso_prior,
                           PreconditionerSpec.prior_match())
        # P = Sigma_theta = I here, so the preconditioned spectrum is F_X
        assert joint.uxp == pytest.approx(two_atom20.values)
