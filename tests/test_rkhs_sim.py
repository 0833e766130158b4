import numpy as np
import pytest

from precondrisk import (DomainError, brute_force_steps, build_model,
                         iterations_to_threshold, make_dataset, run_gd,
                         run_preconditioned, rate_optimal_damping)


@pytest.fixture(scope="module")
def model():
    return build_model(40, 2.0, 0.75, seed=1)


@pytest.fixture(scope="module")
def dataset(model):
    return make_dataset(model, 30, 0.05, seed=2)


class TestModel:
    def test_spectrum_and_teacher(self, model):
        i = np.arange(1, 41, dtype=float)
        assert model.mu == pytest.approx(i ** -2.0)
        assert model.fstar == pytest.approx(model.h * model.mu ** 0.75)
        assert model.initial_risk == pytest.approx(
            float(np.sum(model.fstar ** 2)))

    def test_reproducible(self):
        a = build_model(40, 2.0, 0.75, seed=1)
        b = build_model(40, 2.0, 0.75, seed=1)
        assert np.array_equal(a.h, b.h)

    def test_admissibility_boundary(self):
        # 2r + 1/s must exceed 1 strictly: r=1/4, s=2 sits on the boundary
        with pytest.raises(DomainError):
            build_model(40, 2.0, 0.25)
        build_model(40, 2.0, 0.26)  # nearest admissible value works

    def test_capacity_exponent_range(self):
        with pytest.raises(DomainError):
            build_model(40, 1.0, 0.75)
        with pytest.raises(DomainError):
            build_model(40, 2.0, -0.5)


class TestDataset:
    def test_shapes_and_determinism(self, model):
        a = make_dataset(model, 30, 0.05, seed=2)
        b = make_dataset(model, 30, 0.05, seed=2)
        assert a.feature_rows.shape == (30, 40)
        assert a.y.shape == (30,)
        assert np.array_equal(a.y, b.y)

    def test_noise_kinds(self, model):
        uni = make_dataset(model, 30, 0.05, noise="uniform", seed=3)
        tg = make_dataset(model, 30, 0.05, noise="truncated_gaussian",
                          seed=3)
        assert not np.array_equal(uni.y, tg.y)
        with pytest.raises(DomainError):
            make_dataset(model, 30, 0.05, noise="cauchy", seed=3)

    def test_noise_is_bounded(self, model):
        # sigma is the almost-sure bound on |eps|, not its std
        clean = make_dataset(model, 200, 0.0, seed=4)
        noisy = make_dataset(model, 200, 0.1, seed=4)
        residual = noisy.y - clean.y
        assert np.max(np.abs(residual)) <= 0.1 + 1e-12
        assert np.std(residual) == pytest.approx(0.1 / np.sqrt(3.0),
                                                 rel=0.25)


class TestDamping:
    def test_recipe_values(self):
        assert rate_optimal_damping(400, 2.0, 0.75) == pytest.approx(
            400.0 ** (-4.0 / 4.0))
        assert rate_optimal_damping(200, 2.0, 0.5) == pytest.approx(
            200.0 ** (-4.0 / 3.0))

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            rate_optimal_damping(0, 2.0, 0.75)


class TestRuns:
    def test_trajectory_starts_at_initial_risk(self, model, dataset):
        risks = run_preconditioned(model, dataset, 0.5, 0.01, 25)
        assert len(risks) == 26
        assert risks[0] == pytest.approx(model.initial_risk)

    def test_learning_reduces_risk(self, model, dataset):
        pre = run_preconditioned(model, dataset, 0.5, 0.01, 200)
        gd = run_gd(model, dataset, 0.5, 200)
        assert pre.min() < 0.2 * model.initial_risk
        assert gd.min() < model.initial_risk
        # the damped inverse reaches a given risk level in fewer steps
        level = 0.1 * model.initial_risk
        assert iterations_to_threshold(pre, level) \
            <= iterations_to_threshold(gd, level)

    def test_matches_brute_force_oracle(self, model, dataset):
        for alpha in (0.05, None):  # None is plain GD in the oracle
            if alpha is None:
                fast = run_gd(model, dataset, 0.5, 12)
            else:
                fast = run_preconditioned(model, dataset, 0.5, alpha, 12)
            slow = brute_force_steps(model, dataset, 0.5, alpha, 12)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)

    def test_step_size_validation(self, model, dataset):
        with pytest.raises(DomainError):
            run_preconditioned(model, dataset, 1.5, 0.01, 10)
        with pytest.raises(DomainError):
            run_preconditioned(model, dataset, 0.5, 0.0, 10)
        with pytest.raises(DomainError):
            run_gd(model, dataset, 0.0, 10)


class TestThresholdsAndSweeps:
    def test_iterations_to_threshold(self):
        traj = [5.0, 3.0, 1.0, 2.0]
        assert iterations_to_threshold(traj, 3.0) == 1
        assert iterations_to_threshold(traj, 0.5) is None
        assert iterations_to_threshold(traj, np.inf) == 0
        with pytest.raises(DomainError):
            iterations_to_threshold(traj, 0.0)
