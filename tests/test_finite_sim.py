import numpy as np
import pytest

from precondrisk import (Design, DomainError, LabelModel, NumericalError,
                         OutOfRegimeError, PreconditionerSpec,
                         build_preconditioner, conditional_bias,
                         conditional_variance, default_time_grid,
                         gram_flow, make_two_atom, min_norm_check,
                         optimal_early_stopping, sample_design,
                         simulate_risk, stationary_solution, trajectory,
                         yky_diagnostic)
from precondrisk.finite_sim import apportion_counts
from conftest import inv_prior, iso_prior


def small_design(seed=0, n=20, d=40, kappa=5.0):
    return sample_design(n, d, make_two_atom(kappa), "gaussian", seed)


class TestApportionment:
    def test_exact_split(self):
        assert apportion_counts(np.array([0.5, 0.5]), 10).tolist() == [5, 5]

    def test_largest_remainder(self):
        assert apportion_counts(np.array([0.2, 0.8]), 10).tolist() == [2, 8]
        # remainders tie at 1/3 each; earlier atoms win the spare slot
        assert apportion_counts(
            np.array([1 / 3, 1 / 3, 1 / 3]), 4).tolist() == [2, 1, 1]

    def test_total_is_d(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(5))
            assert apportion_counts(w, 37).sum() == 37


class TestSampleDesign:
    def test_shapes_and_reproducibility(self):
        a = sample_design(20, 40, make_two_atom(5.0), "gaussian", 3)
        b = sample_design(20, 40, make_two_atom(5.0), "gaussian", 3)
        c = sample_design(20, 40, make_two_atom(5.0), "gaussian", 4)
        assert a.X.shape == (20, 40)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)
        assert a.gamma == pytest.approx(2.0)

    def test_realized_eigenvalues(self, two_atom20):
        design = sample_design(10, 30, two_atom20, "gaussian", 0)
        values, counts = np.unique(design.sigma_x_eigs, return_counts=True)
        assert values == pytest.approx(two_atom20.values)
        assert counts.tolist() == [15, 15]

    def test_rademacher_entries(self):
        spec = make_two_atom(4.0, frobenius_normalize=False)
        design = sample_design(10, 24, spec, "rademacher", 1)
        scaled = np.abs(design.X) / np.sqrt(design.sigma_x_eigs)
        assert np.allclose(scaled, 1.0)

    def test_requires_overparameterization(self, two_atom20):
        with pytest.raises(OutOfRegimeError):
            sample_design(30, 30, two_atom20, "gaussian", 0)

    def test_unknown_entry_dist(self, two_atom20):
        with pytest.raises(DomainError):
            sample_design(10, 20, two_atom20, "banana", 0)

    def test_design_is_frozen(self):
        design = small_design()
        with pytest.raises(ValueError):
            design.X[0, 0] = 7.0


class TestPreconditionerMatrices:
    def test_identity(self):
        design = small_design()
        P = build_preconditioner(PreconditionerSpec.identity(), design)
        assert np.array_equal(P, np.eye(design.d))

    def test_inverse_pop_fisher(self):
        design = small_design()
        P = build_preconditioner(PreconditionerSpec.inverse_pop_fisher(),
                                 design)
        assert np.allclose(P, np.diag(1.0 / design.sigma_x_eigs))

    def test_sample_pseudo_inverse(self):
        design = small_design()
        P = build_preconditioner(PreconditionerSpec.sample_pseudo_inverse(),
                                 design)
        assert np.allclose(P, np.linalg.pinv(design.X.T @ design.X),
                           atol=1e-10)
        assert np.allclose(P, P.T)


class TestStationarySolution:
    def test_interpolates(self):
        design = small_design()
        y = np.sin(np.arange(design.n, dtype=float))
        for spec in (PreconditionerSpec.identity(),
                     PreconditionerSpec.inverse_pop_fisher(),
                     PreconditionerSpec.power(0.5)):
            theta = stationary_solution(design, spec, y)
            assert np.linalg.norm(design.X @ theta - y) \
                <= 1e-8 * np.linalg.norm(y)

    def test_sample_kinds_reduce_to_gd(self):
        design = small_design(seed=5)
        y = np.cos(np.arange(design.n, dtype=float))
        gd = stationary_solution(design, PreconditionerSpec.identity(), y)
        pseudo = stationary_solution(
            design, PreconditionerSpec.sample_pseudo_inverse(), y)
        damped = stationary_solution(
            design, PreconditionerSpec("sample_damped", lam=0.3), y)
        scale = np.linalg.norm(gd)
        assert np.linalg.norm(pseudo - gd) <= 1e-8 * scale
        assert np.linalg.norm(damped - gd) <= 1e-8 * scale

    def test_ngd_differs_on_anisotropic_design(self):
        design = small_design(seed=5)
        y = np.cos(np.arange(design.n, dtype=float))
        gd = stationary_solution(design, PreconditionerSpec.identity(), y)
        ngd = stationary_solution(
            design, PreconditionerSpec.inverse_pop_fisher(), y)
        assert np.linalg.norm(ngd - gd) > 1e-3 * np.linalg.norm(gd)

    def test_gd_matches_pinv_formula(self):
        design = small_design(seed=2)
        y = np.arange(design.n, dtype=float)
        gd = stationary_solution(design, PreconditionerSpec.identity(), y)
        direct = design.X.T @ np.linalg.solve(design.X @ design.X.T, y)
        assert np.allclose(gd, direct, atol=1e-10)


def naive_bias(design, P_matrix, prior):
    X = design.X
    sigma = np.diag(design.sigma_x_eigs)
    sigma_theta = np.diag(prior(design.sigma_x_eigs))
    S = X @ P_matrix @ X.T
    M = P_matrix @ X.T @ np.linalg.solve(S, X)
    R = np.eye(design.d) - M
    return float(np.trace(R.T @ sigma @ R @ sigma_theta)) / design.d


def naive_variance(design, P_matrix, sigma2):
    X = design.X
    sigma = np.diag(design.sigma_x_eigs)
    S = X @ P_matrix @ X.T
    J = P_matrix @ X.T @ np.linalg.inv(S)
    return sigma2 * float(np.trace(J.T @ sigma @ J))


def naive_quadratic(design, P_matrix, prior, sigma2, alpha_q):
    """(bias, variance) of the quadratic teacher from d x d matrices."""
    X, sx = design.X, design.sigma_x_eigs
    M = P_matrix @ X.T @ np.linalg.inv(X @ P_matrix @ X.T)
    fit = M @ (alpha_q * (np.sum(X * X, axis=1) - np.sum(sx)))
    q = 2.0 * alpha_q**2 * float(np.sum(sx * sx))
    v0 = naive_variance(design, P_matrix, 1.0)
    bias = naive_bias(design, P_matrix, prior) + float(fit @ (sx * fit))
    return bias + q * (1.0 + v0), sigma2 * v0


class TestConditionalRisk:
    @pytest.mark.parametrize(
        "spec", [PreconditionerSpec.identity(),
                 PreconditionerSpec.power(0.5),
                 PreconditionerSpec.inverse_pop_fisher(),
                 PreconditionerSpec.sample_pseudo_inverse(),
                 PreconditionerSpec("sample_damped", lam=0.3)],
        ids=["gd", "pow", "ngd", "pseudo", "damped"])
    @pytest.mark.parametrize("prior", [iso_prior, inv_prior],
                             ids=["iso", "inv"])
    def test_against_dense_formulas(self, spec, prior):
        design = small_design(seed=7, n=15, d=30)
        P = build_preconditioner(spec, design)
        assert conditional_bias(design, spec, prior) == pytest.approx(
            naive_bias(design, P, prior), rel=1e-9)
        assert conditional_variance(design, spec, 1.3) == pytest.approx(
            naive_variance(design, P, 1.3), rel=1e-9)

    def test_accepts_vector_and_matrix_preconditioners(self):
        design = small_design(seed=1, n=15, d=30)
        diag = 1.0 / design.sigma_x_eigs
        spec_value = conditional_bias(
            design, PreconditionerSpec.inverse_pop_fisher(), iso_prior)
        assert conditional_bias(design, diag, iso_prior) == pytest.approx(
            spec_value, rel=1e-12)
        assert conditional_bias(design, np.diag(diag),
                                iso_prior) == pytest.approx(spec_value,
                                                            rel=1e-12)

    def test_accepts_scalar_and_vector_priors(self):
        design = small_design(seed=1, n=15, d=30)
        by_callable = conditional_bias(design,
                                       PreconditionerSpec.identity(),
                                       iso_prior)
        by_scalar = conditional_bias(design, PreconditionerSpec.identity(),
                                     1.0)
        by_vector = conditional_bias(design, PreconditionerSpec.identity(),
                                     np.ones(design.d))
        assert by_scalar == pytest.approx(by_callable, rel=1e-12)
        assert by_vector == pytest.approx(by_callable, rel=1e-12)

    def test_variance_rejects_negative_sigma2(self):
        design = small_design()
        with pytest.raises(DomainError):
            conditional_variance(design, PreconditionerSpec.identity(),
                                 -1.0)
        with pytest.raises(DomainError):
            trajectory(design, PreconditionerSpec.identity(), iso_prior,
                       -1.0, [1.0])

    def test_singular_gram_raises_everywhere(self):
        base = small_design(seed=2, n=10, d=20)
        X = base.X.copy()
        X[1] = X[0]  # two identical rows: X P X^T is singular
        design = Design(X=X, n=base.n, d=base.d,
                        sigma_x_eigs=base.sigma_x_eigs, seed=base.seed)
        spec = PreconditionerSpec.identity()
        y = np.ones(design.n)
        calls = [
            lambda: gram_flow(design, spec),
            lambda: conditional_bias(design, spec, iso_prior),
            lambda: conditional_variance(design, spec, 1.0),
            lambda: trajectory(design, spec, iso_prior, 1.0, None),
            lambda: stationary_solution(design, spec, y),
            lambda: default_time_grid(design, spec),
            lambda: yky_diagnostic(design, y),
        ]
        for call in calls:
            with pytest.raises(NumericalError):
                call()


class TestGramFlow:
    """Every consumer of a preconditioner reads a flow of its design."""

    def consumers(self, design, P):
        model = LabelModel(kind="well_specified", sigma=1.0,
                           prior_map=iso_prior)
        y = np.ones(design.n)
        return [
            lambda: conditional_bias(design, P, iso_prior),
            lambda: conditional_variance(design, P, 1.0),
            lambda: trajectory(design, P, iso_prior, 1.0, None),
            lambda: default_time_grid(design, P),
            lambda: stationary_solution(design, P, y),
            lambda: simulate_risk([design], P, model),
        ]

    def test_flow_gives_the_same_bits(self, monkeypatch):
        design = small_design(seed=5, n=15, d=30)
        spec = PreconditionerSpec.power(0.5)
        flow = gram_flow(design, spec)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: calls.append(1) or eigh(*a))
        for from_flow, from_spec in zip(self.consumers(design, flow),
                                        self.consumers(design, spec)):
            before = len(calls)
            got = from_flow()
            assert len(calls) == before  # the flow is not factored again
            expected = from_spec()
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, expected)
            else:
                assert got == expected

    def test_flow_of_another_design_raises(self):
        design = small_design(seed=5, n=15, d=30)
        # the same draw, but another Design object
        twin = small_design(seed=5, n=15, d=30)
        flow = gram_flow(twin, PreconditionerSpec.identity())
        for call in self.consumers(design, flow):
            with pytest.raises(DomainError):
                call()


class TestTrajectory:
    def test_time_zero_limits(self):
        design = small_design(seed=3, n=15, d=30)
        pts = trajectory(design, PreconditionerSpec.identity(), iso_prior,
                         1.0, [0.0, 1.0])
        start_bias = float(np.mean(design.sigma_x_eigs
                                   * iso_prior(design.sigma_x_eigs)))
        assert pts[0].bias == pytest.approx(start_bias, rel=1e-10)
        assert pts[0].variance == pytest.approx(0.0, abs=1e-14)
        assert pts[0].risk == pytest.approx(pts[0].bias)

    def test_variance_monotone_and_risk_sum(self):
        design = small_design(seed=4, n=20, d=40)
        pts = trajectory(design, PreconditionerSpec.power(0.5), iso_prior,
                         0.7, None)
        variances = [p.variance for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(variances[1:],
                                                  variances))
        for p in pts:
            assert p.risk == pytest.approx(p.bias + p.variance, rel=1e-12)

    def test_converges_to_stationary(self):
        design = small_design(seed=6, n=20, d=40)
        spec = PreconditionerSpec.identity()
        gram = design.X @ design.X.T
        lam_min = float(np.linalg.eigvalsh(gram).min())
        t_inf = 20.0 * design.n / lam_min
        pt = trajectory(design, spec, iso_prior, 1.0, [t_inf])[0]
        assert pt.bias == pytest.approx(
            conditional_bias(design, spec, iso_prior), abs=1e-6)
        assert pt.variance == pytest.approx(
            conditional_variance(design, spec, 1.0), abs=1e-6)

    def test_rejects_bad_grid(self):
        design = small_design()
        spec = PreconditionerSpec.identity()
        with pytest.raises(DomainError):
            trajectory(design, spec, iso_prior, 1.0, [2.0, 1.0])
        with pytest.raises(DomainError):
            trajectory(design, spec, iso_prior, 1.0, [-1.0, 1.0])

    def test_default_grid(self):
        design = small_design(seed=2)
        spec = PreconditionerSpec.identity()
        grid = default_time_grid(design, spec, n_points=15)
        assert len(grid) == 15
        lam_max = float(np.linalg.eigvalsh(design.X @ design.X.T).max())
        assert grid[0] == pytest.approx(1e-2 * design.n / lam_max)
        assert grid[-1] == pytest.approx(1e2 * design.n / lam_max)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_early_stopping_is_grid_minimum(self):
        design = small_design(seed=8, n=20, d=40)
        pts = trajectory(design, PreconditionerSpec.identity(), iso_prior,
                         1.0, None)
        stop = optimal_early_stopping(pts)
        assert stop.risk == pytest.approx(min(p.risk for p in pts))
        assert stop.bias_opt == pytest.approx(min(p.bias for p in pts))
        assert stop.risk <= pts[-1].risk + 1e-12


class TestMinNorm:
    def test_stationary_point_has_tiny_defect(self):
        design = small_design(seed=9, n=10, d=20)
        y = np.arange(design.n, dtype=float) / design.n
        for spec in (PreconditionerSpec.identity(),
                     PreconditionerSpec.power(0.5)):
            theta = stationary_solution(design, spec, y)
            assert min_norm_check(design, spec, y, theta) <= 1e-10

    def test_perturbed_interpolant_fails(self):
        design = small_design(seed=9, n=10, d=20)
        y = np.arange(design.n, dtype=float) / design.n
        spec = PreconditionerSpec.identity()
        theta = stationary_solution(design, spec, y)
        # add a kernel direction: still interpolates, no longer min-norm
        _, _, vt = np.linalg.svd(design.X)
        kernel_dir = vt[-1]
        perturbed = theta + 0.5 * kernel_dir
        assert np.linalg.norm(design.X @ perturbed - y) <= 1e-8
        assert min_norm_check(design, spec, y, perturbed) > 1e-3


class TestLabelsAndBlocks:
    def test_theta_star_scaling(self):
        design = sample_design(30, 4000, make_two_atom(5.0), "gaussian", 0)
        model = LabelModel(kind="well_specified", sigma=1.0,
                           prior_map=iso_prior)
        rng = np.random.default_rng(0)
        theta = model.sample_theta_star(design, rng)
        # E||theta*||^2 = mean prior eigenvalue = 1 under the iso prior
        assert float(theta @ theta) == pytest.approx(1.0, rel=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            LabelModel(kind="cubic", sigma=1.0)

    def test_unobserved_block(self):
        model = LabelModel(kind="unobserved", sigma=1.0, trace_term=0.3)
        assert model.label == "unobserved(trace_term=0.3)"
        for tau in (0.0, -0.3):  # the block needs a positive trace term
            with pytest.raises(DomainError):
                LabelModel(kind="unobserved", sigma=1.0, trace_term=tau)

    def test_label_strings(self):
        assert LabelModel(kind="well_specified",
                          sigma=1.0).label == "well_specified"
        quad = LabelModel(kind="quadratic", sigma=1.0, alpha_q=0.02)
        assert "0.02" in quad.label


class TestSimulateRisk:
    def test_well_specified_matches_conditional(self, two_atom20):
        designs = [sample_design(60, 120, two_atom20, "gaussian", s)
                   for s in range(3)]
        spec = PreconditionerSpec.identity()
        model = LabelModel(kind="well_specified", sigma=1.0,
                           prior_map=iso_prior)
        summary = simulate_risk(designs, spec, model)
        expect_bias = np.mean([conditional_bias(d, spec, iso_prior)
                               for d in designs])
        expect_var = np.mean([conditional_variance(d, spec, 1.0)
                              for d in designs])
        assert summary.mean_bias == pytest.approx(expect_bias, rel=1e-10)
        assert summary.mean_variance == pytest.approx(expect_var,
                                                      rel=1e-10)
        assert summary.mean_risk == pytest.approx(expect_bias + expect_var,
                                                  rel=1e-10)
        assert len(summary.per_seed) == 3

    def test_unobserved_adds_trace_uplift(self, two_atom20):
        designs = [sample_design(60, 120, two_atom20, "gaussian", s)
                   for s in range(2)]
        spec = PreconditionerSpec.identity()
        tau = 0.4
        model = LabelModel(kind="unobserved", sigma=1.0,
                           prior_map=iso_prior, trace_term=tau)
        base = LabelModel(kind="well_specified", sigma=1.0,
                          prior_map=iso_prior)
        with_block = simulate_risk(designs, spec, model)
        without = simulate_risk(designs, spec, base)
        uplift = with_block.mean_bias - without.mean_bias
        v0 = without.mean_variance  # sigma2 = 1 here
        assert uplift == pytest.approx(tau * (1.0 + v0), rel=1e-9)

    @pytest.mark.parametrize(
        "spec", [PreconditionerSpec.identity(),
                 PreconditionerSpec.inverse_pop_fisher(),
                 PreconditionerSpec.sample_pseudo_inverse(),
                 PreconditionerSpec("sample_damped", lam=0.3)],
        ids=["gd", "ngd", "pseudo", "damped"])
    def test_quadratic_matches_dense_formulas(self, spec):
        design = small_design(seed=5, n=15, d=30)
        model = LabelModel(kind="quadratic", sigma=0.3, prior_map=inv_prior,
                           alpha_q=0.05)
        summary = simulate_risk([design], spec, model)
        bias, variance = naive_quadratic(design, build_preconditioner(
            spec, design), inv_prior, 0.3**2, 0.05)
        assert summary.mean_bias == pytest.approx(bias, rel=1e-10)
        assert summary.mean_variance == pytest.approx(variance, rel=1e-10)
        assert summary.mean_risk == pytest.approx(bias + variance,
                                                  rel=1e-10)

    def test_quadratic_matches_sampled_teachers(self):
        """The closed form is the average, over theta* and the noise, of
        the exact risk given those draws, delta^T Sigma_X delta + q."""
        design = small_design(seed=3, n=20, d=40)
        sx = design.sigma_x_eigs
        alpha_q, sigma2, draws = 0.05, 0.09, 4000
        model = LabelModel(kind="quadratic", sigma=np.sqrt(sigma2),
                           prior_map=iso_prior, alpha_q=alpha_q)
        spec = PreconditionerSpec.inverse_pop_fisher()
        closed = simulate_risk([design], spec, model).mean_risk

        X, P = design.X, build_preconditioner(spec, design)
        M = P @ X.T @ np.linalg.inv(X @ P @ X.T)
        f_c = alpha_q * (np.sum(X * X, axis=1) - np.sum(sx))
        q = 2.0 * alpha_q**2 * np.sum(sx * sx)
        rng = np.random.default_rng(11)
        theta = rng.standard_normal((design.d, draws)) / np.sqrt(design.d)
        noise = rng.standard_normal((design.n, draws))
        y = X @ theta + f_c[:, None] + np.sqrt(sigma2 + q) * noise
        delta = theta - M @ y
        given = np.sum(sx[:, None] * delta**2, axis=0) + q
        stderr = given.std() / np.sqrt(draws)
        assert abs(given.mean() - closed) <= 4.0 * stderr
        assert stderr <= 0.02 * closed  # the draws resolve the risk

    def test_quadratic_refuses_rademacher_design(self):
        """||x||^2 is constant on a Rademacher design, so the quadratic
        teacher is linear there; the Gaussian q(1 + V0) would be wrong."""
        design = sample_design(20, 40, make_two_atom(5.0), "rademacher", 0)
        model = LabelModel(kind="quadratic", sigma=1.0, prior_map=iso_prior,
                           alpha_q=0.02)
        with pytest.raises(DomainError):
            simulate_risk([design], PreconditionerSpec.identity(), model)

    def test_trajectory_f_c_term(self):
        """f_c adds ||Sigma_X^1/2 P X^T W(t) S^-1 f_c||^2 to the bias at
        every flow time and leaves the variance alone."""
        design = small_design(seed=4, n=15, d=30)
        spec = PreconditionerSpec.power(0.5)
        P = build_preconditioner(spec, design)
        X, sx = design.X, design.sigma_x_eigs
        f_c = np.sin(np.arange(design.n))
        S = X @ P @ X.T
        mu, V = np.linalg.eigh(S)
        times = [0.5 * design.n / mu[-1], 5.0 * design.n / mu[0], np.inf]
        with_f = trajectory(design, spec, iso_prior, 0.4, times, f_c)
        without = trajectory(design, spec, iso_prior, 0.4, times)
        for t, a, b in zip(times, with_f, without):
            W = V @ np.diag(-np.expm1(-t * mu / design.n)) @ V.T
            fit = P @ X.T @ W @ np.linalg.solve(S, f_c)
            assert a.bias - b.bias == pytest.approx(float(fit @ (sx * fit)),
                                                    rel=1e-9)
            assert a.variance == b.variance
        with pytest.raises(DomainError):
            trajectory(design, spec, iso_prior, 0.4, times, f_c[:-1])


class TestDiagnostics:
    def test_yky_grows_with_noise(self, two_atom20):
        design = sample_design(100, 200, two_atom20, "gaussian", 0)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(design.d) / np.sqrt(design.d)
        signal = design.X @ theta
        noise = rng.standard_normal(design.n)
        labels = [signal + s * noise for s in (0.0, 0.5, 1.0, 2.0)]
        values = [yky_diagnostic(design, y) for y in labels]
        assert all(b > a for a, b in zip(values, values[1:]))
        # one (n, k) call gives the k single-vector values
        batch = yky_diagnostic(design, np.column_stack(labels))
        assert batch.shape == (len(labels),)
        assert batch == pytest.approx(values, rel=1e-12)
