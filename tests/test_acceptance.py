"""Acceptance gate: one numbered check per shipped guarantee.

Each test prints a single ``[criterion NN] PASS/FAIL`` line with the
measured quantity, then asserts.  The numbered list is documented in
the README; tolerances are pinned here and are not adjusted to make
runs pass.  Criteria 2 and 10 are the slow ones (tens of seconds).
"""

import math

import numpy as np
import pytest

from precondrisk import (PreconditionerSpec, SpectralMeasure,
                         LabelModel, build_model,
                         conditional_bias, conditional_variance,
                         finite_diff_check, gram_flow,
                         iterations_to_threshold, make_dataset, make_joint,
                         make_poly_decay, make_two_atom, make_uniform,
                         m_derivative, min_norm_check, misspecified_bias,
                         risk_report, run_gd, run_preconditioned,
                         sample_design, simulate_risk, solve_m,
                         stationary_solution, sweep_alpha,
                         theoretical_bias, theoretical_variance,
                         rate_optimal_damping, trajectory, yky_diagnostic,
                         MisspecSpec)
from precondrisk.spectra import precondition_spectrum
from conftest import inv_prior, iso_prior

GD = PreconditionerSpec.identity()
NGD = PreconditionerSpec.inverse_pop_fisher()
POW = PreconditionerSpec.power(0.5)

# reference values re-derived from the package's own transform solver
# and cross-checked against finite differences before being frozen here
V_GD_REF = 2.3478713763747807
V_NGD_REF = 1.0
B_GD_ISO_REF = 0.15791661046371638
B_NGD_ISO_REF = 0.37076788956188556
B_NGD_MIS_REF = 0.5
B_GD_MIS_REF = 1.1739356881873895


def report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def designs_g2():
    fx = make_two_atom(20.0)
    return [sample_design(300, 600, fx, "gaussian", s) for s in range(20)]


def test_criterion_01_ngd_variance_optimality(capsys):
    spectra = [make_two_atom(20.0), make_two_atom(5.0),
               make_uniform(20.0, 200), make_poly_decay(1.0, 500.0, 300)]
    others = [GD, POW, PreconditionerSpec.additive_interp(0.5),
              PreconditionerSpec.damped_inverse(0.5)]
    max_dev = 0.0
    min_gap = math.inf
    for fx in spectra:
        for gamma in (1.2, 2.0, 5.0, 16.0 / 15.0):
            bound = 1.0 / (gamma - 1.0)
            v_ngd = theoretical_variance(
                precondition_spectrum(fx, NGD), gamma, 1.0)
            max_dev = max(max_dev, abs(v_ngd - bound))
            for p in others:
                v = theoretical_variance(
                    precondition_spectrum(fx, p), gamma, 1.0)
                min_gap = min(min_gap, v - v_ngd)
    ok = max_dev <= 1e-9 and min_gap > 0
    report(capsys, 1, ok,
           f"inverse-Fisher variance matches sigma^2/(gamma-1) "
           f"(max dev {max_dev:.2e}); every other P larger by "
           f">= {min_gap:.2e}")


def test_criterion_02_stationary_risk_reproduction(capsys, designs_g2):
    fx = make_two_atom(20.0)
    n = 300
    worst = 0.0
    # pinned spot values at gamma=2, sigma2=1, read off the same flows
    refs = {"V_gd": V_GD_REF, "V_ngd": V_NGD_REF,
            "B_gd_iso": B_GD_ISO_REF, "B_ngd_iso": B_NGD_ISO_REF,
            "B_gd_mis": B_GD_MIS_REF, "B_ngd_mis": B_NGD_MIS_REF}
    spot = {}
    for gamma in (1.25, 1.5, 2.0, 3.0, 5.0):
        if gamma == 2.0:
            designs = designs_g2
        else:
            d = int(round(gamma * n))
            designs = [sample_design(n, d, fx, "gaussian", s)
                       for s in range(20)]
        for p, name in ((GD, "gd"), (NGD, "ngd"), (POW, "pow")):
            rep = risk_report(fx, iso_prior, p, gamma, 1.0)
            vs, bs, bs_mis = [], [], []
            for de in designs:
                flow = gram_flow(de, p)
                vs.append(conditional_variance(de, flow, 1.0))
                bs.append(conditional_bias(de, flow, iso_prior))
                if gamma == 2.0 and p is not POW:
                    bs_mis.append(conditional_bias(de, flow, inv_prior))
            mv = float(np.mean(vs))
            mb = float(np.mean(bs))
            worst = max(worst, abs(mv - rep.variance) / rep.variance,
                        abs(mb - rep.bias) / rep.bias)
            if gamma == 2.0:
                spot.update({f"V_{name}": mv, f"B_{name}_iso": mb})
                if bs_mis:
                    spot[f"B_{name}_mis"] = float(np.mean(bs_mis))
    for key, ref in refs.items():
        worst = max(worst, abs(spot[key] - ref) / ref)
    # the frozen constants must also agree with the live solver exactly
    assert theoretical_variance(precondition_spectrum(fx, GD), 2.0, 1.0) \
        == pytest.approx(V_GD_REF, rel=1e-12)
    assert theoretical_bias(make_joint(fx, inv_prior, GD), 2.0) \
        == pytest.approx(B_GD_MIS_REF, rel=1e-12)
    ok = worst <= 0.05
    report(capsys, 2, ok,
           f"20-seed n=300 conditional risk within 5% of limits over the "
           f"gamma grid and pinned spot values (worst rel err "
           f"{worst:.4f})")


def test_criterion_03_sample_population_separation(capsys):
    fx = make_two_atom(20.0)
    worst_match = 0.0
    min_sep = math.inf
    for seed in range(5):
        design = sample_design(40, 80, fx, "gaussian", seed)
        rng = np.random.default_rng(1000 + seed)
        y = design.X @ (rng.standard_normal(80) / math.sqrt(80))
        gd = stationary_solution(design, GD, y)
        scale = float(np.linalg.norm(gd))
        for kind in (PreconditionerSpec.sample_pseudo_inverse(),
                     PreconditionerSpec("sample_damped", lam=0.5)):
            theta = stationary_solution(design, kind, y)
            worst_match = max(worst_match,
                              float(np.linalg.norm(theta - gd)) / scale)
        ngd = stationary_solution(design, NGD, y)
        min_sep = min(min_sep, float(np.linalg.norm(ngd - gd)) / scale)
    ok = worst_match <= 1e-8 and min_sep > 1e-6
    report(capsys, 3, ok,
           f"sample pseudo-inverse/damped solutions equal GD (worst rel "
           f"norm {worst_match:.2e}); population inverse Fisher separates "
           f"by {min_sep:.2e}")


def test_criterion_04_unobserved_feature_bias(capsys):
    fx = make_uniform(20.0, 200)
    designs = [sample_design(300, 600, fx, "gaussian", s)
               for s in range(20)]
    worst = 0.0
    for p in (GD, NGD):
        joint = make_joint(fx, iso_prior, p)
        for tau in (0.1, 0.3, 1.0):
            theory = misspecified_bias(joint, 2.0, MisspecSpec(tau))
            model = LabelModel(kind="unobserved", sigma=1.0,
                               prior_map=iso_prior, trace_term=tau)
            sim = simulate_risk(designs, p, model)
            worst = max(worst, abs(sim.mean_bias - theory) / theory)
    ok = worst <= 0.05
    report(capsys, 4, ok,
           f"unobserved-block bias matches B + tau*(1+V0) for three trace "
           f"terms, GD and inverse Fisher (worst rel err {worst:.4f})")


def test_criterion_05_interpolation_monotonicity(capsys):
    grid = [i / 20 for i in range(21)]
    worst = -math.inf  # most positive violation; negative means clean
    for kappa in (5.0, 20.0, 25.0):
        fx = make_two_atom(kappa)
        for family in ("additive_interp", "power", "damped_inverse"):
            reports = [r for _, r in sweep_alpha(fx, iso_prior, 2.0, 1.0,
                                                 family, grid)]
            dv = np.diff([r.variance for r in reports])
            worst = max(worst, float(dv.max()))  # want nonincreasing
            if family == "additive_interp":
                lo = 0.0
            elif family == "power":
                lo = (math.log(kappa) - 1.0) / math.log(kappa)
            else:
                lo = (kappa - 2.0) / (kappa - 1.0)
            sub = list(np.linspace(lo, 1.0, 21))
            reports = [r for _, r in sweep_alpha(fx, iso_prior, 2.0, 1.0,
                                                 family, sub)]
            db = np.diff([r.bias for r in reports])
            worst = max(worst, float(-db.min()))  # want nondecreasing
    ok = worst <= 1e-9
    report(capsys, 5, ok,
           f"variance nonincreasing on [0,1] and bias nondecreasing on "
           f"each family's guaranteed range, kappa in {{5,20,25}} "
           f"(worst violation {worst:.2e})")


def test_criterion_06_trajectory_variance_and_bias_order(capsys,
                                                         designs_g2):
    designs = designs_g2[:10]
    specs = (GD, NGD, POW)
    var_violation = 0.0
    iso_ok = mis_ok = 0
    for design in designs:
        opt_iso = {}
        opt_mis = {}
        for p in specs:
            for prior, store in ((iso_prior, opt_iso), (inv_prior,
                                                        opt_mis)):
                pts = trajectory(design, p, prior, 1.0, None)
                variances = np.array([q.variance for q in pts])
                var_violation = max(var_violation,
                                    float(-np.diff(variances).min()))
                store[p.kind] = min(q.bias for q in pts)
        if opt_iso["identity"] <= opt_iso["inverse_pop_fisher"]:
            iso_ok += 1
        if (opt_mis["identity"] >= opt_mis["inverse_pop_fisher"]
                and opt_mis["power"] >= opt_mis["inverse_pop_fisher"]):
            mis_ok += 1
    ok = var_violation <= 1e-10 and iso_ok >= 9 and mis_ok >= 9
    report(capsys, 6, ok,
           f"flow variance nondecreasing (worst dip {var_violation:.2e}); "
           f"optimal-bias ordering holds in {iso_ok}/10 aligned and "
           f"{mis_ok}/10 misaligned seeds")


def test_criterion_07_epochwise_double_descent(capsys):
    fx = make_two_atom(32.0)
    n = 300
    d = int(round(16.0 / 15.0 * n))
    grid = np.geomspace(1e-2, 1e6, 25)
    bump_seeds = 0
    ngd_monotone = 0
    worst_margin = math.inf
    for seed in range(10):
        design = sample_design(n, d, fx, "gaussian", seed)
        gd_bias = np.array([p.bias for p in
                            trajectory(design, GD, inv_prior, 1.0, grid)])
        interior = gd_bias[1:-1]
        margin = np.minimum(interior - gd_bias[:-2],
                            interior - gd_bias[2:]) / interior
        best = float(margin.max())
        worst_margin = min(worst_margin, best)
        if best >= 0.01:
            bump_seeds += 1
        ngd_bias = np.array([p.bias for p in
                             trajectory(design, NGD, inv_prior, 1.0,
                                        grid)])
        if np.all(np.diff(ngd_bias) <= 1e-12 * ngd_bias[0]):
            ngd_monotone += 1
    ok = bump_seeds >= 8 and ngd_monotone == 10
    report(capsys, 7, ok,
           f"GD bias shows an interior bump >= 1% in {bump_seeds}/10 "
           f"seeds (smallest best-margin {worst_margin:.3f}); inverse "
           f"Fisher bias nonincreasing in {ngd_monotone}/10")


def test_criterion_08_min_norm_property(capsys):
    rng = np.random.default_rng(42)
    fx = make_two_atom(4.0, frobenius_normalize=False)
    worst_defect = 0.0
    comparisons_ok = True
    for i in range(100):
        design = sample_design(5, 10, fx, "gaussian", seed=2000 + i)
        p_diag = rng.uniform(0.2, 5.0, 10)
        y = rng.standard_normal(5)
        theta = stationary_solution(design, p_diag, y)
        worst_defect = max(worst_defect,
                           min_norm_check(design, p_diag, y, theta))
        base_norm = float(theta @ (theta / p_diag))
        _, _, vt = np.linalg.svd(design.X)
        kernel = vt[5:]  # rows spanning the nullspace
        for _ in range(5):
            delta = kernel.T @ rng.standard_normal(5)
            cand = theta + delta
            cand_norm = float(cand @ (cand / p_diag))
            if cand_norm < base_norm - 1e-10:
                comparisons_ok = False
    ok = worst_defect <= 1e-8 and comparisons_ok
    report(capsys, 8, ok,
           f"on 100 random (n=5,d=10) instances the stationary point "
           f"beats every kernel perturbation in the P^-1 norm; max "
           f"first-order defect {worst_defect:.2e}")


def test_criterion_09_label_noise_diagnostic(capsys, designs_g2):
    design = designs_g2[0]
    model = LabelModel(kind="well_specified", sigma=0.0,
                       prior_map=iso_prior)
    levels = (0.0, 0.5, 1.0, 2.0)
    curves = []
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox([1, seed]))
        theta = model.sample_theta_star(design, rng)
        noise = rng.standard_normal(design.n)
        signal = design.X @ theta
        curves.append([yky_diagnostic(design, signal + s * noise)
                       for s in levels])
    means = np.mean(curves, axis=0)
    gaps = np.diff(means)
    ok = bool(np.all(gaps > 0))
    report(capsys, 9, ok,
           f"mean interpolation-hardness diagnostic strictly increases "
           f"with label noise: {np.array2string(means, precision=4)}")


def test_criterion_10_rkhs_damping_speedup(capsys):
    N, s, r, sigma, eta = 500, 2.0, 0.75, 0.022360679774997897, 0.5
    model = build_model(N, s, r, seed=7)
    ratios = []
    for n in (200, 400, 800):
        dataset = make_dataset(model, n, sigma, seed=11 + n)
        pre = run_preconditioned(model, dataset, eta,
                                 rate_optimal_damping(n, s, r), 400)
        threshold = 2.0 * float(pre.min())
        it_pre = iterations_to_threshold(pre, threshold)
        it_gd = iterations_to_threshold(
            run_gd(model, dataset, eta, 60_000), threshold)
        ratios.append(it_gd / it_pre)
    increasing = ratios[0] < ratios[1] < ratios[2]

    grid = np.geomspace(1e-5, 1.0, 10)
    best_idx = {}
    for r_val in (0.75, 0.26):
        m2 = build_model(N, s, r_val, seed=7)
        d2 = make_dataset(m2, 400, sigma, seed=11 + 400)
        best = [float(run_preconditioned(m2, d2, eta, a, 300).min())
                for a in grid]
        best_idx[r_val] = int(np.argmin(best))
    interaction = best_idx[0.75] >= 5 and best_idx[0.26] <= 4
    ok = increasing and interaction
    report(capsys, 10, ok,
           f"GD/damped iteration ratio grows with n "
           f"({', '.join(f'{x:.1f}' for x in ratios)}); best damping "
           f"index {best_idx[0.75]}/10 for r=0.75 vs {best_idx[0.26]}/10 "
           f"for r=0.26")


def test_criterion_11_transform_solver_correctness(capsys):
    worst_closed = 0.0
    for c in (0.5, 1.0, 2.0):
        for gamma in (1.5, 2.0, 5.0):
            spec = SpectralMeasure(np.array([c]), np.array([1.0]))
            sol = solve_m(spec, gamma)
            ref = 1.0 / (c * (gamma - 1.0))
            worst_closed = max(worst_closed, abs(sol.m0 - ref) / ref)
    for a, b in ((1.0, 4.0), (0.25, 9.0), tuple(make_two_atom(20.0).values)):
        spec = SpectralMeasure(np.array([a, b]), np.array([0.5, 0.5]))
        sol = solve_m(spec, 2.0)
        ref = 1.0 / math.sqrt(a * b)
        worst_closed = max(worst_closed, abs(sol.m0 - ref) / ref)

    rng = np.random.default_rng(123)
    worst_fd = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 8))
        values = np.sort(rng.uniform(0.2, 5.0, k))
        weights = rng.dirichlet(np.ones(k))
        spec = SpectralMeasure(values, weights)
        gamma = float(rng.uniform(1.15, 8.0))
        lam = float(rng.uniform(2e-3, 0.5))
        sol = solve_m(spec, gamma, lam)
        mp = m_derivative(spec, gamma, sol)
        fd = finite_diff_check(spec, gamma, lam, h=1e-6 * max(1.0, lam))
        worst_fd = max(worst_fd, abs(mp - fd) / abs(fd))
    ok = worst_closed <= 1e-10 and worst_fd <= 1e-4
    report(capsys, 11, ok,
           f"closed-form roots match to {worst_closed:.2e}; derivative "
           f"matches finite differences to {worst_fd:.2e} over 50 random "
           f"spectra")
