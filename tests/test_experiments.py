import csv
import hashlib
import json
import math

import numpy as np
import pytest

from precondrisk import (ConfigError, LabelModel, MisspecSpec,
                         PreconditionerSpec, UnknownExperimentError,
                         UnobservedBlock, build_model, conditional_bias,
                         default_time_grid, iterations_to_threshold,
                         make_dataset, make_joint, make_two_atom,
                         misspecified_bias, optimal_early_stopping,
                         risk_report, run_preconditioned, sample_design,
                         simulate_risk, sweep_alpha, trajectory,
                         yky_diagnostic)
from precondrisk.experiments import (PRESETS, ExperimentConfig, _format_cell,
                                     emit_plot_script, get_preset,
                                     list_experiments, run, write_csv)
from precondrisk.finite_sim import GENERATOR_NAME, _rng
from precondrisk.risk_theory import RISK_CSV_COLUMNS


def tiny_stationary(seeds=(0, 1)):
    return {
        "schema_version": 1,
        "experiment": "tiny",
        "kind": "stationary",
        "spectrum": {"kind": "two_atom", "kappa": 5.0},
        "prior": {"kind": "constant", "value": 1.0},
        "gammas": [2.0],
        "n": 40,
        "sigma2": 1.0,
        "preconditioners": [{"kind": "identity"},
                            {"kind": "inverse_pop_fisher"}],
        "seeds": list(seeds),
    }


# a small RKHS damping sweep that converges in every cell
TINY_RKHS = {"N": 50, "s": 2.0, "r_values": [0.75], "ns": [20],
             "alphas": [0.1, 1.0], "eta": 0.5, "T": 20, "sigma": 0.01,
             "model_seed": 1, "data_seed": 2, "threshold_factor": 3.0}


def as_rkhs(**changes):
    """A mutation turning a config into the tiny RKHS sweep plus changes."""
    return lambda c: c.update(kind="rkhs", rkhs=dict(TINY_RKHS, **changes))


class TestPresets:
    def test_all_presets_validate(self):
        for name in PRESETS:
            cfg = get_preset(name)
            assert cfg.experiment == name

    def test_listing_covers_figures(self):
        listing = list_experiments()
        assert len(listing) >= 11
        for name in ("fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig5",
                     "fig6", "fig7", "fig9", "fig10", "fig11", "fig13"):
            assert name in listing
            assert listing[name]  # has a description

    def test_aliases(self):
        assert get_preset("fig3-variance").experiment == "fig3a"
        assert get_preset("fig9-epochwise").experiment == "fig9"

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownExperimentError) as exc:
            get_preset("fig12")
        assert exc.value.suggestion is not None
        assert "fig" in exc.value.suggestion


class TestConfigValidation:
    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict(tiny_stationary())
        assert cfg.to_dict() == tiny_stationary()
        # canonical hash is stable under key reordering
        shuffled = dict(reversed(list(tiny_stationary().items())))
        assert ExperimentConfig.from_dict(shuffled).config_hash() \
            == cfg.config_hash()

    def test_hash_is_sha256_of_canonical_json(self):
        cfg = ExperimentConfig.from_dict(tiny_stationary())
        expected = hashlib.sha256(
            json.dumps(tiny_stationary(), sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()
        assert cfg.config_hash() == expected

    @pytest.mark.parametrize("mutate,path", [
        (lambda c: c.pop("seeds"), "seeds"),
        (lambda c: c.update(seeds=[]), "seeds"),
        (lambda c: c.update(seeds=[0, "x"]), "seeds[1]"),
        (lambda c: c.update(gammas=[0.8]), "gammas[0]"),
        (lambda c: c.update(gammas=[1.001]), "gammas[0]"),  # gamma*n <= n
        (lambda c: c.update(kind="nope"), "kind"),
        (lambda c: c.update(schema_version=2), "schema_version"),
        (lambda c: c.update(sigma2=-1.0), "sigma2"),
        (lambda c: c.update(n="40"), "n"),
        (lambda c: c.update(preconditioners=[]), "preconditioners"),
        (lambda c: c.update(preconditioners=[{"kind": "newton"}]),
         "preconditioners[0]"),
        (lambda c: c.update(spectrum={"kind": "two_atom", "kappa": 0.5}),
         "spectrum.kappa"),
        (lambda c: c.update(prior={"kind": "spike"}), "prior.kind"),
        (lambda c: c.update(seeds=[-1]), "seeds[0]"),
        # non-finite numbers
        (lambda c: c.update(gammas=[math.nan]), "gammas[0]"),
        (lambda c: c.update(gammas=[2.0, math.inf]), "gammas[1]"),
        pytest.param(lambda c: c.update(sigma2=math.nan), "sigma2",
                     id="<lambda>-sigma2-nan"),
        # names that are not bare file names
        (lambda c: c.update(experiment="../escaped"), "experiment"),
        (lambda c: c.update(experiment="sub/dir/x"), "experiment"),
        (lambda c: c.update(output_prefix=5), "output_prefix"),
        (lambda c: c.update(output_prefix=".."), "output_prefix"),
        # test_points must be an int >= 1
        (lambda c: c.update(kind="misspec_quadratic", alpha_q_values=[0.0],
                            test_points="abc"), "test_points"),
        (lambda c: c.update(kind="misspec_quadratic", alpha_q_values=[0.0],
                            test_points=0), "test_points"),
        (lambda c: c.update(kind="misspec_quadratic", alpha_q_values=[0.0],
                            test_points=-5), "test_points"),
        # rkhs seeds must be ints >= 0, the threshold factor a number > 0
        (as_rkhs(model_seed=-1), "rkhs.model_seed"),
        (as_rkhs(model_seed=1.5), "rkhs.model_seed"),
        (as_rkhs(data_seed=-3), "rkhs.data_seed"),
        (as_rkhs(threshold_factor=0), "rkhs.threshold_factor"),
        (as_rkhs(threshold_factor="x"), "rkhs.threshold_factor"),
        # bools are not ints
        (as_rkhs(T=True), "rkhs.T"),
        (lambda c: c.update(kind="misspec_unobserved", trace_terms=[0.5],
                            d_c=True), "d_c"),
        # yky needs an int n
        pytest.param(lambda c: (c.update(kind="yky", noise_levels=[0.0, 1.0]),
                                c.pop("n")), "n", id="<lambda>-n-yky-missing"),
        pytest.param(lambda c: c.update(kind="yky", noise_levels=[0.0, 1.0],
                                        n="20"), "n", id="<lambda>-n-yky-str"),
        # the single-gamma kinds take exactly one gamma
        (lambda c: c.update(kind="trajectory", gammas=[2.0, 3.0]), "gammas"),
        (lambda c: c.update(kind="misspec_quadratic", gammas=[2.0, 3.0],
                            alpha_q_values=[0.0]), "gammas"),
        (lambda c: c.update(kind="misspec_unobserved", gammas=[2.0, 3.0],
                            trace_terms=[0.5], d_c=10), "gammas"),
        (lambda c: c.update(kind="yky", gammas=[2.0, 3.0],
                            noise_levels=[0.0, 1.0]), "gammas"),
        (lambda c: c.update(kind="alignment", gammas=[2.0, 3.0],
                            prior_exponents=[0.0]), "gammas"),
    ])
    def test_errors_name_the_field(self, mutate, path):
        raw = tiny_stationary()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert path in str(exc.value)

    def test_sample_preconditioner_rejected_for_theory_kinds(self):
        raw = tiny_stationary()
        raw["preconditioners"] = [{"kind": "sample_pseudo_inverse"}]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert "population" in str(exc.value)

    def test_rkhs_boundary_source_rejected(self):
        raw = dict(PRESETS["fig13"])
        raw = json.loads(json.dumps(raw))
        raw["rkhs"]["r_values"] = [0.25]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert "r_values[0]" in str(exc.value)


class TestRun:
    def test_stationary_outputs(self, tmp_path):
        manifest = run(tiny_stationary(), out_dir=str(tmp_path))
        assert set(manifest.outputs) == {"tiny_theory.csv", "tiny_sim.csv"}
        with open(tmp_path / "tiny_sim.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 2  # two seeds, two preconditioners
        assert {r["preconditioner"] for r in rows} \
            == {"identity", "inverse_pop_fisher"}
        for row in rows:
            total = float(row["bias"]) + float(row["variance"])
            assert float(row["risk"]) == pytest.approx(total, rel=1e-12)
        meta = json.loads((tmp_path / "tiny_manifest.json").read_text())
        assert meta["generator"] == GENERATOR_NAME
        assert meta["config_hash"] == ExperimentConfig.from_dict(
            tiny_stationary()).config_hash()
        columns = json.loads((tmp_path / "tiny_columns.json").read_text())
        assert set(columns) == set(manifest.outputs)

    def test_runs_are_byte_identical(self, tmp_path):
        m1 = run(tiny_stationary(), out_dir=str(tmp_path / "a"))
        m2 = run(tiny_stationary(), out_dir=str(tmp_path / "b"))
        assert m1.outputs == m2.outputs

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = tiny_stationary(seeds=range(4))
        m1 = run(cfg, out_dir=str(tmp_path / "w1"), workers=1)
        m4 = run(cfg, out_dir=str(tmp_path / "w4"), workers=4)
        assert m1.outputs == m4.outputs

    def test_float_cells_roundtrip_exactly(self, tmp_path):
        run(tiny_stationary(), out_dir=str(tmp_path))
        with open(tmp_path / "tiny_theory.csv", newline="") as handle:
            row = next(csv.DictReader(handle))
        from precondrisk import (PreconditionerSpec, make_two_atom,
                                 risk_report)
        rep = risk_report(make_two_atom(5.0), lambda x: np.ones_like(x),
                          PreconditionerSpec.identity(), 2.0, 1.0)
        assert float(row["variance"]) == rep.variance  # exact, 17 digits

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRECONDRISK_OUT", str(tmp_path / "envout"))
        run(tiny_stationary(), out_dir=None)
        assert (tmp_path / "envout" / "tiny_sim.csv").exists()


class TestCsvFormat:
    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(path, ("a", "b"), [["x,y", 'he said "hi"'],
                                     [float("nan"), 1.5]])
        text = path.read_bytes().decode()
        assert '"x,y"' in text
        assert '"he said ""hi"""' in text
        assert "\r\n" in text
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["x,y", 'he said "hi"']
        assert rows[2] == ["", "1.5"]  # nan becomes an empty cell


class TestPlotEmission:
    def make_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(path, ("alpha", "preconditioner", "bias", "variance",
                         "total"),
                  [[0.0, "power", 0.1, 2.0, 2.1],
                   [1.0, "power", 0.4, 1.0, 1.4]])
        return str(path)

    def test_script_is_standalone(self, tmp_path):
        src = self.make_csv(tmp_path)
        out = tmp_path / "plot.py"
        text = emit_plot_script([src], "alpha", str(out))
        assert "matplotlib" in text
        assert out.read_text() == text
        compile(text, str(out), "exec")  # syntactically valid

    def test_missing_column_is_named(self, tmp_path):
        src = self.make_csv(tmp_path)
        with pytest.raises(ConfigError) as exc:
            emit_plot_script([src], "time", str(tmp_path / "p.py"))
        assert "'t'" in str(exc.value)

    def test_unknown_kind(self, tmp_path):
        src = self.make_csv(tmp_path)
        with pytest.raises(ConfigError):
            emit_plot_script([src], "volcano", str(tmp_path / "p.py"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            emit_plot_script([str(tmp_path / "ghost.csv")], "alpha",
                             str(tmp_path / "p.py"))
        assert "ghost.csv" in str(exc.value)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def tiny(kind, seeds=(3,), **fields):
    """tiny_stationary() as a config of ``kind`` with ``fields`` added."""
    raw = tiny_stationary(seeds)
    raw.update(kind=kind, **fields)
    return raw


class TestEveryKind:
    """One tiny config per kind through ``run``; one row of each output
    file equals a direct library call on the same seed."""

    # tiny_stationary's spectrum, prior and design size
    fx = make_two_atom(5.0)

    @staticmethod
    def iso(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def design(self, seed):
        return sample_design(40, 80, self.fx, "gaussian", seed)

    def test_stationary(self, tmp_path):
        run(tiny_stationary(seeds=(3,)), out_dir=str(tmp_path))
        row = read_rows(tmp_path / "tiny_sim.csv")[1]
        point = trajectory(self.design(3), PreconditionerSpec
                           .inverse_pop_fisher(), self.iso, 1.0,
                           [math.inf])[0]
        assert (row["seed"], row["d"], row["preconditioner"]) \
            == ("3", "80", "inverse_pop_fisher")
        assert [float(row[k]) for k in ("bias", "variance", "risk")] \
            == [point.bias, point.variance, point.risk]
        theory = read_rows(tmp_path / "tiny_theory.csv")[1]
        rep = risk_report(self.fx, self.iso,
                          PreconditionerSpec.inverse_pop_fisher(), 2.0, 1.0)
        assert float(theory["bias"]) == rep.bias

    def test_trajectory(self, tmp_path):
        grid = {"scale": "lambda_max", "lo": 0.1, "hi": 10.0, "points": 4}
        run(tiny("trajectory", seeds=(3, 4), t_grid=grid),
            out_dir=str(tmp_path))
        for spec in (PreconditionerSpec.identity(),
                     PreconditionerSpec.inverse_pop_fisher()):
            rows = read_rows(tmp_path / f"tiny_trajectory_{spec.label}.csv")
            assert [r["seed"] for r in rows] == ["3"] * 4 + ["4"] * 4
            design = self.design(4)
            times = default_time_grid(design, spec, 4, 0.1, 10.0)
            point = trajectory(design, spec, self.iso, 1.0, times)[2]
            assert [float(rows[6][k]) for k in ("t", "bias", "variance",
                                                  "risk")] \
                == [point.t, point.bias, point.variance, point.risk]

    def test_alpha_sweep(self, tmp_path):
        run(tiny("alpha_sweep", families=["power"], alphas=[0.0, 0.5]),
            out_dir=str(tmp_path))
        row = read_rows(tmp_path / "tiny_sweep.csv")[1]
        _, rep = sweep_alpha(self.fx, self.iso, 2.0, 1.0, "power",
                             [0.0, 0.5])[1]
        assert [row[k] for k in RISK_CSV_COLUMNS] \
            == [_format_cell(v) for v in rep.to_csv_row()]

    def test_misspec_quadratic(self, tmp_path):
        run(tiny("misspec_quadratic", alpha_q_values=[0.0, 0.01],
                 test_points=500), out_dir=str(tmp_path))
        row = read_rows(tmp_path / "tiny_sim.csv")[3]
        model = LabelModel(kind="quadratic", sigma=1.0, prior_map=self.iso,
                           alpha_q=0.01)
        summary = simulate_risk([self.design(3)],
                                PreconditionerSpec.inverse_pop_fisher(),
                                model, test_points=500)
        assert row["label_model"] == model.label
        assert (row["bias"], row["variance"]) == ("", "")
        assert float(row["risk"]) == summary.mean_risk

    def test_misspec_unobserved(self, tmp_path):
        run(tiny("misspec_unobserved", trace_terms=[0.5], d_c=10),
            out_dir=str(tmp_path))
        spec = PreconditionerSpec.inverse_pop_fisher()
        row = read_rows(tmp_path / "tiny_sim.csv")[1]
        model = LabelModel(kind="unobserved", sigma=1.0, prior_map=self.iso,
                           unobserved=UnobservedBlock.isotropic(10, 0.5))
        summary = simulate_risk([self.design(3)], spec, model)
        assert [float(row[k]) for k in ("bias", "variance", "risk")] \
            == [summary.mean_bias, summary.mean_variance, summary.mean_risk]
        theory = read_rows(tmp_path / "tiny_misspec_theory.csv")[1]
        bias = misspecified_bias(make_joint(self.fx, self.iso, spec), 2.0,
                                 MisspecSpec(0.5))
        variance = risk_report(self.fx, self.iso, spec, 2.0, 1.0).variance
        assert [float(theory[k]) for k in ("bias", "variance", "total")] \
            == [bias, variance, bias + variance]

    def test_yky(self, tmp_path):
        run(tiny("yky", seeds=(3, 4), noise_levels=[0.0, 1.0]),
            out_dir=str(tmp_path))
        rows = read_rows(tmp_path / "tiny_yky.csv")
        design = self.design(3)  # one design, from the first seed
        values = []
        for seed in (3, 4):  # the labels of each seed at noise 1.0
            rng = _rng(seed, stream=1)
            model = LabelModel(kind="well_specified", sigma=0.0,
                               prior_map=self.iso)
            theta = model.sample_theta_star(design, rng)
            y = design.X @ theta + 1.0 * rng.standard_normal(40)
            values.append(yky_diagnostic(design, y))
        assert (rows[3]["sigma"], rows[3]["seed"]) == ("1", "4")
        assert float(rows[3]["diagnostic"]) == pytest.approx(values[1],
                                                             rel=1e-12)
        mean = read_rows(tmp_path / "tiny_yky_mean.csv")[1]
        assert float(mean["mean_diagnostic"]) == pytest.approx(
            np.mean(values), rel=1e-12)

    def test_alignment(self, tmp_path):
        run(tiny("alignment", prior_exponents=[0.0, 1.0]),
            out_dir=str(tmp_path))
        spec = PreconditionerSpec.inverse_pop_fisher()
        prior = lambda x: np.asarray(x, dtype=float) ** -1.0  # noqa: E731
        row = read_rows(tmp_path / "tiny_alignment_sim.csv")[3]
        design = self.design(3)
        stop = optimal_early_stopping(trajectory(design, spec, prior, 1.0))
        assert (row["prior_exponent"], row["preconditioner"]) \
            == ("1", "inverse_pop_fisher")
        assert [float(row[k]) for k in ("bias_stationary", "bias_opt",
                                        "t_bias")] \
            == [conditional_bias(design, spec, prior), stop.bias_opt,
                stop.t_bias]
        theory = read_rows(tmp_path / "tiny_alignment_theory.csv")[3]
        assert float(theory["bias"]) \
            == risk_report(self.fx, prior, spec, 2.0, 1.0).bias

    def test_rkhs(self, tmp_path):
        run({"schema_version": 1, "experiment": "tiny", "kind": "rkhs",
             "rkhs": TINY_RKHS}, out_dir=str(tmp_path))
        model = build_model(50, 2.0, 0.75, seed=1)
        data = make_dataset(model, 20, 0.01, seed=2 + 20)
        risks = [run_preconditioned(model, data, 0.5, a, 20)
                 for a in (0.1, 1.0)]
        traj = read_rows(tmp_path / "tiny_rkhs_traj.csv")
        assert (traj[21 + 7]["alpha"], traj[21 + 7]["t"]) == ("1", "7")
        assert float(traj[21 + 7]["risk"]) == risks[1][7]
        row = read_rows(tmp_path / "tiny_rkhs_sweep.csv")[1]
        threshold = 3.0 * min(float(r.min()) for r in risks)
        assert [float(row["best_risk"]), int(row["best_iter"]),
                float(row["final_risk"]), int(row["iters_to_threshold"])] \
            == [risks[1].min(), int(np.argmin(risks[1])), risks[1][-1],
                iterations_to_threshold(risks[1], threshold)]

    # the alpha = 1e-4 iteration overflows to inf by step 431, then to nan
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rkhs_diverged_cell_is_inf(self, tmp_path):
        params = dict(TINY_RKHS, alphas=[1e-4, 0.1], T=900)
        run({"schema_version": 1, "experiment": "tiny", "kind": "rkhs",
             "rkhs": params}, out_dir=str(tmp_path))
        traj = read_rows(tmp_path / "tiny_rkhs_traj.csv")
        assert traj[900]["risk"] == "inf"
        diverged, converged = read_rows(tmp_path / "tiny_rkhs_sweep.csv")
        assert diverged["final_risk"] == "inf"
        assert math.isfinite(float(diverged["best_risk"]))
        # the threshold is 3 x the best finite risk, so it is reached
        assert int(converged["iters_to_threshold"]) <= 900
