import json
import sys

import pytest

import precondrisk.cli as cli
from precondrisk import NumericalError
from precondrisk.cli import main


# a small valid config for the error-path tests
YKY = {"schema_version": 1, "experiment": "tiny", "kind": "yky",
       "spectrum": {"kind": "two_atom", "kappa": 5.0},
       "prior": {"kind": "constant", "value": 1.0}, "gammas": [2.0],
       "n": 20, "sigma2": 1.0, "noise_levels": [0.0, 1.0], "seeds": [0]}


def run_cli(args):
    return main(list(args))


class TestList:
    def test_lists_presets(self, capsys):
        assert run_cli(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out
        assert "fig13" in out


class TestRun:
    def test_preset_with_overrides(self, tmp_path, capsys):
        code = run_cli(["run", "fig10", "--seeds", "0:3", "--out",
                        str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig10_yky.csv").exists()
        assert (tmp_path / "fig10_manifest.json").exists()
        assert "fig10" in capsys.readouterr().out

    def test_seed_list_form(self, tmp_path):
        assert run_cli(["run", "fig10", "--seeds", "1,5", "--out",
                        str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "fig10_manifest.json").read_text())
        assert meta["config"]["seeds"] == [1, 5]

    def test_unknown_name_exits_2(self, capsys):
        assert run_cli(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "did you mean" in err

    def test_config_file(self, tmp_path):
        config = {
            "schema_version": 1,
            "experiment": "custom",
            "kind": "alpha_sweep",
            "spectrum": {"kind": "two_atom", "kappa": 5.0},
            "prior": {"kind": "constant", "value": 1.0},
            "gammas": [2.0],
            "sigma2": 1.0,
            "preconditioners": [{"kind": "identity"}],
            "families": ["power"],
            "alphas": [0.0, 0.5, 1.0],
            "seeds": [],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["run", "--config", str(path), "--out",
                        str(tmp_path)]) == 0
        assert (tmp_path / "custom_sweep.csv").exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": "x", "kind": "yky"}))
        assert run_cli(["run", "--config", str(path)]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_path_like_experiment_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(YKY, experiment="../escaped")))
        assert run_cli(["run", "--config", str(path), "--out",
                        str(tmp_path / "out")]) == 2
        assert "experiment" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("field,value,where", [
        ("sigma2", 10**400, "sigma2"),
        ("n", 10**400, "n"),
        ("gammas", [1e308], "gammas[0]"),
        ("spectrum", {"kind": "two_atom", "kappa": 1e308}, "spectrum.kappa"),
        ("spectrum", {"kind": "uniform", "kappa": 1e308, "n_atoms": 4},
         "spectrum.kappa"),
        ("spectrum", {"kind": "uniform", "kappa": 5.0, "n_atoms": 2.5},
         "spectrum.n_atoms"),
        ("spectrum", {"kind": "uniform", "kappa": 5.0, "n_atoms": 10**400},
         "spectrum.n_atoms"),
        ("spectrum", {"kind": "two_atom", "kappa": 5.0, "normalized": "no"},
         "spectrum.normalized"),
        # sizes numpy cannot index: above sys.maxsize, or n * gamma*n above
        ("n", 10**300, "n"),
        ("spectrum", {"kind": "uniform", "kappa": 5.0, "n_atoms": 10**300},
         "spectrum.n_atoms"),
        ("gammas", [1e200], "gammas[0]"),
    ], ids=["sigma2", "n", "gammas", "kappa-two_atom", "kappa-uniform",
            "n_atoms-fraction", "n_atoms-huge", "normalized",
            "n-beyond-maxsize", "n_atoms-beyond-maxsize",
            "gammas-beyond-maxsize"])
    def test_hostile_number_exits_2_and_writes_nothing(
            self, tmp_path, capsys, field, value, where):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(YKY, **{field: value})))
        assert run_cli(["run", "--config", str(path), "--out",
                        str(tmp_path / "out")]) == 2
        assert where in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("text", [
        json.dumps(YKY).replace('"n": 20', '"n": 1' + "0" * 5000).encode(),
        b"\xff\xfe{}",
    ], ids=["integer-too-long", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert run_cli(["run", "--config", str(path), "--out",
                        str(tmp_path / "out")]) == 2
        assert "--config" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_name_and_config_conflict(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert run_cli(["run", "fig10", "--config", str(path)]) == 2

    def test_missing_name_exits_2(self):
        assert run_cli(["run"]) == 2

    def test_bad_seed_spec_exits_2(self):
        assert run_cli(["run", "fig10", "--seeds", "5:5"]) == 2
        assert run_cli(["run", "fig10", "--seeds", "a,b"]) == 2

    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        def boom(config, out_dir=None, workers=1):
            raise NumericalError("stieltjes", "solve_m",
                                 "bracket never crossed zero")
        monkeypatch.setattr(cli, "run", boom)
        assert run_cli(["run", "fig10"]) == 3
        err = capsys.readouterr().err
        assert "stieltjes" in err
        assert "solve_m" in err

    def test_out_of_memory_exits_4(self, monkeypatch, capsys):
        def boom(config, out_dir=None, workers=1):
            raise MemoryError("Unable to allocate 74.5 GiB")
        monkeypatch.setattr(cli, "run", boom)
        assert run_cli(["run", "fig10"]) == cli.EXIT_MEMORY == 4
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 74.5 GiB\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, workers, tmp_path, capsys):
        assert run_cli(["run", "fig10", "--workers", workers, "--out",
                        str(tmp_path)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class ClosedPipe:
    """A stdout whose reader has gone away; its fd is a scratch file."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._handle.fileno()


class TestBrokenPipe:
    def test_exits_quietly_with_stated_code(self, tmp_path, monkeypatch,
                                            capsys):
        with open(tmp_path / "fd1", "w") as handle:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(handle))
            code = run_cli(["run", "fig10", "--seeds", "0:2", "--out",
                            str(tmp_path)])
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""
        # the run finished before its summary hit the closed pipe
        assert (tmp_path / "fig10_manifest.json").exists()


class TestPlot:
    def make_output(self, tmp_path):
        run_cli(["run", "fig10", "--seeds", "0:2", "--out", str(tmp_path)])
        return tmp_path / "fig10_yky.csv"

    def test_missing_column_exits_2(self, tmp_path, capsys):
        csv_path = self.make_output(tmp_path)
        code = run_cli(["plot", str(csv_path), "--kind", "gamma", "--out",
                        str(tmp_path / "p.py")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_emits_script(self, tmp_path):
        run_cli(["run", "fig5", "--out", str(tmp_path)])
        out = tmp_path / "plot_fig5.py"
        code = run_cli(["plot", str(tmp_path / "fig5_sweep.csv"),
                        "--kind", "alpha", "--out", str(out)])
        assert code == 0
        assert "matplotlib" in out.read_text()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0
        assert "precondrisk" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2
