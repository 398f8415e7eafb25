import json
import re
from pathlib import Path

import numpy as np
import pytest

from lnlab import cli, diagnostics, suites, training
from lnlab.cli import ConfigError, load_config, main
from lnlab.diagnostics import BoundReport
from lnlab.model import ModelConfig, push_forward
from lnlab.normalization import DegenerateTokenError
from lnlab.reports import (
    BOUNDS_COLUMNS,
    GRADCHECK_COLUMNS,
    MOMENTS_COLUMNS,
    TRIALS_COLUMNS,
    read_report,
    write_report,
)

FAILING_BOUND = {
    "check": "peri_ma_growth", "placement": "peri", "D": 8, "delta_t": 1.0,
    "gamma_max": 1.0, "beta_max": 0.0, "lhs": 5.0, "rhs": 1.0, "margin": -4.0, "seed": 3,
}


def _trial(placement, wd, diverged):
    return {"placement": placement, "weight_decay": wd, "seed": 0, "diverged": diverged,
            "first_divergence_step": 5 if diverged else None, "final_loss": 0.5}


class TestReportWriter:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "bounds.csv"
        write_report([], BOUNDS_COLUMNS, path)
        assert path.read_text() == ",".join(BOUNDS_COLUMNS) + "\n"

    def test_round_trip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(0)
        rows = [
            {
                "layer": i, "ma": float(gen.normal() * 10.0 ** float(gen.integers(-8, 8))),
                "var": float(abs(gen.normal())), "frob": float(abs(gen.normal())),
                "seed": 7, "placement": "peri", "delta_t": 0.1,
            }
            for i in range(20)
        ]
        path = tmp_path / "moments.csv"
        write_report(rows, MOMENTS_COLUMNS, path)
        back = read_report(path)
        for a, b in zip(rows, back):
            for c in MOMENTS_COLUMNS:
                if isinstance(a[c], float):
                    assert float(b[c]) == a[c]  # bit-exact after 17 digits
                else:
                    assert b[c] == a[c]

    def test_none_serialized_empty(self, tmp_path):
        rows = [{"placement": "pre", "weight_decay": 0.0, "seed": 0,
                 "diverged": 0, "first_divergence_step": None, "final_loss": 0.5}]
        path = tmp_path / "trials.csv"
        write_report(rows, TRIALS_COLUMNS, path)
        assert ",," in path.read_text()
        assert read_report(path)[0]["first_divergence_step"] is None

    def test_diverged_trial_round_trips(self, tmp_path):
        # diverged runs carry an infinite loss; the writer must survive it
        rows = [{"placement": "off", "weight_decay": 0.0, "seed": 4,
                 "diverged": 1, "first_divergence_step": 7, "final_loss": float("inf")}]
        path = tmp_path / "trials.csv"
        write_report(rows, TRIALS_COLUMNS, path)
        back = read_report(path)
        assert back[0]["final_loss"] == float("inf")
        assert back[0]["first_divergence_step"] == 7

    def test_empty_file_reads_as_no_rows(self, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("")
        assert read_report(path) == []


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg = load_config(None)
        assert cfg["model"]["placement"] == "peri"
        assert cfg["seed"] == 0

    def test_train_section_is_the_library_default_run(self):
        assert cli.train_config(load_config(None)) == training.TrainConfig(ModelConfig(), seed=0)

    def test_defaults_keep_their_values_and_types(self):
        # json.dumps tells 1 from 1.0, which == does not
        defaults = {
            "seed": 0,
            "output": ".",
            "model": {
                "d": 6, "n": 4, "k": 4, "m": 8, "heads": 1, "depth": 8,
                "placement": "peri", "delta_t": 1.0, "activation": "tanh", "epsilon": 1e-5,
            },
            "train": {
                "task": "mean_regression", "steps": 60, "lr": 0.009, "momentum": 0.9,
                "weight_decay": 0.0, "batch_size": 2, "divergence_threshold": 1e8,
                "noise_std": 0.1, "checkpoint_every": 10, "dataset_size": None,
            },
            "diagnostics": {
                "instances": 20,
                "depths": [8, 16, 32, 64],
                "delta_ts": [1.0, 0.1],
                "wasserstein_samples": 32,
                "wasserstein_p": 2.0,
                "chain_depth": 16,
            },
            "sweep": {
                "placements": ["off", "pre", "peri"],
                "weight_decays": [0.0, 0.3],
                "seeds": 20,
            },
        }
        assert json.dumps(load_config(None), sort_keys=True) == json.dumps(defaults, sort_keys=True)

    def test_loaded_config_shares_nothing_with_defaults(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text('{"seed": 1}')
        cfg = load_config(str(path))
        cfg["train"]["steps"] = 1
        cfg["sweep"]["placements"].append("post")
        fresh = load_config(None)
        assert fresh["train"]["steps"] == 60
        assert fresh["sweep"]["placements"] == ["off", "pre", "peri"]

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"dd": 3}}')
        with pytest.raises(ConfigError, match="model.dd"):
            load_config(str(path))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(str(path))

    def test_partial_override_merges(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"model": {"depth": 3}, "seed": 9}')
        cfg = load_config(str(path))
        assert cfg["model"]["depth"] == 3
        assert cfg["model"]["d"] == 6  # untouched default
        assert cfg["seed"] == 9

    @pytest.mark.parametrize("text, field", [
        ('{"diagnostics": {"instances": "4"}}', "diagnostics.instances"),
        ('{"diagnostics": {"instances": 0}}', "diagnostics.instances"),
        ('{"model": {"delta_t": true}}', "model.delta_t"),
        ('{"model": {"d": 4.0}}', "model.d"),
        ('{"diagnostics": {"depths": [8, 16.5]}}', "diagnostics.depths"),
        ('{"train": {"dataset_size": 2.5}}', "train.dataset_size"),
        ('{"output": 3}', "output"),
    ])
    def test_wrongly_typed_value_rejected_with_path(self, tmp_path, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            load_config(str(path))

    def test_int_for_float_and_null_or_int_dataset_size_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"model": {"delta_t": 1}, "train": {"lr": 1, "dataset_size": 4}}')
        cfg = load_config(str(path))
        assert cfg["model"]["delta_t"] == 1.0 and isinstance(cfg["model"]["delta_t"], float)
        assert cfg["train"]["dataset_size"] == 4
        path.write_text('{"train": {"dataset_size": null}}')
        assert load_config(str(path))["train"]["dataset_size"] is None

    def test_int_item_of_float_list_stored_as_float(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"diagnostics": {"delta_ts": [1, 0.5]}, "sweep": {"weight_decays": [0, 0.3]}}')
        cfg = load_config(str(path))
        for items in (cfg["diagnostics"]["delta_ts"], cfg["sweep"]["weight_decays"]):
            assert all(isinstance(v, float) for v in items)
        assert cfg["sweep"]["weight_decays"] == [0.0, 0.3]

    def test_int_decay_prints_as_float_in_sweep(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"train": {"steps": 1}, "sweep": {"placements": ["peri"], '
                        '"weight_decays": [0, 0.3], "seeds": 1}}')
        assert main(["--config", str(path), "--out", str(tmp_path), "--depth", "1", "sweep"]) == 0
        assert "placement=peri weight_decay=0.0 diverged=0/1" in capsys.readouterr().out

    def test_sweep_seeds_start_at_the_master_seed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"train": {"steps": 1}, "sweep": {"placements": ["peri"], '
                        '"weight_decays": [0.0], "seeds": 3}}')
        argv = ["--config", str(path), "--out", str(tmp_path), "--depth", "1", "--seed", "3"]
        assert main(argv + ["sweep"]) == 0
        for stem in ("trials", "moments"):
            seeds = [r["seed"] for r in read_report(tmp_path / f"{stem}.csv")]
            assert sorted(set(seeds)) == [3, 4, 5], stem


class TestExitCodes:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        rc = main(["--config", str(bad), "--out", str(tmp_path), "diagnose"])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        rc = main(["--config", str(tmp_path / "absent.json"), "diagnose"])
        assert rc == 2

    def test_invalid_delta_t_exits_two(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--delta-t", "1.5", "diagnose"])
        assert rc == 2
        assert "delta_t" in capsys.readouterr().err

    def test_report_failure_exits_one_with_first_row(self, tmp_path, capsys):
        write_report([FAILING_BOUND], BOUNDS_COLUMNS, tmp_path / "bounds.csv")
        rc = main(["--out", str(tmp_path), "report"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "peri_ma_growth" in out

    def test_report_empty_dir_exits_two(self, tmp_path):
        assert main(["--out", str(tmp_path), "report"]) == 2

    @pytest.mark.parametrize("stem, columns", [
        ("bounds", BOUNDS_COLUMNS), ("ot", BOUNDS_COLUMNS),
        ("gradcheck", GRADCHECK_COLUMNS), ("trials", TRIALS_COLUMNS),
    ])
    @pytest.mark.parametrize("header", [False, True], ids=["empty", "header-only"])
    def test_report_without_rows_exits_two(self, tmp_path, capsys, stem, columns, header):
        # a truncated report must not read as a pass
        path = tmp_path / f"{stem}.csv"
        if header:
            write_report([], columns, path)
        else:
            path.write_text("")
        assert main(["--out", str(tmp_path), "report"]) == 2
        captured = capsys.readouterr()
        assert f"{stem}.csv: no rows" in captured.err and "PASS" not in captured.out

    def test_report_without_margin_column_exits_two(self, tmp_path, capsys):
        columns = tuple(c for c in BOUNDS_COLUMNS if c != "margin")
        write_report([FAILING_BOUND], columns, tmp_path / "bounds.csv")
        assert main(["--out", str(tmp_path), "report"]) == 2
        err = capsys.readouterr().err
        assert "bounds.csv" in err and "'margin'" in err

    def test_report_non_numeric_margin_exits_two(self, tmp_path, capsys):
        write_report([{**FAILING_BOUND, "margin": "wide"}], BOUNDS_COLUMNS, tmp_path / "bounds.csv")
        assert main(["--out", str(tmp_path), "report"]) == 2
        err = capsys.readouterr().err
        assert "bounds.csv" in err and "'margin'" in err and "'wide'" in err

    def test_nan_margin_fails_its_row(self, tmp_path, capsys):
        write_report([{**FAILING_BOUND, "margin": float("nan")}], BOUNDS_COLUMNS, tmp_path / "bounds.csv")
        assert main(["--out", str(tmp_path), "report"]) == 1
        out = capsys.readouterr().out
        assert "FAIL bounds.csv: 1 rows, 1 failing" in out and "margin=nan" in out

    def test_nan_rel_err_fails_its_row(self, tmp_path, capsys):
        row = {"category": "layernorm", "instance": 0, "d": 4, "n": 3, "heads": 1,
               "depth": 1, "rel_err": float("nan"), "seed": 0}
        write_report([row], GRADCHECK_COLUMNS, tmp_path / "gradcheck.csv")
        assert main(["--out", str(tmp_path), "report"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gradcheck.csv: 1 rows, 1 failing" in out and "rel_err=nan" in out

    def test_rel_err_tolerances_are_constants(self, tmp_path, capsys):
        # 5e-6 is over the Jacobian categories' 1e-6 and under the params' 1e-5
        row = {"category": "layernorm", "instance": 0, "d": 4, "n": 3, "heads": 1,
               "depth": 1, "rel_err": 5e-6, "seed": 0}
        write_report([row], GRADCHECK_COLUMNS, tmp_path / "gradcheck.csv")
        assert main(["--out", str(tmp_path), "report"]) == 1
        write_report([{**row, "category": "params"}], GRADCHECK_COLUMNS, tmp_path / "gradcheck.csv")
        assert main(["--out", str(tmp_path), "report"]) == 0
        path = tmp_path / "cfg.json"
        path.write_text('{"diagnostics": {"gradcheck_tolerance": 1.0}}')
        capsys.readouterr()
        assert main(["--config", str(path), "--out", str(tmp_path), "report"]) == 2
        assert "unknown config field 'diagnostics.gradcheck_tolerance'" in capsys.readouterr().err

    @pytest.mark.parametrize("stem, cells, rc", [
        ("bounds", {"margin": cli.MARGIN_TOLERANCE}, 0),
        ("ot", {"margin": -1e-10}, 0),
        ("bounds", {"margin": -2e-9}, 1),
        ("gradcheck", {"rel_err": cli.GRADCHECK_TOLERANCE}, 0),
        ("gradcheck", {"rel_err": 1.1e-6}, 1),
        ("gradcheck", {"category": "params", "rel_err": cli.PARAM_TOLERANCE}, 0),
        ("gradcheck", {"category": "params", "rel_err": 1.1e-5}, 1),
    ])
    def test_rows_at_a_tolerance_pass_and_beyond_it_fail(self, tmp_path, stem, cells, rc):
        # each verdict admits its tolerance itself: margin -1e-9, rel_err 1e-6 and 1e-5
        if stem == "gradcheck":
            row = {"category": "layernorm", "instance": 0, "d": 4, "n": 3, "heads": 1,
                   "depth": 1, "rel_err": 0.0, "seed": 0}
            columns = GRADCHECK_COLUMNS
        else:
            row, columns = FAILING_BOUND, BOUNDS_COLUMNS
        write_report([{**row, **cells}], columns, tmp_path / f"{stem}.csv")
        assert main(["--out", str(tmp_path), "report"]) == rc

    @pytest.mark.parametrize("counts, failing", [
        ((1, 1, 0), None),
        ((0, 1, 0), "contract=ordering"),
        ((1, 1, 1), "contract=ordering"),
        ((1, 1, 0, 0), None),
        ((1, 1, 0, 1), None),
        ((1, 0, 0, 1), "contract=pre_decay_effect"),
    ])
    def test_trial_contracts(self, tmp_path, capsys, counts, failing):
        # off, pre and peri diverged at decay 0, then pre at decay 0.3 if given:
        # off >= pre >= peri = 0, and the higher decay may keep the pre count
        rows = [_trial(p, 0.0, c) for p, c in zip(("off", "pre", "peri"), counts)]
        rows += [_trial("pre", 0.3, c) for c in counts[3:]]
        write_report(rows, TRIALS_COLUMNS, tmp_path / "trials.csv")
        assert main(["--out", str(tmp_path), "report"]) == int(failing is not None)
        out = capsys.readouterr().out
        assert failing is None or f"first failing row: {failing}" in out

    def test_nan_decay_fails_its_row(self, tmp_path, capsys):
        # pre and peri diverged at one decay fail the ordering; a NaN decay
        # matches no slice, so no contract reads its rows and each fails itself
        for wd, failing in ((0.0, "contract=ordering"), (float("nan"), "placement=off weight_decay=nan")):
            rows = [_trial("off", wd, 0), _trial("pre", wd, 1), _trial("peri", wd, 1)]
            write_report(rows, TRIALS_COLUMNS, tmp_path / "trials.csv")
            assert main(["--out", str(tmp_path), "report"]) == 1
            assert f"first failing row: {failing}" in capsys.readouterr().out

    @pytest.mark.parametrize("cell", [-1, 0.5, 2])
    def test_diverged_cell_not_0_or_1_fails_its_row(self, tmp_path, capsys, cell):
        # a second peri row at -1 would cancel the divergence and pass the
        # ordering; a count that is neither 0 nor 1 fails itself, first
        rows = [_trial("off", 0.0, 0), _trial("pre", 0.0, 0), _trial("peri", 0.0, 1),
                _trial("peri", 0.0, cell)]
        write_report(rows, TRIALS_COLUMNS, tmp_path / "trials.csv")
        assert main(["--out", str(tmp_path), "report"]) == 1
        out = capsys.readouterr().out
        assert f"first failing row: placement=peri weight_decay=0 seed=0 diverged={cell} " in out

    @pytest.mark.parametrize("columns, placement", [
        (("weight_decay", "seed", "diverged"), "off"),
        (TRIALS_COLUMNS, 3),
    ])
    def test_trials_without_text_placement_exits_two(self, tmp_path, capsys, columns, placement):
        row = {"placement": placement, "weight_decay": 0.0, "seed": 0, "diverged": 1,
               "first_divergence_step": 5, "final_loss": 0.5}
        write_report([row], columns, tmp_path / "trials.csv")
        assert main(["--out", str(tmp_path), "report"]) == 2
        err = capsys.readouterr().err
        assert "trials.csv" in err and "'placement'" in err

    @pytest.mark.parametrize("columns, line, message", [
        (("check", "margin"), "a,1.0,5", "bounds.csv line 3: 3 cells under a header of 2"),
        (BOUNDS_COLUMNS, "a,1.0", "bounds.csv line 3: 2 cells under a header of 10"),
    ], ids=["csv-extra-cell", "csv-missing-cell"])
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, columns, line, message):
        write_report([{**FAILING_BOUND, "margin": 1.0}], columns, tmp_path / "bounds.csv")
        with open(tmp_path / "bounds.csv", "a") as f:
            f.write(line + "\n")
        assert main(["--out", str(tmp_path), "report"]) == 2
        assert message in capsys.readouterr().err

    def test_wrongly_typed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"diagnostics": {"instances": "4"}}')
        assert main(["--config", str(path), "--out", str(tmp_path), "bounds"]) == 2
        assert "diagnostics.instances" in capsys.readouterr().err

    def test_zero_instances_flag_exits_two(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--instances", "0", "gradcheck"]) == 2
        assert "diagnostics.instances" in capsys.readouterr().err

    @pytest.mark.parametrize("text, command, field", [
        ('{"diagnostics": {"depths": []}}', "bounds", "diagnostics.depths"),
        ('{"diagnostics": {"delta_ts": []}}', "bounds", "diagnostics.delta_ts"),
        ('{"diagnostics": {"chain_depth": -1}}', "bounds", "diagnostics.chain_depth"),
        ('{"diagnostics": {"wasserstein_samples": 0}}', "ot-check", "diagnostics.wasserstein_samples"),
        ('{"train": {"checkpoint_every": 0}}', "train", "checkpoint_every"),
        ('{"train": {"dataset_size": 0}}', "train", "dataset_size"),
        ('{"train": {"momentum": -0.5}}', "train", "momentum must be in [0, 1), got -0.5"),
        ('{"train": {"momentum": 1}}', "train", "momentum must be in [0, 1), got 1.0"),
        ('{"train": {"divergence_threshold": -1.0}}', "train", "divergence_threshold must be > 0"),
        ('{"train": {"noise_std": -0.1}}', "train", "noise_std must be >= 0, got -0.1"),
        ('{"sweep": {"seeds": 0}}', "sweep", "sweep.seeds"),
        ('{"sweep": {"placements": []}}', "sweep", "sweep.placements"),
        ('{"sweep": {"weight_decays": []}}', "sweep", "sweep.weight_decays"),
    ])
    def test_empty_or_nonpositive_count_exits_two_naming_the_field(
        self, tmp_path, capsys, text, command, field
    ):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["--config", str(path), "--out", str(tmp_path), "--instances", "2", command])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text, command, item, message", [
        ('{"diagnostics": {"depths": [0]}}', "bounds", "diagnostics.depths[0]",
         "depth must be >= 1, got 0"),
        ('{"diagnostics": {"depths": [8, -3]}}', "bounds", "diagnostics.depths[1]",
         "depth must be >= 1, got -3"),
        ('{"diagnostics": {"delta_ts": [1.5]}}', "bounds", "diagnostics.delta_ts[0]",
         "delta_t must lie in (0, 1], got 1.5"),
        ('{"diagnostics": {"delta_ts": [1.0, 0]}}', "bounds", "diagnostics.delta_ts[1]",
         "delta_t must lie in (0, 1], got 0.0"),
        ('{"sweep": {"weight_decays": [-0.1]}}', "sweep", "sweep.weight_decays[0]",
         "weight_decay must be >= 0, got -0.1"),
        ('{"sweep": {"placements": ["peri", "sideways"]}}', "sweep", "sweep.placements[1]",
         "unknown placement 'sideways'"),
        ('{"sweep": {"weight_decays": [0.0, -2]}}', "sweep", "sweep.weight_decays[1]",
         "weight_decay must be >= 0, got -2.0"),
        ('{"diagnostics": {"depths": [8], "delta_ts": [0.5, -0.25]}}', "bounds",
         "diagnostics.delta_ts[1]", "delta_t must lie in (0, 1], got -0.25"),
    ])
    def test_out_of_range_grid_item_exits_two_naming_the_item(
        self, tmp_path, capsys, text, command, item, message
    ):
        """The CLI names the item's config path and gives the rule in the
        words of the library object that refuses it."""
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["--config", str(path), "--out", str(tmp_path), "--instances", "2", command])
        assert rc == 2
        assert f"config field '{item}': {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, item", [
        ('{"sweep": {"placements": ["pre", "pre"]}}', "sweep.placements[1]"),
        ('{"sweep": {"placements": ["off", "pre", "off"]}}', "sweep.placements[2]"),
        ('{"sweep": {"weight_decays": [0.0, 0.3, 0.3]}}', "sweep.weight_decays[2]"),
        ('{"sweep": {"weight_decays": [0, 0.0]}}', "sweep.weight_decays[1]"),
    ])
    def test_repeated_grid_item_exits_two_before_any_trial(
        self, tmp_path, monkeypatch, capsys, text, item
    ):
        runs = []
        monkeypatch.setattr(training, "train_run", lambda tc: runs.append(tc))
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 2
        assert f"'{item}'" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("text, command, field", [
        ('{"train": {"lr": NaN}}', "train", "train.lr"),
        ('{"train": {"divergence_threshold": NaN}}', "train", "train.divergence_threshold"),
        ('{"train": {"noise_std": Infinity}}', "train", "train.noise_std"),
        ('{"model": {"epsilon": Infinity}}', "diagnose", "model.epsilon"),
        ('{"diagnostics": {"wasserstein_p": Infinity}}', "ot-check", "diagnostics.wasserstein_p"),
        ('{"sweep": {"weight_decays": [0.0, Infinity]}}', "sweep", "sweep.weight_decays[1]"),
        ('{"diagnostics": {"delta_ts": [-Infinity]}}', "bounds", "diagnostics.delta_ts[0]"),
    ])
    def test_nonfinite_float_exits_two_naming_the_field(
        self, tmp_path, capsys, text, command, field
    ):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["--config", str(path), "--out", str(tmp_path), "--instances", "1",
                   "--depth", "2", command])
        assert rc == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"diagnostics": {"wasserstein_samples": 300}}', "diagnostics.wasserstein_samples"),
        ('{"diagnostics": {"wasserstein_p": 0.5}}', "diagnostics.wasserstein_p"),
    ])
    def test_transport_rule_exits_two_before_any_pushforward(
        self, tmp_path, monkeypatch, capsys, text, field
    ):
        pushed = []
        monkeypatch.setattr(diagnostics, "push_forward",
                            lambda *args: pushed.append(args) or push_forward(*args))
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["--config", str(path), "--out", str(tmp_path), "--instances", "2", "ot-check"])
        assert pushed == []
        assert rc == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gradcheck", "bounds", "ot-check", "diagnose", "train",
                                         "sweep", "report"])
    @pytest.mark.parametrize("text, flags, section", [
        ('{"model": {"d": 0}}', [], "model"),
        ('{"model": {"placement": "bogus"}}', [], "model"),
        ('{"model": {"activation": "sigmoid"}}', [], "model"),
        ('{"model": {"epsilon": -0.001}}', [], "model"),
        ('{"train": {"checkpoint_every": 0}}', [], "train"),
        ("{}", ["--depth", "0"], "model"),
    ])
    def test_every_command_checks_the_model_and_train_sections(
        self, tmp_path, capsys, command, text, flags, section
    ):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["--config", str(path), "--out", str(tmp_path), "--instances", "1", *flags, command])
        assert rc == 2
        assert f"config section '{section}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, message", [
        (["--placement", "sideways"], '{"model": {"placement": "sideways"}}',
         "config error: config section 'model': unknown placement 'sideways', "
         "expected one of ('off', 'pre', 'peri', 'post')\n"),
    ], ids=["placement"])
    def test_bad_choice_flag_exits_two_as_its_config_value_does(
        self, tmp_path, capsys, flag, text, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path), "diagnose"]) == 2
        assert capsys.readouterr().err == message
        assert main(["--out", str(tmp_path), *flag, "diagnose"]) == 2
        assert capsys.readouterr().err == message

    def test_readme_synopsis_names_the_parser_options(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        synopsis = re.search(r"```\n(lnlab \[--config .*?)```", readme, re.S).group(1)
        options = {
            option for action in cli.build_parser()._actions for option in action.option_strings
        }
        assert set(re.findall(r"--[a-z-]+", synopsis)) == options - {"-h", "--help"}

    def test_nonfinite_delta_t_flag_exits_two(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--delta-t", "nan", "diagnose"]) == 2
        assert "'model.delta_t'" in capsys.readouterr().err

    def test_float_flag_overrides_int_config_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"delta_t": 1, "depth": 2}}')
        assert main(["--config", str(path), "--out", str(tmp_path), "--delta-t", "0.5", "diagnose"]) == 0
        assert read_report(tmp_path / "moments.csv")[0]["delta_t"] == 0.5

    def test_partial_trials_grid_gives_a_verdict(self, tmp_path, capsys):
        # off and pre at decay 0 but peri only at 0.3: no contract has all its slices
        rows = [_trial("off", 0.0, 1), _trial("pre", 0.0, 0), _trial("peri", 0.3, 0)]
        write_report(rows, TRIALS_COLUMNS, tmp_path / "trials.csv")
        assert main(["--out", str(tmp_path), "report"]) == 0
        # with peri at decay 0 the ordering is evaluated (and fails); pre has
        # one decay only, so the decay effect is still skipped
        write_report(rows + [_trial("peri", 0.0, 1)], TRIALS_COLUMNS, tmp_path / "trials.csv")
        assert main(["--out", str(tmp_path), "report"]) == 1
        assert "ordering" in capsys.readouterr().out

    def test_bounds_and_report_print_the_same_failing_row(self, tmp_path, monkeypatch, capsys):
        bad = BoundReport("peri_ma_growth", "peri", 8, 1.0, 1.0, 0.0, 5.0, 1.0, seed=3)
        monkeypatch.setattr(suites, "_peri_suite", lambda *args, **kwargs: [bad])  # the growth and pathwise rows

        def failing_lines(text):
            return [line for line in text.splitlines() if "peri_ma_growth" in line]

        assert main(["--out", str(tmp_path), "--instances", "1", "bounds"]) == 1
        produced = failing_lines(capsys.readouterr().out)
        assert main(["--out", str(tmp_path), "report"]) == 1
        reported = failing_lines(capsys.readouterr().out)
        assert len(produced) == 1 and produced == reported

    def test_ot_check_assignment_mismatch_exits_one(self, tmp_path, monkeypatch, capsys):
        exact = cli.wasserstein_exact
        monkeypatch.setattr(cli, "wasserstein_exact", lambda a, b, p: exact(a, b, p) + 1e-6)
        assert main(["--out", str(tmp_path), "--instances", "1", "ot-check"]) == 1
        assert "FAIL ot-check assignment" in capsys.readouterr().out

    def test_diagnose_ok_exits_zero(self, tmp_path):
        assert main(["--out", str(tmp_path), "--depth", "2", "diagnose"]) == 0
        assert (tmp_path / "moments.csv").exists()

    def test_arithmetic_error_exits_two_with_message(self, tmp_path, monkeypatch, capsys):
        def degenerate(cfg):
            raise DegenerateTokenError("block 3, site ffn_in: constant token", 0)

        monkeypatch.setitem(cli.HANDLERS, "diagnose", degenerate)
        assert main(["--out", str(tmp_path), "diagnose"]) == 2
        assert "block 3, site ffn_in" in capsys.readouterr().err


class TestDeterminism:
    def test_diagnose_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["--out", str(out), "--seed", "11", "--depth", "3", "diagnose"]) == 0
        assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()

    def test_bounds_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["--out", str(out), "--instances", "4", "bounds"]) == 0
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()

    def test_report_output_independent_of_directory(self, tmp_path, capsys):
        texts = []
        for out in (tmp_path / "a", tmp_path / "b"):
            write_report([FAILING_BOUND], BOUNDS_COLUMNS, out / "bounds.csv")
            assert main(["--out", str(out), "report"]) == 1
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]


class TestTrainSubcommand:
    def test_noisy_copy_task_from_config(self, tmp_path):
        cfg = {
            "model": {"d": 4, "n": 3, "k": 3, "m": 5, "depth": 2},
            "train": {"task": "noisy_copy", "steps": 5, "lr": 0.005, "noise_std": 0.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path), "train"]) == 0
        rows = read_report(tmp_path / "trials.csv")
        assert len(rows) == 1 and rows[0]["diverged"] == 0
        assert (tmp_path / "moments.csv").exists()

    def test_degenerate_ln_recorded_as_divergence(self, tmp_path, capsys):
        # relu at eps = 0 drives an FFN output to a constant token mid-run
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "aggressive.json").read_text())
        cfg["model"].update(activation="relu", epsilon=0.0, placement="peri")
        cfg["train"]["steps"] = 20
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path), "train"]) == 0
        rows = read_report(tmp_path / "trials.csv")
        assert rows[0]["diverged"] == 1
        assert rows[0]["first_divergence_step"] == 2
        assert "cause=degenerate_ln block=6 site=ffn_out" in capsys.readouterr().out


class TestSweepOrdering:
    def test_small_sweep_passes_contract(self, tmp_path):
        # tiny but aggressive: off/pre both diverge, peri stays clean
        cfg = {
            "model": {"d": 4, "n": 3, "k": 3, "m": 8, "depth": 8},
            "train": {"steps": 25, "lr": 0.02},
            "sweep": {"placements": ["off", "pre", "peri"],
                      "weight_decays": [0.0, 0.3], "seeds": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--config", str(path), "--out", str(tmp_path), "sweep"])
        assert rc == 0
        rows = read_report(tmp_path / "trials.csv")
        assert len(rows) == 18
        peri = [r for r in rows if r["placement"] == "peri"]
        assert all(r["diverged"] == 0 for r in peri)
