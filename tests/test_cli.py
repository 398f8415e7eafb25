import json
from pathlib import Path

import numpy as np
import pytest

from lnlab import cli
from lnlab.cli import ConfigError, load_config, main
from lnlab.normalization import DegenerateTokenError
from lnlab.reports import (
    BOUNDS_COLUMNS,
    MOMENTS_COLUMNS,
    read_report,
    write_report,
)


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

    def test_jsonl_one_object_per_row(self, tmp_path):
        rows = [{"layer": 0, "ma": 1.5, "var": 2.0, "frob": 0.25,
                 "seed": 1, "placement": "pre", "delta_t": 1.0}]
        path = tmp_path / "moments.jsonl"
        write_report(rows, MOMENTS_COLUMNS, path, fmt="jsonl")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert list(obj) == list(MOMENTS_COLUMNS)
        assert obj["ma"] == 1.5

    def test_none_serialized_empty(self, tmp_path):
        rows = [{"placement": "pre", "weight_decay": 0.0, "seed": 0,
                 "diverged": 0, "first_divergence_step": None, "final_loss": 0.5}]
        from lnlab.reports import TRIALS_COLUMNS
        path = tmp_path / "trials.csv"
        write_report(rows, TRIALS_COLUMNS, path)
        assert ",,"   in path.read_text()
        assert read_report(path)[0]["first_divergence_step"] is None

    def test_diverged_trial_round_trips_in_both_formats(self, tmp_path):
        # diverged runs carry an infinite loss; both writers must survive it
        from lnlab.reports import TRIALS_COLUMNS
        rows = [{"placement": "off", "weight_decay": 0.0, "seed": 4,
                 "diverged": 1, "first_divergence_step": 7, "final_loss": float("inf")}]
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"trials.{fmt}"
            write_report(rows, TRIALS_COLUMNS, path, fmt=fmt)
            back = read_report(path)
            assert back[0]["final_loss"] == float("inf")
            assert back[0]["first_divergence_step"] == 7


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg = load_config(None)
        assert cfg["model"]["placement"] == "peri"
        assert cfg["seed"] == 0

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
        rows = [
            {"check": "peri_ma_growth", "placement": "peri", "D": 8, "delta_t": 1.0,
             "gamma_max": 1.0, "beta_max": 0.0, "lhs": 5.0, "rhs": 1.0,
             "margin": -4.0, "seed": 3},
        ]
        write_report(rows, BOUNDS_COLUMNS, tmp_path / "bounds.csv")
        rc = main(["--out", str(tmp_path), "report"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "peri_ma_growth" in out

    def test_report_empty_dir_exits_two(self, tmp_path):
        assert main(["--out", str(tmp_path), "report"]) == 2

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

    def test_bounds_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("LNLAB_THREADS", "1")
        assert main(["--out", str(a), "--instances", "4", "bounds"]) == 0
        monkeypatch.setenv("LNLAB_THREADS", "6")
        assert main(["--out", str(b), "--instances", "4", "bounds"]) == 0
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()

    def test_jsonl_format_flag(self, tmp_path):
        assert main(["--out", str(tmp_path), "--format", "jsonl", "--depth", "2", "diagnose"]) == 0
        rows = read_report(tmp_path / "moments.jsonl")
        assert rows and set(rows[0]) == set(MOMENTS_COLUMNS)


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
