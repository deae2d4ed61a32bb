"""Unit tests for loss-weight tuning and the command-line interface."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.models import NNPCCModel, TrainConfig, tune_runtime_weight
from repro.models.base import PCCPredictor
from repro.cli import build_parser, main
from repro.scope.serialization import load_repository


class MarkedIncreasing(PCCPredictor):
    """Constant decreasing curves, except that the marked jobs' increase."""

    name = "marked_increasing"

    def __init__(self, job_ids):
        super().__init__()
        self.job_ids = set(job_ids)
        self._fitted = True

    def fit(self, dataset):
        return self

    def predict_runtime_at(self, dataset, tokens):
        return np.full(len(dataset), 100.0)

    def predict_curves(self, dataset, grids):
        return [100.0 * np.power(grid, -0.5) for grid in grids]

    def predict_parameters(self, dataset):
        return np.array(
            [
                [0.3 if e.job_id in self.job_ids else -0.5, np.log(100.0)]
                for e in dataset.examples
            ]
        )


@pytest.fixture(scope="module")
def repo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "hist.npz"
    code = main(
        ["generate", "--jobs", "25", "--seed", "4", "--out", str(path)]
    )
    assert code == 0
    return path


class TestWeightTuning:
    @pytest.fixture(scope="class")
    def split(self, dataset):
        from repro.models.dataset import PCCDataset

        half = len(dataset) // 2
        train = PCCDataset(examples=dataset.examples[:half])
        validation = PCCDataset(examples=dataset.examples[half:])
        return train, validation

    def test_picks_an_offered_weight(self, split):
        train, validation = split

        def factory(loss):
            return NNPCCModel(loss=loss, train_config=TrainConfig(epochs=10),
                              seed=0)

        result = tune_runtime_weight(
            factory, train, validation, weights=(0.1, 0.5, 1.0)
        )
        assert result.best_weight in (0.1, 0.5, 1.0)
        assert len(result.trials) == 3
        assert result.lf1_param_mae > 0
        best = result.best_trial()
        assert best[0] == result.best_weight

    def test_admissible_rule(self, split):
        """The winner's parameter MAE stays near LF1 unless none can."""
        train, validation = split

        def factory(loss):
            return NNPCCModel(loss=loss, train_config=TrainConfig(epochs=10),
                              seed=0)

        result = tune_runtime_weight(
            factory, train, validation, weights=(0.25, 0.5), tolerance=1.5
        )
        best = result.best_trial()
        admissible = [
            t for t in result.trials
            if t[1] <= 1.5 * result.lf1_param_mae
        ]
        if admissible:
            assert best in admissible
            assert best[2] == min(t[2] for t in admissible)

    def test_rejects_bad_inputs(self, split):
        train, validation = split
        with pytest.raises(ModelError):
            tune_runtime_weight(lambda loss: None, train, validation,
                                weights=())
        with pytest.raises(ModelError):
            tune_runtime_weight(lambda loss: None, train, validation,
                                tolerance=0.5)


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "stats", "train", "score", "whatif",
                        "flight"):
            assert command in text

    def test_stats(self, repo_file, capsys):
        assert main(["stats", "--repo", str(repo_file)]) == 0
        out = capsys.readouterr().out
        assert "runtime_median" in out
        assert "recurring jobs" in out

    def test_train_and_score(self, repo_file, tmp_path, capsys):
        model_path = tmp_path / "model.pkl"
        code = main(
            [
                "train", "--repo", str(repo_file), "--model", "nn",
                "--epochs", "5", "--out", str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        with open(model_path, "rb") as handle:
            model = pickle.load(handle)
        assert model.num_parameters() > 0

        code = main(
            [
                "score", "--model", str(model_path), "--repo",
                str(repo_file), "--limit", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal" in out

    def test_score_answers_a_row_without_a_usable_curve(
        self, repo_file, tmp_path, capsys
    ):
        records = load_repository(repo_file).records()[:3]
        model_path = tmp_path / "model.pkl"
        with open(model_path, "wb") as handle:
            pickle.dump(MarkedIncreasing({records[1].job_id}), handle)
        argv = [
            "score", "--model", str(model_path), "--repo", str(repo_file),
            "--limit", "3",
        ]

        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        assert [line.split()[0] for line in lines] == [
            r.job_id for r in records
        ]
        assert "no usable curve" in lines[1]
        assert "no usable curve" not in lines[0] + lines[2]

        assert main([*argv, "--explain"]) == 0
        out = capsys.readouterr().out
        assert f"Job {records[1].job_id}: no usable curve" in out
        assert out.count("Recommended allocation") == 2

    def test_score_unknown_job(self, repo_file, tmp_path):
        model_path = tmp_path / "model.pkl"
        main(["train", "--repo", str(repo_file), "--model", "xgboost",
              "--out", str(model_path)])
        code = main(
            [
                "score", "--model", str(model_path), "--repo",
                str(repo_file), "--job", "nope",
            ]
        )
        assert code == 1

    def test_whatif(self, repo_file, capsys):
        code = main(
            ["whatif", "--repo", str(repo_file), "--budget", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean reduction" in out

    def test_flight(self, repo_file, capsys):
        code = main(
            ["flight", "--repo", str(repo_file), "--sample", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AREPAS error" in out

    def test_serve_answers_every_job(self, repo_file, tmp_path, capsys):
        records = load_repository(repo_file).records()[:4]
        model_path = tmp_path / "model.pkl"
        model_path.write_bytes(pickle.dumps(MarkedIncreasing(())))
        code = main(
            [
                "serve", "--model", str(model_path), "--repo",
                str(repo_file), "--limit", "4",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[2:2 + len(records)]]
        assert [row[0] for row in rows] == [r.job_id for r in records]
        assert all(row[1] in ("ok", "cached") for row in rows)
        (responses,) = [line for line in lines if "responses:" in line]
        counts = responses.split(":")[1].split(",")
        assert sum(int(part.split()[-1]) for part in counts) == len(records)

    def test_fleet_compares_every_regime(self, repo_file, tmp_path):
        out = tmp_path / "x.json"
        code = main(["fleet", "--repo", str(repo_file), "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["policies"]
        assert sorted(rows) == [
            "default", "fleet/water_filling", "peak", "tasq"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--policy", "knapsack"],
            ["fleet", "--repo", "hist.npz", "--deadline-slack", "0.1"],
            ["loadtest", "--tiny"],
            ["serve", "--model", "m.pkl", "--repo", "hist.npz",
             "--workers", "4"],
            ["serve", "--model", "m.pkl", "--repo", "hist.npz",
             "--batch", "8"],
        ],
        ids=[
            "replay-knapsack", "fleet-deadline-slack", "loadtest",
            "serve-workers", "serve-batch",
        ],
    )
    def test_removed_fleet_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestCleanExits:
    """Typed failures and unreadable inputs exit 2 with one stderr line."""

    def fails_cleanly(self, capsys, argv, message=""):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err

    def test_missing_repository(self, tmp_path, capsys):
        self.fails_cleanly(
            capsys, ["stats", "--repo", str(tmp_path / "missing.npz")]
        )

    def test_missing_model(self, tmp_path, capsys):
        self.fails_cleanly(
            capsys,
            [
                "score", "--model", str(tmp_path / "missing.pkl"),
                "--repo", str(tmp_path / "missing.npz"),
            ],
        )

    def test_truncated_model_pickle(self, tmp_path, capsys):
        payload = pickle.dumps(NNPCCModel())
        model_path = tmp_path / "model.pkl"
        model_path.write_bytes(payload[: len(payload) // 2])
        self.fails_cleanly(
            capsys,
            [
                "score", "--model", str(model_path),
                "--repo", str(tmp_path / "missing.npz"),
            ],
        )

    @pytest.mark.parametrize(
        "module, name",
        [("repro.ml.nn", "RemovedLayer"), ("repro.ml.removed", "Layer")],
        ids=["missing-class", "missing-module"],
    )
    def test_model_pickle_from_another_version(
        self, tmp_path, capsys, module, name
    ):
        # An object of a class the running code does not define: the
        # GLOBAL opcode names it, NEWOBJ builds it from an empty tuple.
        model_path = tmp_path / "model.pkl"
        model_path.write_bytes(f"c{module}\n{name}\n)\x81.".encode())
        self.fails_cleanly(
            capsys,
            [
                "score", "--model", str(model_path),
                "--repo", str(tmp_path / "missing.npz"),
            ],
            message="written by another version of repro",
        )

    def test_malformed_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("0.0\n12.5\nsoon\n")
        self.fails_cleanly(
            capsys,
            ["replay", "--arrival", "trace", "--trace-file", str(trace)],
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--arrival-mean", "-1", "inter-arrival gap"),
            ("--arrival-mean", "0", "inter-arrival gap"),
            ("--arrival-mean", "nan", "inter-arrival gap"),
            ("--slowdown-floor", "nan", "slowdown budget"),
        ],
        ids=["negative-gap", "zero-gap", "nan-gap", "nan-slowdown-floor"],
    )
    def test_bad_fleet_number(
        self, repo_file, tmp_path, capsys, flag, value, message
    ):
        model_path = tmp_path / "model.pkl"
        model_path.write_bytes(pickle.dumps(MarkedIncreasing(())))
        self.fails_cleanly(
            capsys,
            [
                "fleet", "--repo", str(repo_file),
                "--model", str(model_path), flag, value,
            ],
            message,
        )

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("score", "--threshold", "nan", "improvement threshold"),
            ("serve", "--deadline", "nan", "deadline"),
            ("fleet", "--max-slowdown", "-1", "slowdown budget"),
        ],
        ids=["score-nan-threshold", "serve-nan-deadline", "fleet-bad-slo"],
    )
    def test_bad_scoring_setting(
        self, repo_file, tmp_path, capsys, command, flag, value, message
    ):
        model_path = tmp_path / "model.pkl"
        model_path.write_bytes(pickle.dumps(MarkedIncreasing(())))
        self.fails_cleanly(
            capsys,
            [
                command, "--repo", str(repo_file),
                "--model", str(model_path), flag, value,
            ],
            message,
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-slowdown", "-1", "slowdown budget"),
            ("--threshold", "nan", "improvement threshold"),
        ],
        ids=["negative-slo", "nan-threshold"],
    )
    def test_fleet_checks_settings_before_any_fit(
        self, repo_file, capsys, monkeypatch, flag, value, message
    ):
        """Without ``--model`` a bad setting exits before the repository
        is loaded or the serving model fitted."""
        import repro.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("fleet worked before checking its settings")

        monkeypatch.setattr(cli, "load_repository", forbidden)
        monkeypatch.setattr(cli, "fit_serving_model", forbidden)
        self.fails_cleanly(
            capsys, ["fleet", "--repo", str(repo_file), flag, value], message
        )

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--duration", "duration"),
            ("--mean-gap", "inter-arrival gap"),
            ("--slo-slowdown", "slowdown SLOs"),
        ],
        ids=["duration", "mean-gap", "slo-slowdown"],
    )
    def test_nan_replay_number(self, capsys, flag, message):
        self.fails_cleanly(capsys, ["replay", flag, "nan"], message)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trace_timestamp(self, tmp_path, capsys, value):
        trace = tmp_path / "arrivals.txt"
        trace.write_text(f"0.0\n12.5\n{value}\n")
        self.fails_cleanly(
            capsys,
            [
                "replay", "--arrival", "trace", "--trace-file", str(trace),
                "--tiny",
            ],
            "not a timestamp",
        )

    def test_process_exit_code(self, tmp_path):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "stats",
                "--repo", str(tmp_path / "missing.npz"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("repro stats: ")
