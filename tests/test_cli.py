"""End-to-end command invocations through main()."""

import json
from pathlib import Path

import pytest

from dragonbench.cli import main
from dragonbench.datagen import load_csv

TINY_TRAIN = {"epochs": 2, "patience": 0, "val_fraction": 0.0,
              "shared_widths": [8], "outcome_widths": [4]}


def write_config(tmp_path, **overrides):
    cfg = {
        "dgp": {"kind": "lin", "n": 100, "p": 3, "tau": 1.0},
        "replications": 2,
        "split": [0.7, 0.2, 0.1],
        "train": TINY_TRAIN,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_generate_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = main(["generate", "--dgp", '{"kind": "lin", "n": 40, "p": 2}',
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    data = load_csv(out)
    assert (data.n, data.p) == (40, 2)
    assert "40 rows" in capsys.readouterr().out


def test_generate_is_seed_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    spec = '{"kind": "lin", "n": 20, "p": 2}'
    main(["generate", "--dgp", spec, "--seed", "5", "--out", str(a)])
    main(["generate", "--dgp", spec, "--seed", "5", "--out", str(b)])
    main(["generate", "--dgp", spec, "--seed", "6", "--out", str(c)])
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_train_then_estimate(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    main(["generate", "--dgp", '{"kind": "lin", "n": 80, "p": 3}',
          "--seed", "1", "--out", str(data_path)])
    ckpt = tmp_path / "model.json"
    rc = main(["train", "--data", str(data_path), "--arch", "dragonnet",
               "--beta", "1.0", "--epochs", "2", "--seed", "0", "--out", str(ckpt)])
    assert rc == 0
    assert ckpt.exists()
    capsys.readouterr()
    rc = main(["estimate", "--checkpoint", str(ckpt), "--data", str(data_path),
               "--trim", "0.01,0.99"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(line) for line in lines]
    tags = {r["estimator_tag"] for r in reports}
    assert tags == {"Q", "AIPTW", "TMLE", "TREG"}
    for r in reports:
        assert "abs_err" in r  # generated data carries ground truth


def test_train_for_zero_epochs_reports_no_loss(tmp_path, capsys):
    data_path, ckpt = tmp_path / "d.csv", tmp_path / "m.json"
    main(["generate", "--dgp", '{"kind": "lin", "n": 40, "p": 2}',
          "--seed", "1", "--out", str(data_path)])
    capsys.readouterr()
    rc = main(["train", "--data", str(data_path), "--epochs", "0", "--out", str(ckpt)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "epochs run: 0"
    assert not any(line.startswith("final training loss") for line in out)
    assert out[-1] == f"checkpoint written to {ckpt}"


def test_estimate_subset_of_estimators(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    main(["generate", "--dgp", '{"kind": "lin", "n": 60, "p": 2}',
          "--seed", "2", "--out", str(data_path)])
    ckpt = tmp_path / "m.json"
    main(["train", "--data", str(data_path), "--epochs", "2", "--out", str(ckpt)])
    capsys.readouterr()
    main(["estimate", "--checkpoint", str(ckpt), "--data", str(data_path),
          "--estimators", "Q,TMLE"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert {json.loads(l)["estimator_tag"] for l in lines} == {"Q", "TMLE"}


def test_bench_single_method(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "report"
    rc = main(["bench", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mean_abs_err" in text
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "runs.json").exists()


def test_bench_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["bench", "--config", cfg, "--arch", "tarnet", "--treg",
               "--replications", "1", "--seed", "9"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "tarnet+treg" in text
    assert "TREG" in text


def test_bench_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, replications=1)
    rc = main(["bench", "--config", cfg, "--grid"])
    assert rc == 0
    text = capsys.readouterr().out
    for label in ("tarnet", "tarnet+treg", "dragonnet", "dragonnet+treg"):
        assert label in text
    assert "paired comparison vs tarnet" in text


@pytest.mark.parametrize("treg", [False, True])
def test_bench_grid_lists_treg_for_the_treg_methods(tmp_path, capsys, treg):
    # The grid sets treg per method, so the config file's treg does not matter.
    cfg = write_config(tmp_path, replications=1, treg=treg)
    out_dir = tmp_path / "report"
    rc = main(["bench", "--config", cfg, "--grid", "--estimators", "Q,TREG",
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert "paired comparison vs tarnet" in capsys.readouterr().out
    methods = json.loads((out_dir / "runs.json").read_text())["methods"]
    tags = {label: sorted(entry["runs"][0]["reports"]["all"]) for label, entry in methods.items()}
    assert tags == {"tarnet": ["Q"], "tarnet+treg": ["Q", "TREG"],
                    "dragonnet": ["Q"], "dragonnet+treg": ["Q", "TREG"]}


def test_sweep_subsample(tmp_path, capsys):
    cfg = write_config(tmp_path, dgp={"kind": "lin", "n": 150, "p": 3, "tau": 1.0},
                       replications=1)
    out_dir = tmp_path / "sw"
    rc = main(["sweep-subsample", "--config", cfg, "--rates", "0.5,1.0",
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "subsample_sweep.csv").exists()
    assert "rate 0.5" in capsys.readouterr().out


def test_sweep_subsample_prints_a_repeated_rate_once(tmp_path, capsys):
    cfg = write_config(tmp_path, dgp={"kind": "lin", "n": 150, "p": 3, "tau": 1.0},
                       replications=1)
    rc = main(["sweep-subsample", "--config", cfg, "--rates", "0.5,0.5"])
    assert rc == 0
    assert capsys.readouterr().out.count("rate 0.5:") == 1


def test_sweep_trim(tmp_path, capsys):
    cfg = write_config(tmp_path, replications=1)
    out_dir = tmp_path / "sw"
    rc = main(["sweep-trim", "--config", cfg, "--levels", "0.01:0.99,0.1:0.9",
               "--out-dir", str(out_dir)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[0.01,0.99]" in text and "[0.1,0.9]" in text
    assert f"sweep written to {out_dir / 'trim_sweep.csv'}" in text
    assert (out_dir / "trim_sweep.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--grid", "--arch", "nednet"], "--arch"),
    (["bench", "--grid", "--treg"], "--treg"),
    (["bench", "--grid", "--no-treg"], "--no-treg"),
    (["bench", "--baseline", "dragonnet"], "--baseline"),
    (["sweep-trim", "--trim", "0.3,0.7"], "--trim"),
], ids=["grid-arch", "grid-treg", "grid-no-treg", "baseline-without-grid", "sweep-trim-trim"])
def test_options_that_would_change_nothing_are_refused(tmp_path, capsys, argv, flag):
    # The grid sets architecture and treg per method, a baseline means
    # nothing without a grid, and sweep-trim's levels replace the trim.
    try:
        rc = main([*argv, "--config", write_config(tmp_path)])
    except SystemExit as exc:  # argparse: the option does not exist
        rc = exc.code
    assert rc == 2
    (line,) = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert flag in line


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    cfg = write_config(tmp_path, architecture="nednet", treg=True)
    rc = main(["bench", "--config", cfg])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_ingestion_errors_exit_with_code_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,t,y\n1.0,7,2.0\n")
    ckpt = tmp_path / "whatever.json"
    data_path = tmp_path / "ok.csv"
    main(["generate", "--dgp", '{"kind": "lin", "n": 30, "p": 1}',
          "--seed", "0", "--out", str(data_path)])
    main(["train", "--data", str(data_path), "--epochs", "1", "--out", str(ckpt)])
    capsys.readouterr()
    rc = main(["estimate", "--checkpoint", str(ckpt), "--data", str(bad)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_a_config_with_a_nan_weight_exits_with_code_two(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=float("nan"))
    assert '"alpha": NaN' in Path(cfg).read_text()
    rc = main(["bench", "--config", cfg])
    assert rc == 2
    assert "alpha must be finite" in capsys.readouterr().err


def test_config_typo_exits_with_code_two(tmp_path, capsys):
    cfg = write_config(tmp_path, train={**TINY_TRAIN, "epoch": 2})
    rc = main(["bench", "--config", cfg])
    assert rc == 2
    assert "epoch" in capsys.readouterr().err


@pytest.mark.parametrize("override", [{"replications": "2"}, {"trim": 0.5},
                                      {"train": {**TINY_TRAIN, "epochs": "10"}}, None])
def test_wrongly_typed_config_exits_with_code_two(tmp_path, capsys, override):
    cfg = write_config(tmp_path, **(override or {}))
    if override is None:  # not JSON: the file is cut off after its dgp entry
        text = Path(cfg).read_text()
        Path(cfg).write_text(text[: text.index("}") + 1])
    rc = main(["bench", "--config", cfg])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_generate_with_a_missing_dgp_key_exits_with_code_two(tmp_path, capsys):
    rc = main(["generate", "--dgp", '{"kind": "lin", "p": 2}', "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "needs the key 'n'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dgp",
    ['{"kind": "lin"', "[1]", '{"kind": "irrelevant", "n": -5, "p_confound": 2, "p_outcome_only": 1}',
     '{"kind": "lin", "n": 10, "p": 2, "tau": NaN}',
     '{"kind": "lin", "n": 10, "p": 2, "confounding_strength": Infinity}',
     '{"kind": "irrelevant", "n": 10, "p_confound": 2, "p_outcome_only": 1, "noise_sd": -1}',
     '{"kind": "ihdp_like", "noise_sd": -1}'],
    ids=["not-json", "not-an-object", "negative-n", "nan-tau", "infinite-confounding",
         "irrelevant-negative-noise", "ihdp-negative-noise"],
)
def test_generate_with_a_malformed_dgp_exits_with_code_two(tmp_path, capsys, dgp):
    rc = main(["generate", "--dgp", dgp, "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "d.csv").exists()


def test_a_csv_config_whose_paths_is_a_string_exits_with_code_two(tmp_path, capsys):
    cfg = write_config(tmp_path, architecture="oracle",
                       dgp={"kind": "csv", "paths": str(tmp_path / "B" / "d.csv")})
    rc = main(["bench", "--config", cfg])
    assert rc == 2
    assert "csv dgp needs 'paths'" in capsys.readouterr().err


@pytest.mark.parametrize("command, missing", [
    (["estimate", "--data", "{d}/nope.csv", "--checkpoint", "{d}/nope.json"], "nope.json"),
    (["train", "--data", "{d}/nope.csv", "--out", "{d}/m.json"], "nope.csv"),
    (["generate", "--dgp", '{{"kind": "lin", "n": 10, "p": 2}}', "--out", "{d}/no-dir/x.csv"],
     "x.csv"),
], ids=["estimate", "train", "generate"])
def test_a_file_that_cannot_be_opened_exits_with_code_two(tmp_path, capsys, command, missing):
    rc = main([arg.format(d=tmp_path) for arg in command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err and missing in err


@pytest.mark.parametrize("width", [1, 5])
def test_estimate_on_a_csv_of_the_wrong_width_exits_with_code_two(tmp_path, capsys, width):
    ckpt, train_csv, other_csv = tmp_path / "m.json", tmp_path / "d.csv", tmp_path / "o.csv"
    main(["generate", "--dgp", '{"kind": "lin", "n": 40, "p": 3}',
          "--seed", "0", "--out", str(train_csv)])
    main(["train", "--data", str(train_csv), "--epochs", "1", "--out", str(ckpt)])
    main(["generate", "--dgp", json.dumps({"kind": "lin", "n": 40, "p": width}),
          "--seed", "1", "--out", str(other_csv)])
    capsys.readouterr()
    rc = main(["estimate", "--checkpoint", str(ckpt), "--data", str(other_csv)])
    assert rc == 2
    assert f"x has {width} features, model expects 3" in capsys.readouterr().err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.fixture
def fitted(tmp_path):
    """A generated CSV and the path of a one-epoch checkpoint fitted on it."""
    data_path, ckpt = tmp_path / "d.csv", tmp_path / "m.json"
    main(["generate", "--dgp", '{"kind": "lin", "n": 60, "p": 2}',
          "--seed", "1", "--out", str(data_path)])
    main(["train", "--data", str(data_path), "--epochs", "1", "--out", str(ckpt)])
    return data_path, ckpt


def error_line(capsys) -> str:
    """The one line a failed command writes to stderr."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_estimate_that_trims_every_row_exits_with_code_two(fitted, capsys):
    data_path, ckpt = fitted
    capsys.readouterr()
    rc = main(["estimate", "--checkpoint", str(ckpt), "--data", str(data_path),
               "--trim", "0.49,0.491"])
    assert rc == 2
    assert "removed every row" in error_line(capsys)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_estimate_with_non_finite_predictions_exits_with_code_two(fitted, capsys):
    data_path, ckpt = fitted
    payload = json.loads(ckpt.read_text())
    payload["stacks"]["head0"][-1]["weights"] = [[1e308] * 100]  # finite, but q0 overflows
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["estimate", "--checkpoint", str(ckpt), "--data", str(data_path)])
    assert rc == 2
    assert "q0 contains non-finite values" in error_line(capsys)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_exits_with_code_two(fitted, capsys):
    data_path, ckpt = fitted
    capsys.readouterr()
    rc = main(["train", "--data", str(data_path), "--alpha", "1e200", "--epochs", "3",
               "--out", str(ckpt)])
    assert rc == 2
    assert "training diverged at epoch 0" in error_line(capsys)


def test_generate_with_a_negative_seed_exits_with_code_two(tmp_path, capsys):
    rc = main(["generate", "--dgp", '{"kind": "lin", "n": 20, "p": 2}', "--seed", "-1",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "--seed must be >= 0" in error_line(capsys)


def test_sweep_trim_with_a_malformed_level_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-trim", "--config", write_config(tmp_path), "--levels", "0.1:0.9,0.1:0.2:0.3"])
    assert exc.value.code == 2
    assert "argument --levels: expected 'low:high', got '0.1:0.2:0.3'" in capsys.readouterr().err


def test_sweep_subsample_with_a_non_numeric_rate_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-subsample", "--config", write_config(tmp_path), "--rates", "0.5,abc"])
    assert exc.value.code == 2
    assert "argument --rates: invalid _parse_rates value: '0.5,abc'" in capsys.readouterr().err

