import json
from dataclasses import replace

import numpy as np
import pytest

from vqreg.cli import main
from vqreg.data import load_csv


def least_squares_weights(values):
    centered = values - values.mean(axis=0)
    w, *_ = np.linalg.lstsq(centered[:, 1:], centered[:, 0], rcond=None)
    return w


def run(*argv):
    return main(list(argv))


def test_generate_writes_table(tmp_path):
    out = tmp_path / "t.csv"
    code = run("generate", "--rows", "200", "--weights", "1,2,3",
               "--noise", "0.0", "--seed", "7", "--out", str(out))
    assert code == 0
    table = load_csv(out)
    assert table.num_rows == 200 and table.num_features == 3
    np.testing.assert_allclose(least_squares_weights(table.values), [1, 2, 3], atol=1e-9)


def test_generate_noisy_close_to_truth(tmp_path):
    out = tmp_path / "t.csv"
    assert run("generate", "--rows", "400", "--weights", "1,2",
               "--noise", "0.1", "--seed", "1", "--out", str(out)) == 0
    w = least_squares_weights(load_csv(out).values)
    np.testing.assert_allclose(w, [1, 2], atol=0.1)


def test_generate_missing_weights_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("generate", "--rows", "10")
    assert exc.value.code == 2


def test_fit_matches_least_squares(tmp_path):
    table_path = tmp_path / "t.csv"
    run("generate", "--rows", "120", "--weights", "0.5,-1.5,2.0",
        "--seed", "3", "--out", str(table_path))
    out = tmp_path / "fit.json"
    code = run("fit", "--input", str(table_path), "--backend", "analytic",
               "--l1", "0", "--l2", "0", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    oracle = least_squares_weights(load_csv(table_path).values)
    np.testing.assert_allclose(payload["weights"], oracle, atol=1e-3)
    assert payload["config_echo"]["seed"] == 0
    assert payload["config_echo"]["command"] == "fit"


def test_ensemble_runs_are_byte_identical(tmp_path):
    table_path = tmp_path / "t.csv"
    run("generate", "--rows", "128", "--weights", "1,2",
        "--seed", "5", "--out", str(table_path))
    out = tmp_path / "ensemble.json"
    outs = []
    for _ in range(2):
        code = run("ensemble", "--input", str(table_path), "--batches", "8",
                   "--batch-size", "24", "--seed", "3", "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sin_demo_curve(tmp_path):
    out = tmp_path / "demo.json"
    curve = tmp_path / "curve.csv"
    code = run("sin-demo", "--alpha", "1.2e-7", "--out", str(out),
               "--curve-csv", str(curve))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_abs_curve_error"] < 1e-2
    rows = np.loadtxt(curve, delimiter=",", skiprows=1)
    assert rows.shape == (201, 3)
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-2


def test_resources_table(tmp_path):
    out = tmp_path / "res.json"
    csv_out = tmp_path / "res.csv"
    code = run("resources", "--rows-list", "16,64,256", "--features", "6",
               "--out", str(out), "--table-csv", str(csv_out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["estimates"]) == 6
    assert len(payload["shot_cost_ratios"]) == 3
    assert csv_out.exists()


def test_shadow_study_smoke(tmp_path):
    out = tmp_path / "shadow.json"
    code = run("shadow-study", "--col-qubits", "1", "--epsilon", "0.3",
               "--replications", "20", "--seed", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["study"][0]["coverage"] >= 0.9


@pytest.mark.parametrize("argv", [
    ("shadow-study", "--replications", "0"),
    ("shadow-study", "--replications", "1"),
    ("ensemble", "--input", "t.csv", "--batch-size", "4", "--jobs", "-3"),
    ("ensemble", "--input", "t.csv", "--batch-size", "4", "--jobs", "0"),
    ("noise-sweep", "--rows", "16", "--weights", "1", "--batch-sizes", "4",
     "--batches", "2", "--jobs", "-3"),
    ("ensemble", "--input", "t.csv", "--batch-size", "4", "--batches", "0"),
    ("ensemble", "--input", "t.csv", "--batch-size", "0"),
    ("ensemble", "--input", "t.csv", "--batch-size", "1"),
    ("shadow-study", "--snapshots", "3"),
    ("fit", "--input", "t.csv", "--backend", "shots", "--shots", "0"),
    ("generate", "--rows", "1", "--weights", "1"),
    ("noise-sweep", "--rows", "1"),
    ("noise-sweep", "--batches", "0"),
    ("sin-demo", "--records", "1"),
    ("sin-demo", "--max-power", "0"),
    ("sin-demo", "--max-power", "2"),
    ("resources", "--features", "0"),
    ("resources", "--bits", "0"),
    ("noise-sweep", "--batch-sizes", "0"),
    ("noise-sweep", "--batch-sizes", "10,1"),
    ("shadow-study", "--col-qubits", "0"),
    ("resources", "--rows-list", "16,0"),
    ("fit", "--input", "t.csv", "--backend", "shots", "--estimator", "one-hot",
     "--shots", "2"),
])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("generate", "--rows", "4", "--features", "5", "--weights", "1,2"),
    ("resources", "--seed", "3"),
])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("fit", "--input", "t.csv", "--l1", "nan"), "must be finite"),
    (("fit", "--input", "t.csv", "--l2", "nan"), "must be finite"),
    (("fit", "--input", "t.csv", "--l1", "inf"), "must be finite"),
    (("fit", "--input", "t.csv", "--l2=-1e-3"), "finite and at least 0"),
    (("fit", "--input", "t.csv", "--readout-delta", "nan"), "must be in [0, 0.5)"),
    (("fit", "--input", "t.csv", "--readout-delta", "0.5"), "must be in [0, 0.5)"),
    (("fit", "--input", "t.csv", "--readout-delta", "-0.1"), "must be in [0, 0.5)"),
    (("ensemble", "--input", "t.csv", "--batch-size", "4", "--l1", "nan"), "must be finite"),
    (("ensemble", "--input", "t.csv", "--batch-size", "4", "--l2=-inf"), "must be finite"),
    (("sin-demo", "--alpha", "nan"), "must be finite"),
    (("sin-demo", "--alpha", "-1"), "finite and at least 0"),
    (("generate", "--rows", "4", "--weights", "1", "--noise", "nan"), "must be finite"),
    (("generate", "--rows", "4", "--weights", "1", "--noise", "-0.1"), "finite and at least 0"),
    (("generate", "--rows", "4", "--weights", "1,nan"), "must be finite"),
    (("noise-sweep", "--weights", "inf"), "must be finite"),
    (("noise-sweep", "--noise-levels", "0,nan"), "must be finite"),
    (("noise-sweep", "--noise-levels", "0,-0.1"), "finite and at least 0"),
    (("shadow-study", "--epsilon", "nan"), "must be finite"),
    (("shadow-study", "--epsilon", "0"), "finite and greater than 0"),
    (("generate", "--rows", "4", "--weights", ","), "expected at least one value"),
    (("noise-sweep", "--batch-sizes", ","), "expected at least one value"),
    (("noise-sweep", "--noise-levels", ","), "expected at least one value"),
    (("shadow-study", "--col-qubits", ","), "expected at least one value"),
    (("resources", "--rows-list", ",", "--table-csv", "r.csv"), "expected at least one value"),
])
def test_non_finite_and_out_of_range_floats_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_noise_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.json"
    csv_out = tmp_path / "sweep.csv"
    code = run("noise-sweep", "--rows", "64", "--weights", "1,2",
               "--noise-levels", "0.0", "--batch-sizes", "16", "--batches", "6",
               "--seed", "1", "--out", str(out), "--table-csv", str(csv_out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["sweep"]) == 2
    assert csv_out.read_text().startswith("noise,batch_size")


def test_bad_csv_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1,oops\n2,3\n")
    out = tmp_path / "fit.json"
    assert run("fit", "--input", str(bad), "--out", str(out)) == 3
    assert not out.exists()


def test_missing_input_is_io_error(tmp_path):
    assert run("fit", "--input", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "o.json")) == 4


def test_ensemble_with_every_batch_failing_exits_cleanly(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("y,x1\n1,2\n2,2\n3,2\n4,2\n")  # x1 has no variance in any batch
    out = tmp_path / "ensemble.json"
    code = run("ensemble", "--input", str(flat), "--batches", "4", "--batch-size", "3",
               "--out", str(out))
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: every bootstrap batch failed to train")
    assert "batch 0" in err and "ZeroVarianceColumnError" in err
    assert not out.exists()


def test_fit_on_a_constant_column_is_a_data_error(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("y,x1\n1,2\n2,2\n3,2\n4,2\n")
    out = tmp_path / "fit.json"
    assert run("fit", "--input", str(flat), "--out", str(out)) == 3
    assert "column 1 has zero variance" in capsys.readouterr().err
    assert not out.exists()


def test_shots_fit_that_accepts_no_shot_is_not_converged(tmp_path, capsys):
    table = tmp_path / "t.csv"
    run("generate", "--rows", "16", "--weights", "0.5,-0.3",
        "--noise", "0.05", "--seed", "6", "--out", str(table))
    out = tmp_path / "fit.json"
    code = run("fit", "--input", str(table), "--backend", "shots", "--shots", "2000",
               "--seed", "3", "--out", str(out))
    assert code == 5
    assert "accepted no shot" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_warns_about_unconverged_batches(tmp_path, capsys, monkeypatch):
    import vqreg.cli as cli

    table = tmp_path / "t.csv"
    run("generate", "--rows", "64", "--weights", "1,2",
        "--noise", "0.1", "--seed", "5", "--out", str(table))
    out = tmp_path / "ensemble.json"
    args = ("ensemble", "--input", str(table), "--batches", "8", "--batch-size", "16",
            "--seed", "3", "--out", str(out))
    assert run(*args) == 0
    assert "warning" not in capsys.readouterr().err
    converged = out.read_bytes()

    train_config = cli._train_config
    monkeypatch.setattr(cli, "_train_config",
                        lambda a: replace(train_config(a), max_restarts=1))
    assert run(*args) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: 8 of 8 trained bootstrap batches did not converge")
    assert out.read_bytes() != converged  # one restart instead of several
