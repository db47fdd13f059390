"""End-to-end tests of the dsba-sim command line: exit codes, output files,
config-file loading, and flag overrides."""

import json

import pytest

import dsba.cli
from dsba.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from dsba.operators import OperatorError

FAST_INI = """\
[run]
family = ridge
variant = dsba
rounds = 40
seed = 3
metric_every = 20

[graph]
n_nodes = 4
topology = ring

[data]
synthetic = ridge
d = 10
n_samples = 24
nnz = 4
"""

LIBSVM_SMALL = """\
+1 1:0.5 3:1.5
-1 2:2.0
+1 1:-1.0 2:0.25 3:0.5
-1 3:1.0
+1 2:0.75
-1 1:0.4 3:-0.2
"""


@pytest.fixture()
def ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FAST_INI)
    return str(path)


def test_run_writes_metrics_and_manifest(tmp_path, ini):
    out = tmp_path / "out"
    code = main(["run", "--config", ini, "--out", str(out)])
    assert code == EXIT_OK
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == "round,effective_passes,subopt,score,c_max,wall_time"
    assert csv[1].startswith("0,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rounds"] == 40
    assert manifest["config"]["seed"] == 3
    assert manifest["engine"] in ("fast", "generic")
    assert manifest["alpha"] > 0


def test_run_flag_overrides_beat_config_file(tmp_path, ini):
    out = tmp_path / "out"
    code = main(["run", "--config", ini, "--out", str(out),
                 "--rounds", "10", "--seed", "7", "--variant", "dsa",
                 "--alpha", "0.005", "--comm", "sparse", "--tau-scale", "1.5"])
    assert code == EXIT_OK
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["rounds"] == 10
    assert cfg["seed"] == 7
    assert cfg["variant"] == "dsa"
    assert cfg["alpha"] == 0.005
    assert cfg["comm"] == "sparse"
    assert cfg["tau_scale"] == 1.5


def test_run_without_config_uses_defaults(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--out", str(out), "--rounds", "5", "--seed", "0"])
    assert code == EXIT_OK
    assert (out / "metrics.csv").exists()


def test_out_dir_env_fallback(tmp_path, ini, monkeypatch):
    monkeypatch.setenv("DSBA_OUT", str(tmp_path / "envout"))
    code = main(["run", "--config", ini, "--rounds", "5", "--seed", "0"])
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "metrics.csv").exists()


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_invalid_variant_is_config_error(tmp_path, ini):
    code = main(["run", "--config", ini, "--out", str(tmp_path),
                 "--variant", "sgd"])
    assert code == EXIT_CONFIG


def test_conflicting_data_sources_is_config_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(FAST_INI + "path = /tmp/somewhere.libsvm\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_compare_writes_long_format_csv(tmp_path, ini):
    out = tmp_path / "out"
    code = main(["compare", "--config", ini, "--out", str(out),
                 "--variants", "dsba,dsa", "--seed", "3", "--rounds", "20"])
    assert code == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "variant,round,effective_passes,subopt,score,c_max"
    variants = {line.split(",")[0] for line in lines[1:]}
    assert variants == {"dsba", "dsa"}
    manifests = json.loads((out / "manifest.json").read_text())
    assert set(manifests) == {"dsba", "dsa"}
    assert manifests["dsa"]["config"]["variant"] == "dsa"


def test_compare_requires_seed(tmp_path, ini, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", ini, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_validate_passes(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS" in out
    assert "FAIL" not in out


def test_prep_writes_shard_manifest(tmp_path, capsys):
    data = tmp_path / "tiny.libsvm"
    data.write_text(LIBSVM_SMALL)
    out = tmp_path / "out"
    code = main(["prep", str(data), "--nodes", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    shards = json.loads((out / "shards.json").read_text())
    assert shards["n_nodes"] == 2
    assert shards["Q"] == 6
    captured = capsys.readouterr().out
    assert "6 samples" in captured
    assert "shards.json" in captured


def test_prep_malformed_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("+1 3:0.5 1:0.2\n")  # indices out of order
    code = main(["prep", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_invalid_metric_every_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(FAST_INI.replace("metric_every = 20", "metric_every = 0"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "metric_every" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,named", [
    ("rounds = 40", "roundz = 40", "[run] roundz"),
    ("[graph]", "[bogus]\nx = 1\n\n[graph]", "[bogus]"),
], ids=["misspelt-key", "unknown-section"])
def test_unknown_ini_key_is_config_error(tmp_path, capsys, old, new, named):
    path = tmp_path / "bad.ini"
    path.write_text(FAST_INI.replace(old, new))
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_negative_alpha_flag_is_config_error(tmp_path, ini, capsys):
    code = main(["run", "--config", ini, "--out", str(tmp_path), "--alpha", "-1"])
    assert code == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [("d = 10", "d = abc"),
                                     ("[run]", "stray = 1\n[run]")],
                         ids=["non-numeric", "no-section-header"])
def test_malformed_ini_is_config_error(tmp_path, capsys, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(FAST_INI.replace(old, new))
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


def test_margin_of_one_is_config_error_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("a margin of 1 must be refused before the run starts")

    monkeypatch.setattr(dsba.cli, "run", no_run)
    path = tmp_path / "margin.ini"
    path.write_text(FAST_INI.replace("synthetic = ridge", "synthetic = classification\nmargin = 1")
                    .replace("family = ridge", "family = logistic"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "margin" in capsys.readouterr().err


@pytest.mark.parametrize("flags,ini", [
    (["--tau-scale", "nan"], ""),
    ([], "[run]\nstop_subopt = nan\n"),
    ([], "[data]\nnoise = nan\n"),
    ([], "[data]\nn_samples = 0\n"),
], ids=["tau-scale-nan", "stop-subopt-nan", "noise-nan", "no-samples"])
def test_bad_config_value_is_config_error_before_any_run(tmp_path, capsys, monkeypatch,
                                                         flags, ini):
    # each of these used to exit 3 from deep in set-up, or run to exit 0
    def no_run(config):
        raise AssertionError("a bad value must be refused before the run starts")

    monkeypatch.setattr(dsba.cli, "run", no_run)
    path = tmp_path / "bad.ini"
    path.write_text(ini)
    code = main(["run", "--config", str(path), *flags, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


def test_operator_error_during_run_is_runtime_error(tmp_path, ini, monkeypatch):
    def failing_run(config):
        raise OperatorError("dimension mismatch")

    monkeypatch.setattr(dsba.cli, "run", failing_run)
    code = main(["run", "--config", ini, "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME


def test_missing_data_path_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.libsvm"
    path = tmp_path / "run.ini"
    path.write_text(f"[data]\npath = {missing}\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err


def test_prep_non_utf8_file_is_config_error(tmp_path, capsys):
    data = tmp_path / "latin1.libsvm"
    data.write_bytes(LIBSVM_SMALL.encode() + b"+1 1:0.5 2:\xe91.0\n")
    code = main(["prep", str(data), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["+1 1:nan", "nan 1:1.0", "-1 2:1e400"],
                         ids=["nan-value", "nan-label", "overflow-value"])
def test_non_finite_data_is_config_error(tmp_path, capsys, line):
    data = tmp_path / "nonfinite.libsvm"
    data.write_text(LIBSVM_SMALL + line + "\n")
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\nrounds = 5\n\n[graph]\nn_nodes = 2\n\n[data]\npath = {data}\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "line 7: non-finite" in capsys.readouterr().err


def test_data_beyond_squared_norm_range_runs(tmp_path):
    # a row whose squared norm overflows and one whose squared norm
    # underflows are normalised, not zeroed or rejected
    data = tmp_path / "extreme.libsvm"
    data.write_text(LIBSVM_SMALL + "+1 1:1e200 2:1e200\n-1 1:1e-170\n")
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\nrounds = 5\n\n[graph]\nn_nodes = 2\n\n[data]\npath = {data}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("nodes", ["0", "-1"])
def test_prep_non_positive_node_count_is_config_error(tmp_path, capsys, nodes):
    data = tmp_path / "tiny.libsvm"
    data.write_text(LIBSVM_SMALL)
    code = main(["prep", str(data), "--nodes", nodes, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "node count" in capsys.readouterr().err
