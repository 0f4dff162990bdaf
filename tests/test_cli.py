"""End-to-end tests for the command-line interface.

Each test writes a YAML config into a tmp directory, invokes a subcommand
through click's test runner, and checks exit codes, output files, and the
merged manifest.  Error paths must exit 2 (bad config) or 3 (runtime
failure) with a readable message.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import fastslow
from fastslow.cli import _build_inline_model, main

SQRT2 = 1.4142135623730951


@pytest.fixture()
def runner():
    return CliRunner()


def base_config(out_dir, **overrides):
    cfg = {
        "model": {"benchmark": "ou"},
        "scales": {"epsilon": [0.1, 0.05], "kappa": 0.25},
        "grids": {"z_nodes": 201, "y_box": [[-2.0, 2.0]], "y_nodes": 21},
        "run": {"T": 0.5, "h": 0.01, "N": 1000, "seed": 7},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def text_of(result):
    return result.output + result.stderr


# ---------------------------------------------------------------------------
# happy paths and manifest plumbing
# ---------------------------------------------------------------------------


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"], catch_exceptions=False)
    assert result.exit_code == 0
    assert "fastslow" in result.output


def test_validate_report_and_manifest(runner, tmp_path):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, base_config(out))
    result = runner.invoke(main, ["validate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "validate: ok=True" in result.output

    lines = (out / "validate.csv").read_text().splitlines()
    assert lines[0] == "check,value"
    table = dict(line.split(",") for line in lines[1:])
    assert table["ok"] == "1"
    assert table["violations"] == "0"
    assert float(table["lambda_min"]) > 0.0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact"] == "fastslow"
    assert "version" in manifest
    record = manifest["outputs"]["validate.csv"]
    assert record["subcommand"] == "validate"
    assert record["seed"] == 7
    assert "wall_time_s" in record
    digest = hashlib.sha256((out / "validate.csv").read_bytes()).hexdigest()
    assert record["sha256"] == digest
    cfg_digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert record["config_sha256"] == cfg_digest


def test_validate_reports_violations_for_degenerate_model(runner, tmp_path):
    cfg = base_config(tmp_path / "out", model={"benchmark": "constant"})
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["validate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "violation [A_dissipativity]:" in result.output
    assert "validate: ok=False" in result.output


def test_simulate_writes_path_csv(runner, tmp_path):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, base_config(out))
    result = runner.invoke(main, ["simulate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "t,xi_1,Y_1,X_1"
    assert len(lines) == 1 + 51  # header + macro mesh nodes for T=0.5, h=0.01
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 0.0


def test_manifest_merges_across_subcommands(runner, tmp_path):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, base_config(out))
    assert runner.invoke(main, ["validate", str(cfg_path)]).exit_code == 0
    assert runner.invoke(main, ["simulate", str(cfg_path)]).exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"validate.csv", "path.csv"}
    assert manifest["outputs"]["validate.csv"]["subcommand"] == "validate"
    assert manifest["outputs"]["path.csv"]["subcommand"] == "simulate"


@pytest.mark.parametrize("bad", ["{not json", "[]", '{"artifact": "other", "outputs": {}}'])
def test_unreadable_manifest_fails_loudly(runner, tmp_path, bad):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(bad)
    cfg_path = write_cfg(tmp_path, base_config(out))
    result = runner.invoke(main, ["validate", str(cfg_path)])
    assert result.exit_code == 3
    assert "manifest.json" in text_of(result)
    # refused before any work: the manifest is untouched and no CSV is written
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_text() == bad
    # once moved aside, the next run starts a fresh manifest and leaves no
    # temporary file behind
    (out / "manifest.json").unlink()
    assert runner.invoke(main, ["validate", str(cfg_path)]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "validate.csv"]
    assert set(json.loads((out / "manifest.json").read_text())["outputs"]) == {"validate.csv"}


def test_density_empirical_histogram(runner, tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out, density={"method": "empirical", "T": 50.0, "burn_in": 5.0}
    )
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["density", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "density: mass=" in result.output
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0] == "z_1,pi"
    assert len(lines) == 1 + 201
    mass = float(result.output.split("mass=")[1].split(" ")[0])
    assert mass == pytest.approx(1.0, abs=0.05)


def test_poisson_solution_table(runner, tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["grids"]["z_nodes"] = 601
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["poisson", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    lines = (out / "poisson.csv").read_text().splitlines()
    assert lines[0] == "z_1,u_1,grad_u_1"
    record = json.loads((out / "manifest.json").read_text())["outputs"]["poisson.csv"]
    assert record["residual"] < 1e-6
    assert record["centering_defect"] < 1e-6
    # the linear benchmark solves to u = z: spot-check an interior row
    mid = lines[1 + 300].split(",")
    assert float(mid[1]) == pytest.approx(float(mid[0]), abs=1e-6)


def test_average_coefficient_table(runner, tmp_path):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, base_config(out))
    result = runner.invoke(main, ["average", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "margin=" in result.output
    lines = (out / "averaged.csv").read_text().splitlines()
    assert lines[0] == "y_1,Qbar_11,Abar_11,Fbar_1"
    assert len(lines) == 1 + 21
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(2.0, abs=1e-2)
    assert float(row[2]) == pytest.approx(1.0, abs=1e-9)


def test_rate_target_minimization(runner, tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, rate={"target": [1.0], "mesh_size": 32})
    cfg["run"]["T"] = 1.0
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["rate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "rate: J*=" in result.output
    lines = (out / "rate.csv").read_text().splitlines()
    assert lines[0] == "J_star,T,mesh_size"
    j_star, T, mesh = lines[1].split(",")
    assert float(j_star) == pytest.approx(0.25, abs=5e-3)
    assert float(T) == 1.0 and mesh == "32"
    path_lines = (out / "rate_path.csv").read_text().splitlines()
    assert path_lines[0] == "t,X_1,Y_1"
    assert len(path_lines) == 1 + 33


def test_mdp_check_worker_invariance(runner, tmp_path):
    cfg_a = base_config(tmp_path / "a", event={"threshold": 0.5})
    cfg_b = base_config(tmp_path / "b", event={"threshold": 0.5})
    path_a = write_cfg(tmp_path, cfg_a, "a.yaml")
    path_b = write_cfg(tmp_path, cfg_b, "b.yaml")
    res_a = runner.invoke(
        main, ["mdp-check", str(path_a), "--workers", "1"], catch_exceptions=False
    )
    res_b = runner.invoke(
        main, ["mdp-check", str(path_b), "--workers", "3"], catch_exceptions=False
    )
    assert res_a.exit_code == 0 and res_b.exit_code == 0
    bytes_a = (tmp_path / "a" / "mc.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "mc.csv").read_bytes()
    assert bytes_a == bytes_b
    header = bytes_a.decode().splitlines()[0]
    assert header == "epsilon,N,hits,p_hat,ci_lo,ci_hi,scaled_log,censored"
    assert "p_hat=" in res_a.output
    record = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert "failed_cells" not in record["outputs"]["mc.csv"]

    # rerunning the same config must reproduce the file byte for byte
    res_again = runner.invoke(
        main, ["mdp-check", str(path_a), "--workers", "2"], catch_exceptions=False
    )
    assert res_again.exit_code == 0
    assert (tmp_path / "a" / "mc.csv").read_bytes() == bytes_a


def test_inequalities_grid(runner, tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out, inequalities={"alpha": [1.0, 2.0], "B": [1.0], "n_steps": 400}
    )
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["inequalities", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    lines = (out / "inequalities.csv").read_text().splitlines()
    assert lines[0] == "alpha,B,N,frequency,bound,sigma,violated"
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        row = line.split(",")
        assert row[2] == "1000"
        assert row[6] == "0"
        assert float(row[3]) <= float(row[4]) + 3.0 * float(row[5])


def test_inline_model_matches_benchmark(runner, tmp_path):
    bench_cfg = base_config(tmp_path / "bench")
    inline_cfg = base_config(tmp_path / "inline")
    inline_cfg["model"] = {
        "inline": {
            "d": 1,
            "l": 1,
            "p": 1,
            "b": [[{"c": -1.0, "z": [1]}]],
            "sigma": [[[{"c": SQRT2}]]],
            "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1]}]],
            "G": [[[{"c": 1.0}]]],
            "H": [[{"c": 1.0, "z": [1]}]],
        }
    }
    path_bench = write_cfg(tmp_path, bench_cfg, "bench.yaml")
    path_inline = write_cfg(tmp_path, inline_cfg, "inline.yaml")
    assert runner.invoke(main, ["simulate", str(path_bench)]).exit_code == 0
    assert runner.invoke(main, ["simulate", str(path_inline)]).exit_code == 0
    ref = np.loadtxt(tmp_path / "bench" / "path.csv", delimiter=",", skiprows=1)
    got = np.loadtxt(tmp_path / "inline" / "path.csv", delimiter=",", skiprows=1)
    assert np.array_equal(ref, got)


# ---------------------------------------------------------------------------
# config errors (exit 2) and runtime errors (exit 3)
# ---------------------------------------------------------------------------


def test_unknown_key_rejected_by_name(runner, tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["run"]["sede"] = 3
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "config error: unknown key 'sede' in run" in text_of(result)


def test_missing_required_key(runner, tmp_path):
    cfg = base_config(tmp_path / "out")
    del cfg["run"]["T"]
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "missing key 'T' in run" in text_of(result)


def test_model_source_must_be_unique(runner, tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["model"] = {"benchmark": "ou", "inline": {}}
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "exactly one of 'benchmark' or 'inline'" in text_of(result)

    cfg["model"] = {}
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2


def test_unknown_benchmark_name(runner, tmp_path):
    cfg = base_config(tmp_path / "out", model={"benchmark": "pendulum"})
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "pendulum" in text_of(result)


def test_inadmissible_kappa(runner, tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["scales"]["kappa"] = 0.6
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "scale relation fails" in text_of(result)


def test_rate_event_target_conflict(runner, tmp_path):
    cfg = base_config(
        tmp_path / "out",
        rate={"target": [1.0], "event": {"threshold": 1.0}, "mesh_size": 16},
    )
    result = runner.invoke(main, ["rate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "exactly one of 'event' or 'target'" in text_of(result)

    cfg["rate"] = {"mesh_size": 16}
    result = runner.invoke(main, ["rate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2


def test_rate_negative_level_is_rejected(runner, tmp_path):
    cfg = base_config(
        tmp_path / "out", rate={"event": {"threshold": -0.5}, "mesh_size": 16}
    )
    result = runner.invoke(main, ["rate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "reached at zero cost" in text_of(result)


def test_unknown_sampler(runner, tmp_path):
    cfg = base_config(tmp_path / "out", inequalities={"sampler": "levy"})
    result = runner.invoke(main, ["inequalities", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "unknown sampler 'levy'" in text_of(result)


def test_delta_reports_grid_exit_as_runtime_error(runner, tmp_path):
    cfg = base_config(tmp_path / "out", delta={"eta": 0.5})
    cfg["grids"] = {"z_nodes": 201, "y_box": [[-0.05, 0.05]], "y_nodes": 5}
    result = runner.invoke(main, ["delta", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 3
    assert (
        "error: slow state left the tabulated y-grid; extend the tabulation range"
        in text_of(result)
    )


def _raising(exc):
    def callee(*args, **kwargs):
        raise exc

    return callee


def test_linalg_error_exits_3_with_one_line(runner, tmp_path, monkeypatch):
    # stands in for np.linalg.inv of a singular Qbar inside the minimizer
    monkeypatch.setattr(
        "fastslow.cli.minimize_endpoint",
        _raising(np.linalg.LinAlgError("Singular matrix")),
    )
    cfg = base_config(tmp_path / "out", rate={"target": [1.0], "mesh_size": 16})
    result = runner.invoke(main, ["rate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 3
    assert result.stderr == "error: LinAlgError: Singular matrix\n"


def test_memory_error_exits_3_with_one_line(runner, tmp_path, monkeypatch):
    # stands in for allocating the sample arrays of a huge N
    monkeypatch.setattr(
        "fastslow.cli.tail_probability",
        _raising(MemoryError("Unable to allocate 7.28 TiB")),
    )
    cfg = base_config(tmp_path / "out", event={"threshold": 0.5})
    result = runner.invoke(main, ["mdp-check", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 3
    assert result.stderr == "error: MemoryError: Unable to allocate 7.28 TiB\n"


def test_unexpected_exception_is_not_swallowed(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "fastslow.cli.validate_model", _raising(ValueError("a bug"))
    )
    result = runner.invoke(
        main, ["validate", str(write_cfg(tmp_path, base_config(tmp_path / "out")))]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)
    assert result.stderr == ""


# b(z) = 100 z is unstable: the micro steps grow z by 11x each, which stays
# finite over 50 steps at eps = 0.1 and overflows over 500 steps at eps = 0.01,
# so only the smaller epsilon fails
UNSTABLE_INLINE = {
    "d": 1,
    "l": 1,
    "p": 1,
    "b": [[{"c": 100.0, "z": [1]}]],
    "sigma": [[[{"c": SQRT2}]]],
    "F": [[{"c": -1.0, "y": [1]}]],
    "G": [[[{"c": 1.0}]]],
    "H": [[{"c": 1.0, "z": [1]}]],
}


def test_inline_overflow_fails_its_cell_without_a_warning():
    """The inline evaluator overflows on the unstable path; the cell fails
    with its typed reason and NumPy prints no RuntimeWarning."""
    spec = _build_inline_model(UNSTABLE_INLINE, 0.1, 0.25, 1.0)
    event = fastslow.Event("terminal_x", 0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cells = fastslow.tail_probability(spec, event, [0.1, 0.01], 1000, 0.01, 7)
    assert cells[0].error == "" and np.isfinite(cells[0].p_hat)
    assert cells[1].error.startswith("SimulationBlowupError: ")
    assert np.isnan(cells[1].p_hat)


def test_mdp_check_keeps_failed_cell_reasons(runner, tmp_path):
    """Only the eps = 0.01 cell of the unstable model fails, and its reason
    reaches the manifest."""
    out = tmp_path / "out"
    cfg = base_config(out, event={"threshold": 0.5})
    cfg["scales"]["epsilon"] = [0.1, 0.01]
    cfg["model"] = {"inline": UNSTABLE_INLINE}
    result = runner.invoke(
        main, ["mdp-check", str(write_cfg(tmp_path, cfg))], catch_exceptions=False
    )
    assert result.exit_code == 0
    rows = (out / "mc.csv").read_text().splitlines()
    assert rows[1].split(",")[3] != "nan"
    assert rows[2].split(",")[3:] == ["nan", "nan", "nan", "nan", "0"]
    record = json.loads((out / "manifest.json").read_text())["outputs"]["mc.csv"]
    (failed,) = record["failed_cells"]
    assert failed["epsilon"] == 0.01
    assert failed["error"].startswith("SimulationBlowupError: ")
    assert f"failed ({failed['error']})" in result.output


def test_cli_import_loads_only_sparse_and_linalg_from_scipy():
    """Starting any subcommand imports fastslow.cli; of SciPy that needs only
    the sparse cell solves (and the dense linalg they pull in)."""
    src = os.path.dirname(os.path.dirname(fastslow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, fastslow.cli\n"
        "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
        "    if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    loaded = set(done.stdout.split())
    assert "sparse" in loaded
    assert loaded <= {"linalg", "sparse", "version"}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@pytest.fixture()
def compared_run(runner, tmp_path):
    """One output dir holding a rate summary and an mc sweep plus manifest."""
    out = tmp_path / "out"
    cfg = base_config(
        out,
        rate={"event": {"threshold": 0.5}, "mesh_size": 16},
        event={"threshold": 0.5},
    )
    cfg["run"]["T"] = 1.0
    cfg_path = write_cfg(tmp_path, cfg)
    assert runner.invoke(main, ["rate", str(cfg_path)]).exit_code == 0
    assert runner.invoke(main, ["mdp-check", str(cfg_path), "--workers", "2"]).exit_code == 0
    return out


def test_compare_table(runner, compared_run):
    out = compared_run
    result = runner.invoke(
        main,
        ["compare", str(out / "rate.csv"), str(out / "mc.csv")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "epsilon,scaled_log,prediction,gap,censored"
    assert len(lines) == 1 + 2
    j_star = float((out / "rate.csv").read_text().splitlines()[1].split(",")[0])
    for line, eps in zip(lines[1:], (0.1, 0.05)):
        cols = line.split(",")
        assert float(cols[0]) == eps
        assert float(cols[2]) == -j_star
        assert float(cols[3]) == float(cols[1]) - (-j_star)
        assert cols[4] in {"0", "1"}


def test_compare_rejects_tampered_file(runner, compared_run):
    out = compared_run
    with open(out / "mc.csv", "a") as fh:
        fh.write("# edited\n")
    result = runner.invoke(main, ["compare", str(out / "rate.csv"), str(out / "mc.csv")])
    assert result.exit_code == 2
    assert "does not match its manifest hash" in text_of(result)


def test_compare_requires_manifest(runner, compared_run, tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "rate.csv").write_bytes((compared_run / "rate.csv").read_bytes())
    result = runner.invoke(
        main, ["compare", str(bare / "rate.csv"), str(compared_run / "mc.csv")]
    )
    assert result.exit_code == 2
    assert "no manifest next to" in text_of(result)


def test_compare_refuses_unusable_manifest(runner, compared_run):
    """A manifest that is corrupt, not an object or foreign is a runtime
    failure (exit 3), the same verdict the writing subcommands give."""
    out = compared_run
    args = ["compare", str(out / "rate.csv"), str(out / "mc.csv")]
    good = (out / "manifest.json").read_text()
    record = json.loads(good)
    record["outputs"]["rate.csv"] = "not a record"
    for bad in ["{not json", "[1, 2]", '{"artifact": "other", "outputs": {}}']:
        (out / "manifest.json").write_text(bad)
        result = runner.invoke(main, args)
        assert result.exit_code == 3, bad
        assert "manifest.json" in text_of(result)
    # a malformed record inside a good manifest fails its hash check
    (out / "manifest.json").write_text(json.dumps(record))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "does not match its manifest hash" in text_of(result)
    (out / "manifest.json").write_text(good)
    assert runner.invoke(main, args).exit_code == 0


def test_compare_checks_file_roles(runner, compared_run):
    out = compared_run
    result = runner.invoke(main, ["compare", str(out / "mc.csv"), str(out / "mc.csv")])
    assert result.exit_code == 2
    assert "not a rate summary file" in text_of(result)
