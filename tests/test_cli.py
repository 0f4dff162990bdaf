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
from fastslow.mcengine import DEFAULT_BATCH

SQRT2 = 1.4142135623730951

# the ou benchmark written as an inline polynomial model
OU_INLINE = {
    "d": 1,
    "l": 1,
    "p": 1,
    "b": [[{"c": -1.0, "z": [1]}]],
    "sigma": [[[{"c": SQRT2}]]],
    "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1]}]],
    "G": [[[{"c": 1.0}]]],
    "H": [[{"c": 1.0, "z": [1]}]],
}

# b(z) = z - z^3: a nonlinear inline model, so its outputs pin the compiler
DOUBLE_WELL_INLINE = dict(OU_INLINE, b=[[{"c": 1.0, "z": [1]}, {"c": -1.0, "z": [3]}]])


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


def test_validate_checks_centering_on_the_config_z_grid(runner, tmp_path, monkeypatch):
    """validate builds its density grid from grids.z_nodes (201 here), not
    from a node count of its own."""
    from tests.test_poisson import _counting_densities

    shapes = _counting_densities(monkeypatch)
    cfg_path = write_cfg(tmp_path, base_config(tmp_path / "out"))
    result = runner.invoke(main, ["validate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert set(shapes) == {(201,)}


@pytest.mark.parametrize("workload", ["cell-2d", "corrector-sweep"])
def test_manifest_counts_cell_solves_and_densities(runner, tmp_path, workload):
    """average, rate and delta record the family's distinct cell solves and
    densities, poisson its one node step's, and validate the densities of its
    centering check; on the workload models H and the fast flow ignore y, so
    one of each serves all 17 slow nodes and all 5 y samples."""
    from tests.test_poisson import _FAMILY_CONFIGS

    out = tmp_path / "out"
    cfg = dict(
        _FAMILY_CONFIGS[workload],
        scales={"epsilon": [0.1], "kappa": 0.25},
        run={"T": 0.2, "h": 0.01, "N": 64, "seed": 1},
        rate={"event": {"threshold": 0.5}, "mesh_size": 16},
        delta={"eta": 0.5},
        output_dir=str(out),
    )
    cfg_path = write_cfg(tmp_path, cfg)
    for subcommand in ("average", "rate", "delta", "validate", "poisson"):
        result = runner.invoke(main, [subcommand, str(cfg_path)], catch_exceptions=False)
        assert result.exit_code == 0, text_of(result)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    for name in ("averaged.csv", "rate.csv", "rate_path.csv", "delta.csv", "poisson.csv"):
        assert (outputs[name]["cell_solves"], outputs[name]["densities"]) == (1, 1)
    assert "cell_solves" not in outputs["validate.csv"]
    assert outputs["validate.csv"]["densities"] == 1


def test_validate_reports_violations_for_degenerate_model(runner, tmp_path):
    cfg = base_config(tmp_path / "out", model={"benchmark": "constant"})
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["validate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    assert "violation [A_dissipativity]:" in result.output
    assert "validate: ok=False" in result.output


def test_simulate_writes_path_csv(runner, tmp_path, record_path):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, base_config(out))
    result = runner.invoke(main, ["simulate", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "t,xi_1,Y_1,X_1"
    assert len(lines) == 1 + 51  # header + macro mesh nodes for T=0.5, h=0.01
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 0.0
    # the file round-trips the recorded path exactly
    sample = record_path(
        fastslow.get_benchmark("ou", epsilon=0.1, kappa=0.25), 0.5, 0.01, 7
    )
    data = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1)
    expected = np.hstack([sample.times[:, None], sample.xi, sample.Y, sample.X])
    np.testing.assert_array_equal(data, expected)


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
    assert float(row[0]) == -2.0  # the first y node
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
    assert float(path_lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)


def test_delta_sweep_table(runner, tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, delta={"eta": 0.25})
    cfg["run"]["N"] = 200
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["delta", str(cfg_path)], catch_exceptions=False)
    assert result.exit_code == 0
    lines = (out / "delta.csv").read_text().splitlines()
    assert lines[0] == "epsilon,statistic,N,hits,p_hat,scaled_log,censored"
    rows = [line.split(",") for line in lines[1:]]
    # four statistics per epsilon, epsilon-major
    assert [(r[0], r[1]) for r in rows] == [
        (eps, name)
        for eps in ("0.1", "0.05")
        for name in ("delta", "boundary", "drift", "slow_noise")
    ]
    assert all(r[2] == "200" for r in rows)
    record = json.loads((out / "manifest.json").read_text())["outputs"]["delta.csv"]
    assert "failed_cells" not in record


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
    header, first = bytes_a.decode().splitlines()[:2]
    assert header == "epsilon,N,hits,p_hat,ci_lo,ci_hi,scaled_log,censored"
    assert first.startswith("0.1,1000,")
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


def test_inequalities_bytes_do_not_depend_on_workers(run_subcommand):
    """N spans two whole-block batches, so --workers 2 runs them on the pool."""
    ineq = {"alpha": [0.5, 1.0], "B": [0.5, 1.0], "n_steps": 50}
    N = DEFAULT_BATCH + 700
    csvs = [
        run_subcommand(
            "inequalities", T=1.0, seed=3, N=N, out=f"w{w}", inequalities=ineq,
            args=("--workers", str(w)),
        ) / "inequalities.csv"
        for w in (1, 2)
    ]
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


def test_inline_model_matches_benchmark(runner, tmp_path):
    bench_cfg = base_config(tmp_path / "bench")
    inline_cfg = base_config(tmp_path / "inline")
    inline_cfg["model"] = {"inline": OU_INLINE}
    path_bench = write_cfg(tmp_path, bench_cfg, "bench.yaml")
    path_inline = write_cfg(tmp_path, inline_cfg, "inline.yaml")
    assert runner.invoke(main, ["simulate", str(path_bench)]).exit_code == 0
    assert runner.invoke(main, ["simulate", str(path_inline)]).exit_code == 0
    ref = np.loadtxt(tmp_path / "bench" / "path.csv", delimiter=",", skiprows=1)
    got = np.loadtxt(tmp_path / "inline" / "path.csv", delimiter=",", skiprows=1)
    assert np.array_equal(ref, got)


# One small ou config that every writing subcommand accepts; it runs in well
# under a second.
PINNED_CONFIG = {
    "scales": {"epsilon": [0.1, 0.05], "kappa": 0.25},
    "grids": {"z_nodes": 201, "y_box": [[-2.0, 2.0]], "y_nodes": 9},
    "run": {"T": 0.2, "h": 0.01, "N": 1000, "seed": 7},
    "rate": {"event": {"threshold": 0.5}, "mesh_size": 16},
    "event": {"threshold": 0.3},
    "inequalities": {"alpha": [0.5, 1.0], "B": [0.5, 1.0], "n_steps": 50},
    "delta": {"eta": 0.3},
}

# sha256 of each CSV, recorded from the per-module writers the CLI's one
# writer replaced.  These are the exact "same outputs" oracle: a declared
# re-baseline of the noise layout must update them in the open.
PINNED_SHA256 = {
    "ou/averaged.csv": "fe725436ba1ffcf3a73609f0fff9fed25eed853a4c303dac88dcfdf58070bc4c",
    # delta, inequalities, mc and path draw from the lane-block noise
    # streams; no other entry draws noise
    "ou/delta.csv": "b2f18c4d31e09c9a7134f580743877381ac8c5371e6bcef5ad98ae5d04a5261e",
    "ou/density.csv": "05c8ede5633a0622338920be90001bf04a2fd45fdd4f05cfc99a33393d9efd39",
    "ou/inequalities.csv": "37f92ffdc41b628e5d9005b7e924ad3f4326317c4ffe54e9ae1a1634cc4758b6",
    "ou/mc.csv": "ba8d8e9a9cb1de8877cd2227ad0470681c9899919efd10efdc408b6761776559",
    "ou/path.csv": "9994ae7d1e7c645d4b91187bce322ada9062dc40f484e31f45c997341b11e4ec",
    "ou/poisson.csv": "06b0627955f8469bc4f81ef63710e32617624bd61c6fe2feb847e2ca7f76726a",
    "ou/rate.csv": "235502d6e1c8993e9486f6489c7bd1a1bf56b5107c243cfb1194344b06998148",
    "ou/rate_path.csv": "33dee9386d148f55e3da1a60c3f30fdf0a8218ad78801ce98fece97fde6a5a9b",
    # validate checks centering on the config's 201-node z-grid
    "ou/validate.csv": "c1043dac7d610d098d0e064b860815b52f939a8bdb6d57f60d86c1996d4c3f3f",
    "double-well/averaged.csv": "8372bba32249d0b83ae39b619cad80f65ecfcad43cc61da41bfb74fc250cb4c5",
    "double-well/rate.csv": "c8ecc9900edbe250eb7fb0e009fe2717bea5aa1ed2dfebdb71dc1acabcb3ddae",
    "double-well/rate_path.csv": "de45922727ef3c4c78b5f307234588498efd7ea69baa2724f5903788d39d78ed",
}


# sha256 of density.csv from the empirical route, which runs the frozen flow
# as path 0 of the kernel, on PINNED_CONFIG with a short trajectory.
PINNED_EMPIRICAL_DENSITY = {"method": "empirical", "T": 5.0, "burn_in": 1.0}
PINNED_EMPIRICAL_SHA256 = "32ad6828779aa0258d9df52cf8e55e6d42c29f8615033dfcfc8b8c13815da841"


def test_empirical_density_bytes_are_pinned(runner, tmp_path):
    out = tmp_path / "out"
    cfg = dict(
        PINNED_CONFIG, model={"benchmark": "ou"}, output_dir=str(out),
        density=PINNED_EMPIRICAL_DENSITY,
    )
    result = runner.invoke(main, ["density", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 0, text_of(result)
    got = hashlib.sha256((out / "density.csv").read_bytes()).hexdigest()
    assert got == PINNED_EMPIRICAL_SHA256


# sha256 of the cell-problem CSVs on the 2-d cell-2d config and of the
# nonlinear double-well poisson.csv, recorded while validate and poisson still
# built their densities on their own, before they shared the family's node step.
PINNED_CELL_SHA256 = {
    "cell-2d/poisson.csv": "86d85ddaa4ac04ec8d9684f48e8e0479348019d1372641942e55a77728b165c9",
    "cell-2d/validate.csv": "41834cd77ae1e6a9d2bd84754d84f90dc2ef4ea53aa71cb971076e12cd2ae4fb",
    "double-well/poisson.csv": "2bc1e67514af748d86d6246153b8676d4f5449eba5499216f46bbff1defc4061",
}


def test_cell_problem_bytes_are_pinned(runner, tmp_path):
    from tests.test_poisson import _FAMILY_CONFIGS

    runs = (
        ("cell-2d", _FAMILY_CONFIGS["cell-2d"], ("validate", "poisson")),
        ("double-well", {"model": {"inline": DOUBLE_WELL_INLINE}}, ("poisson",)),
    )
    got = {}
    for tag, overrides, subcommands in runs:
        out = tmp_path / tag
        cfg = dict(PINNED_CONFIG, **overrides, output_dir=str(out))
        cfg_path = write_cfg(tmp_path, cfg, f"{tag}.yaml")
        for subcommand in subcommands:
            result = runner.invoke(main, [subcommand, str(cfg_path)], catch_exceptions=False)
            assert result.exit_code == 0, text_of(result)
        for csv in sorted(out.glob("*.csv")):
            got[f"{tag}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    assert got == PINNED_CELL_SHA256


def test_csv_bytes_are_pinned(runner, tmp_path):
    runs = (
        ("ou", {"benchmark": "ou"}, (
            "validate", "simulate", "density", "poisson", "average", "delta",
            "rate", "mdp-check", "inequalities",
        )),
        ("double-well", {"inline": DOUBLE_WELL_INLINE}, ("average", "rate")),
    )
    got = {}
    for tag, model, subcommands in runs:
        out = tmp_path / tag
        cfg = dict(PINNED_CONFIG, model=model, output_dir=str(out))
        cfg_path = write_cfg(tmp_path, cfg, f"{tag}.yaml")
        for subcommand in subcommands:
            result = runner.invoke(main, [subcommand, str(cfg_path)], catch_exceptions=False)
            assert result.exit_code == 0, text_of(result)
        for csv in sorted(out.glob("*.csv")):
            got[f"{tag}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    assert got == PINNED_SHA256


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


@pytest.mark.parametrize(
    "subcommand, block, message",
    [
        ("density", {"density": {"bins": 33}}, "unknown key 'bins' in density"),
        (
            "density",
            {"density": {"method": "closed_form", "burn_in": 99.0}},
            "key 'burn_in' in density is read only by method 'empirical'",
        ),
        (
            "density",
            {"density": {"T": 5.0}},
            "key 'T' in density is read only by method 'empirical'",
        ),
        (
            "inequalities",
            {"inequalities": {"sampler": "brownian", "qv_cap": 2.0}},
            "key 'qv_cap' in inequalities is read only by sampler 'stopped'",
        ),
    ],
    ids=["density-bins", "density-burn_in", "density-T", "inequalities-qv_cap"],
)
def test_keys_no_code_reads_are_rejected(runner, tmp_path, subcommand, block, message):
    """A key that the chosen method or sampler would ignore is an error that
    names it, raised before the output directory exists."""
    out = tmp_path / "out"
    cfg = base_config(out, **block)
    result = runner.invoke(main, [subcommand, str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert f"config error: {message}" in text_of(result)
    assert not out.exists()


def test_mdp_check_rejects_sup_delta_before_any_output(runner, tmp_path):
    """The corrector remainder is the delta subcommand's statistic, not an
    mdp-check event: the functional is refused at parse time, with the
    choices named, before the output directory exists."""
    out = tmp_path / "out"
    cfg = base_config(out, event={"functional": "sup_delta", "threshold": 0.2})
    result = runner.invoke(main, ["mdp-check", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "unknown event functional 'sup_delta'" in text_of(result)
    assert "terminal_x" in text_of(result) and "sup_x" in text_of(result)
    assert not out.exists()


def test_model_source_must_be_unique(runner, tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["model"] = {"benchmark": "ou", "inline": {}}
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "exactly one of 'benchmark' or 'inline'" in text_of(result)

    cfg["model"] = {}
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2


def _inline_with(key, value):
    return {"inline": dict(OU_INLINE, **{key: value})}


@pytest.mark.parametrize(
    "model, message",
    [
        (_inline_with("b", []), "model.inline.b must list 1 component entries"),
        (
            _inline_with("sigma", [[[{"c": SQRT2}]], [[{"c": SQRT2}]]]),
            "model.inline.sigma must list 1 rows",
        ),
        (
            _inline_with("G", [[[{"c": 1.0}], [{"c": 1.0}]]]),
            "model.inline.G[0] must list 1 column entries",
        ),
        (
            _inline_with("H", [[{"c": 1.0, "z": [1, 0]}]]),
            "model.inline.H[0][0]: power lists must have lengths d=1 and l=1",
        ),
        (
            _inline_with("b", [[{"c": -1.0, "z": [-1]}]]),
            "model.inline.b[0][0]: negative powers are not allowed",
        ),
        (
            _inline_with("F", [[{"c": -1.0, "w": [1]}]]),
            "unknown key 'w' in model.inline.F[0][0]",
        ),
    ],
    ids=["vector-count", "matrix-rows", "matrix-columns", "power-length",
         "negative-power", "unknown-term-key"],
)
def test_inline_schema_errors_name_their_path(runner, tmp_path, model, message):
    cfg = base_config(tmp_path / "out", model=model)
    result = runner.invoke(main, ["validate", str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert f"config error: {message}" in text_of(result)


@pytest.mark.parametrize(
    "subcommand, section, key, value, message",
    [
        ("mdp-check", "run", "h", 0.0, "h=0.0"),
        ("mdp-check", "run", "h", float("nan"), "h=nan"),
        ("mdp-check", "run", "T", float("inf"), "T=inf"),
        ("inequalities", "run", "T", float("nan"), "T=nan"),
        ("delta", "run", "N", 0, "N=0"),
        ("delta", "run", "T", "long", "run.T must be a number, got 'long'"),
        ("delta", "grids", "z_nodes", 2, "got 2 and 21"),
        ("delta", "grids", "y_nodes", 2, "got 201 and 2"),
        ("delta", "grids", "z_nodes", float("nan"), "grids.z_nodes must be a number, got nan"),
    ],
    ids=["h-zero", "h-nan", "T-inf", "T-nan", "N-zero", "T-text", "z_nodes-2", "y_nodes-2",
         "z_nodes-nan"],
)
def test_bad_run_and_grid_values_exit_2_with_one_line(
    runner, tmp_path, subcommand, section, key, value, message
):
    """Run values outside finite T > 0, finite h > 0, N >= 1 and grids with
    fewer than three nodes per axis are config errors, printed as one line
    before the output directory exists."""
    out = tmp_path / "out"
    cfg = base_config(out, event={"threshold": 0.5}, inequalities={}, delta={"eta": 0.5})
    cfg[section][key] = value
    result = runner.invoke(main, [subcommand, str(write_cfg(tmp_path, cfg))])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr
    assert not out.exists()


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


# ou's fast flow with the escaping slow drift F = y^3 + 3: every path leaves
# the tabulated y-box [-2, 2] before T = 0.5
ESCAPING_INLINE = dict(OU_INLINE, F=[[{"c": 1.0, "y": [3]}, {"c": 3.0}]])


def test_delta_keeps_failed_cell_reasons(runner, tmp_path):
    """A slow state leaving the y-grid fails its epsilon cell, not the run:
    delta exits 0, writes the cell's four statistics as NaN rows and keeps
    each epsilon's reason in the manifest."""
    out = tmp_path / "out"
    cfg = base_config(out, delta={"eta": 0.5})
    cfg["model"] = {"inline": ESCAPING_INLINE}
    result = runner.invoke(
        main, ["delta", str(write_cfg(tmp_path, cfg))], catch_exceptions=False
    )
    assert result.exit_code == 0
    rows = [line.split(",") for line in (out / "delta.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (eps, name)
        for eps in ("0.1", "0.05")
        for name in ("delta", "boundary", "drift", "slow_noise")
    ]
    assert all(r[2:] == ["1000", "0", "nan", "nan", "0"] for r in rows)
    record = json.loads((out / "manifest.json").read_text())["outputs"]["delta.csv"]
    reason = "GridDomainError: slow state left the tabulated y-grid; extend the tabulation range"
    assert record["failed_cells"] == [
        {"epsilon": 0.1, "error": reason}, {"epsilon": 0.05, "error": reason}
    ]
    assert f"failed ({reason})" in result.output


# the 2-d inline model of the cell-2d benchmark: b = -z, sigma = sqrt2 I
OU_2D_INLINE = {
    "d": 2,
    "l": 1,
    "p": 1,
    "b": [[{"c": -1.0, "z": [1, 0]}], [{"c": -1.0, "z": [0, 1]}]],
    "sigma": [[[{"c": SQRT2}], []], [[], [{"c": SQRT2}]]],
    "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1, 0]}]],
    "G": [[[{"c": 1.0}]]],
    "H": [[{"c": 1.0, "z": [1, 0]}, {"c": 1.0, "z": [1, 1]}]],
}

# runs `fastslow <name> <config>` for each (name, config) pair of argv in one
# interpreter, then prints the SciPy modules that interpreter has loaded
_RUN_THEN_LIST_SCIPY = (
    "import sys\n"
    "from fastslow.cli import main\n"
    "for name, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
    "    main(args=[name, path], standalone_mode=False)\n"
    "print('scipy:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def fresh_python(code, *argv):
    """The last line that code prints, run with argv in a fresh interpreter
    that imports this checkout's fastslow."""
    src = os.path.dirname(os.path.dirname(fastslow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *(str(a) for a in argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def scipy_loaded_after(*runs):
    """Names of the SciPy modules loaded by importing the CLI and running
    each (subcommand, config) pair, all in one fresh interpreter."""
    return fresh_python(_RUN_THEN_LIST_SCIPY, *(a for run in runs for a in run)).split()[1:]


def test_cli_import_loads_no_scipy():
    """Every subcommand starts by importing fastslow.cli; that import loads
    no SciPy module."""
    assert scipy_loaded_after() == []


def test_one_d_monte_carlo_runs_load_no_scipy(tmp_path):
    """In d = 1 the density and cell problem are closed forms, so the tail
    sweep, the martingale grid and the corrector sweep never load SciPy."""
    cfg = base_config(
        tmp_path / "out",
        event={"threshold": 0.5},
        inequalities={"alpha": [1.0], "B": [1.0], "n_steps": 100},
        delta={"eta": 0.25},
    )
    cfg_path = write_cfg(tmp_path, cfg)
    runs = [(name, cfg_path) for name in ("mdp-check", "inequalities", "delta")]
    assert scipy_loaded_after(*runs) == []
    for name in ("mc.csv", "inequalities.csv", "delta.csv"):
        assert (tmp_path / "out" / name).is_file()


def test_two_d_rate_loads_only_sparse_from_scipy(tmp_path):
    """A d = 2 run factors sparse operators: of SciPy it loads the sparse
    stack (and the dense linalg it pulls in), never scipy.stats and the like."""
    cfg = {
        "model": {"inline": OU_2D_INLINE},
        "scales": {"epsilon": [1e-2], "kappa": 0.25},
        "grids": {"z_box": [[-5.0, 5.0], [-5.0, 5.0]], "z_nodes": 31, "y_nodes": 5},
        "run": {"T": 1.0, "h": 1e-2, "seed": 3},
        "output_dir": str(tmp_path / "out"),
        "rate": {"event": {"threshold": 1.0}, "mesh_size": 16},
    }
    loaded = scipy_loaded_after(("rate", write_cfg(tmp_path, cfg)))
    top = {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")}
    assert "sparse" in top
    assert top <= {"linalg", "sparse", "version"}
    assert (tmp_path / "out" / "rate.csv").is_file()


def test_experiment_freezes_the_import_heap(tmp_path):
    """Building an Experiment ends with gc.freeze(), so neither the run's
    collections nor interpreter teardown walk the modules it imported."""
    cfg = {
        "model": {"inline": OU_2D_INLINE},
        "grids": {"z_box": [[-5.0, 5.0], [-5.0, 5.0]], "z_nodes": 31, "y_nodes": 5},
        "run": {"T": 1.0, "h": 1e-2, "seed": 3},
        "output_dir": str(tmp_path / "out"),
    }
    code = (
        "import gc, sys\n"
        "from fastslow.cli import Experiment\n"
        "before = gc.get_freeze_count()\n"
        "Experiment(sys.argv[1])\n"
        "print(before, gc.get_freeze_count())\n"
    )
    before, after = map(int, fresh_python(code, write_cfg(tmp_path, cfg)).split())
    assert before == 0
    assert after > 0


def test_two_d_experiment_preloads_sparse_only_when_asked(tmp_path):
    """A d = 2 Experiment built the way the path-sampling subcommands build
    it leaves scipy.sparse.linalg unloaded; one built the way rate builds it
    loads it in start-up."""
    cfg = {
        "model": {"inline": OU_2D_INLINE},
        "run": {"T": 1.0, "h": 1e-2, "seed": 3},
        "output_dir": str(tmp_path / "out"),
    }
    code = (
        "import sys\n"
        "from fastslow.cli import Experiment\n"
        "if sys.argv[2] == 'rate':\n"
        "    Experiment(sys.argv[1])\n"
        "else:\n"
        "    Experiment(sys.argv[1], preload_sparse=False)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    cfg_path = write_cfg(tmp_path, cfg)
    assert fresh_python(code, cfg_path, "simulate") == "False"
    assert fresh_python(code, cfg_path, "rate") == "True"


def test_two_d_path_sampling_subcommands_load_no_scipy(tmp_path):
    """simulate, mdp-check and inequalities factor no sparse operator, so on
    a d = 2 model they run without loading SciPy."""
    cfg = {
        "model": {"inline": OU_2D_INLINE},
        "scales": {"epsilon": [0.1], "kappa": 0.25},
        "run": {"T": 0.1, "h": 1e-2, "N": 1000, "seed": 3},
        "output_dir": str(tmp_path / "out"),
        "event": {"threshold": 0.5},
        "inequalities": {"alpha": [1.0], "B": [1.0], "n_steps": 20},
    }
    cfg_path = write_cfg(tmp_path, cfg)
    runs = [(name, cfg_path) for name in ("simulate", "mdp-check", "inequalities")]
    assert scipy_loaded_after(*runs) == []
    for name in ("path.csv", "mc.csv", "inequalities.csv"):
        assert (tmp_path / "out" / name).is_file()


def test_one_d_grid_solve_loads_scipy_mid_run(runner, tmp_path):
    """An explicit 1-d grid_solve is the one 1-d route that reaches a sparse
    solve, so it loads SciPy after start-up; its bytes match an in-process run."""
    cfg = base_config(tmp_path / "fresh", poisson={"method": "grid_solve"})
    loaded = scipy_loaded_after(("poisson", write_cfg(tmp_path, cfg, "fresh.yaml")))
    assert "scipy.sparse.linalg" in loaded

    cfg["output_dir"] = str(tmp_path / "here")
    here_cfg = write_cfg(tmp_path, cfg, "here.yaml")
    result = runner.invoke(main, ["poisson", str(here_cfg)], catch_exceptions=False)
    assert result.exit_code == 0
    fresh = (tmp_path / "fresh" / "poisson.csv").read_bytes()
    assert fresh == (tmp_path / "here" / "poisson.csv").read_bytes()


@pytest.mark.parametrize("subcommand", ["mdp-check", "inequalities"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_a_usage_error(runner, tmp_path, subcommand, workers):
    cfg = base_config(tmp_path / "out", event={"threshold": 0.5}, inequalities={})
    cfg_path = write_cfg(tmp_path, cfg)
    result = runner.invoke(main, [subcommand, str(cfg_path), "--workers", workers])
    assert result.exit_code == 2
    assert "--workers" in text_of(result)
    assert not (tmp_path / "out").exists()


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
