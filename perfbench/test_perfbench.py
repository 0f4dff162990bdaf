"""Tests of the benchmark's own helpers.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import csv
import json
import os
import subprocess
import sys
import time

import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import run  # noqa: E402
from stats import percentile, s_to_rel_err, upper_percentile  # noqa: E402
from tracer import covered, layer_metrics, self_times, stage_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(sid, name, t0, t1, parent=0, n=0):
    return (sid, name, t0, t1, parent, 1, n)


# ---------------------------------------------------------------------------
# span self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        span(1, "cli.mdp-check", 0.0, 10.0),
        span(2, "simulate.simulate_block", 1.0, 4.0, parent=1),
        span(3, "simulate.draw", 2.0, 3.0, parent=2),
        span(4, "simulate.simulate_block", 6.0, 9.0, parent=1),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(4.0)      # grandchild does not count twice
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(3.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # two worker-thread batches under one sweep overlap in time
    spans = [
        span(1, "mcengine.tail_probability", 0.0, 10.0),
        span(2, "simulate.simulate_block", 1.0, 6.0, parent=1),
        span(3, "simulate.simulate_block", 2.0, 7.0, parent=1),
        span(4, "simulate.simulate_block", 9.0, 12.0, parent=1),  # clipped at 10
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_stage_grouping_separates_noise_from_kernel():
    spans = [
        span(1, "simulate.simulate_block", 0.0, 5.0),
        span(2, "simulate.path_generator", 0.0, 1.0, parent=1),
        span(3, "simulate.draw", 1.0, 4.0, parent=1),
    ]
    assert stage_self_times(spans) == pytest.approx({"noise": 4.0, "kernel": 1.0})


def test_layer_metrics_counts_work_and_batches():
    spans = [
        span(1, "mcengine.tail_probability", 0.0, 4.0),
        span(2, "simulate.simulate_block", 0.0, 2.0, parent=1, n=100),
        span(3, "simulate.simulate_block", 0.0, 3.0, parent=1, n=100),
        span(4, "simulate.draw", 0.5, 1.0, parent=2, n=50),
        span(5, "simulate.draw", 0.5, 1.5, parent=3, n=50),
    ]
    m = layer_metrics(spans, workers=2)
    assert m["mcengine.batches"] == 2
    assert m["mcengine.batch_s"] == pytest.approx(2.5)
    assert m["mcengine.worker_busy_frac"] == pytest.approx(5.0 / 8.0)
    assert m["simulate.normals"] == 100
    assert m["simulate.normals_per_s"] == pytest.approx(100 / 1.5)
    assert m["simulate.block_s"] == pytest.approx(5.0 - 1.5)
    assert m["simulate.path_steps_per_s"] == pytest.approx(200 / 5.0)


# ---------------------------------------------------------------------------
# the ">= 10 samples beyond" percentile rule
# ---------------------------------------------------------------------------

def test_no_upper_percentile_for_small_samples():
    assert upper_percentile([]) is None
    assert upper_percentile(list(range(10))) is None
    assert upper_percentile(list(range(20))) == (50.0, 9)     # exactly 10 above


def test_upper_percentile_climbs_with_sample_size():
    assert upper_percentile(list(range(99)))[0] == 50.0
    assert upper_percentile(list(range(100)))[0] == 90.0     # 10 above p90
    assert upper_percentile(list(range(1000)))[0] == 99.0
    assert upper_percentile(list(range(10000)))[0] == 99.9


def test_ties_do_not_count_as_beyond():
    assert upper_percentile([1.0] * 100) is None
    assert percentile([3, 1, 2], 50) == 2


# ---------------------------------------------------------------------------
# s_to_10pct_rel_err
# ---------------------------------------------------------------------------

def test_seconds_to_ten_percent_relative_error():
    # p = 0.01 over 1000 paths in 2 s: rel var 0.099, needs 9.9x the paths
    assert s_to_rel_err(2.0, 0.01, 1000) == pytest.approx(2.0 * 0.99 / 10.0 / 0.01)
    # halving the variance per path halves the cost, as a faster run does
    assert s_to_rel_err(1.0, 0.01, 1000) == pytest.approx(0.5 * s_to_rel_err(2.0, 0.01, 1000))
    with pytest.raises(ValueError):
        s_to_rel_err(1.0, 0.0, 1000)


# ---------------------------------------------------------------------------
# correctness checks on tiny configs
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run_child(tmp_path, mode, wl, config, tag, extra=()):
    cfg = tmp_path / f"{tag}.yaml"
    cfg.write_text(yaml.safe_dump(config))
    marks = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode, str(marks),
         wl.subcommand, str(cfg), *extra],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(marks.read_text())


TINY = {
    "mc-tail": {"run": {"N": 2000}},
    "corrector-sweep": {"run": {"N": 200}},
    "martingale-grid": {"run": {"N": 2000}},
}


def _tiny_config(name, seed, out_dir):
    config = WORKLOADS[name].config(seed, str(out_dir))
    for section, values in TINY[name].items():
        config[section].update(values)
    return config


@pytest.mark.parametrize("name", sorted(TINY))
def test_checks_pass_on_tiny_runs_and_catch_corruption(tmp_path, name):
    wl = WORKLOADS[name]
    out = tmp_path / "out"
    marks = _run_child(tmp_path, "plain", wl, _tiny_config(name, 11, out), "plain")
    checks = wl.check(str(out), marks["capture"])
    assert checks and all(c["ok"] for c in checks), checks
    assert marks["entry"] < marks["end"]

    path = out / wl.csv_names[0]
    rows = list(csv.reader(path.open()))
    col = {"mc-tail": "p_hat", "corrector-sweep": "p_hat",
           "martingale-grid": "violated"}[name]
    k = rows[0].index(col)
    rows[1][k] = "nan" if col == "p_hat" else "1"
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert not all(c["ok"] for c in wl.check(str(out), marks["capture"]))


def test_cell_2d_oracle_checks(tmp_path):
    wl = WORKLOADS["cell-2d"]

    def checks(qbar, j):
        (tmp_path / "rate.csv").write_text(f"J_star,T,mesh_size\n{j!r},1.0,256\n")
        return wl.check(str(tmp_path), {"Qbar": qbar})

    good = checks([3.0002] * 17, 1.0 / 6.0 + 2e-4)
    assert len(good) == 18 and all(c["ok"] for c in good)
    assert sum(not c["ok"] for c in checks([3.0] * 16 + [3.01], 1.0 / 6.0)) == 1
    assert sum(not c["ok"] for c in checks([3.0] * 15, 1.0 / 6.0)) == 2
    assert not checks([3.0] * 17, 0.17)[-1]["ok"]


def test_traced_run_keeps_bytes_and_counts_work(tmp_path):
    wl = WORKLOADS["mc-tail"]
    plain = _run_child(tmp_path, "plain", wl, _tiny_config("mc-tail", 5, tmp_path / "a"), "a")
    traced = _run_child(tmp_path, "traced", wl, _tiny_config("mc-tail", 5, tmp_path / "b"), "b",
                        extra=("--workers", "2"))
    assert "spans" not in plain
    assert (tmp_path / "a" / "mc.csv").read_bytes() == (tmp_path / "b" / "mc.csv").read_bytes()
    m = layer_metrics([tuple(s) for s in traced["spans"]], workers=2)
    assert m["simulate.generators"] == 2 * 2000            # one key per path per cell
    assert m["mcengine.batches"] == 2
    # T/h = 500 macro steps, n_sub = 2 and 4 micro steps, d = l = 1
    assert m["simulate.normals"] == 2000 * 500 * ((2 + 1) + (4 + 1))
    assert m["simulate.path_steps"] == 2000 * 500 * (2 + 4)
    assert m["model.coef_calls"] > 0 and m["grids.multilinear_calls"] == 0


def test_a_child_past_the_run_limit_is_killed_and_fails_every_operation(tmp_path):
    runner = run.Runner(os.path.dirname(HERE), WORKLOADS["cell-2d"], 1, str(tmp_path))
    runner.kill_at = time.monotonic() + 0.5
    rep = runner.rep()
    assert rep["exit_code"] != 0
    assert len(rep["checks"]) == WORKLOADS["cell-2d"].cells + 1
    assert not any(c["ok"] for c in rep["checks"])


def test_benchmark_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "mc-tail", "--seed", "1", "--seconds", "1"]) == 2


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layer_names = set(layer_metrics([])) | {
        "cli.import_s", "cli.csv_bytes", "mcengine.parallel_speedup", "trace.overhead_s",
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names
    }
