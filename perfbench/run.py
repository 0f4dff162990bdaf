"""Benchmark of the fastslow CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-tail --seed 1 --seconds 25 --trace 0

Each repetition is a fresh ``python3 perfbench/child.py`` process that runs
one ``fastslow`` subcommand on a config generated from ``--seed``, with the
checkout's ``src`` on PYTHONPATH and every BLAS pool pinned to one thread.
Repetitions continue while they are expected to end within ``--seconds``;
timings are medians.  ``--trace 0`` reports the end-to-end metrics from at
least MIN_REPS repetitions.  ``--trace 1`` splits the budget between untraced
and traced repetitions and reports the per-layer metrics.  Every
repetition's outputs are checked.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from statistics import median, median_low

import yaml

from stats import s_to_rel_err, upper_percentile
from tracer import layer_metrics, mc_batches, stage_self_times
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
# a run must exit within 180 s; a child still running at this age is killed
RUN_LIMIT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "s_to_10pct_rel_err": "s",
}


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "poisson.s_per_node":
        return "s"
    if name in ("mcengine.worker_busy_frac", "mcengine.parallel_speedup"):
        return "ratio"
    if name == "cli.csv_bytes":
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _read(path, default=""):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def machine_header(root):
    """Machine, toolchain and source facts; read-only, informational."""
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append(
            f"L{_read(index + '/level')} {_read(index + '/type')} {_read(index + '/size')}"
        )
    commit = "unknown"      # benchmark checkouts are usually not repositories
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": commit,
        "src_loc": src_lines,
    }


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root, workload, seed, work):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.work = work
        self.env = child_env(os.path.join(root, "src"))
        self.kill_at = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.next_id = 0
        self.rerun_next = True      # whether the next walked config is run twice
        self.digests = {}           # config id -> (tag, CSV digests, workers) of its first run

    def launch(self, mode, cli_args, tag):
        marks_path = os.path.join(self.work, f"{tag}.marks.json")
        with open(os.path.join(self.work, f"{tag}.log"), "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), mode, marks_path, *cli_args],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
            watchdog = threading.Timer(max(0.0, self.kill_at - t_spawn), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(marks_path) as fh:
                marks = json.load(fh)
        except (OSError, ValueError):
            marks = {}
        entry = marks.get("entry", t_exit)
        return {
            "exit_code": proc.returncode,
            "setup_s": entry - t_spawn,
            "wall_s": t_exit - entry,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "marks": marks,
        }

    def rep(self, mode="plain", config_id=None, workers=None):
        """Run the workload once on config config_id and check its outputs.

        Runs without a config id walk the ids 0, 0, 1, 2, ...: the second one
        reruns the first config (on mc-tail the first is the serial baseline),
        so byte identity is checked without an extra process, and the others
        pool independent Monte Carlo samples.  Once the bytes are checked
        elsewhere (rerun_next false) the walk is 0, 1, 2, ...  Config id -1
        is the workload's small config, which only feeds the bytes checks.
        """
        if config_id is None:
            config_id = self.next_id
            if self.rerun_next:
                self.rerun_next = False
            else:
                self.next_id += 1
        workers = workers or self.wl.workers
        self.count += 1
        tag = f"rep{self.count:03d}-{mode}-c{config_id}" + (f"-w{workers}" if workers else "")
        out_dir = os.path.join(self.work, tag)
        cfg_path = os.path.join(self.work, f"{tag}.yaml")
        make = self.wl.small_config if config_id < 0 else self.wl.config
        config = make(self.seed * 1000 + config_id, out_dir)
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(config, fh, sort_keys=True)
        args = ["--workers", str(workers)] if workers else []
        run = self.launch(mode, [self.wl.subcommand, cfg_path, *args], tag)
        run.update(tag=tag, mode=mode, config_id=config_id, workers=workers, out_dir=out_dir)
        run["checks"] = self.check(run)
        return run

    def check(self, run):
        if run["exit_code"] != 0 or "entry" not in run["marks"]:
            return [{"name": f"{self.wl.name}.exit", "ok": False,
                     "detail": f"exit code {run['exit_code']}"}] * (self.wl.cells + 1)
        try:
            checks = self.wl.check(run["out_dir"], run["marks"].get("capture"))
            digests = {
                name: hashlib.sha256(_read_bytes(os.path.join(run["out_dir"], name))).hexdigest()
                for name in self.wl.csv_names
            }
        except (OSError, ValueError, KeyError, IndexError) as err:
            return [{"name": f"{self.wl.name}.outputs", "ok": False,
                     "detail": f"{type(err).__name__}: {err}"}] * (self.wl.cells + 1)
        first = self.digests.setdefault(run["config_id"], (run["tag"], digests, run["workers"]))
        if first[0] != run["tag"]:
            label = "bytes_traced" if run["mode"] == "traced" else "bytes_rerun"
            if run["workers"] != first[2]:
                label = "workers_invariance"
            checks.append({"name": f"{self.wl.name}.{label}", "ok": digests == first[1],
                           "detail": f"CSV digests of {run['tag']} vs {first[0]}"})
        return checks


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def repeat(runner, deadline, mode, min_reps=1, config_id=None):
    """Repeat until a further repetition would likely end well past the deadline."""
    runs = []
    while True:
        if len(runs) >= min_reps:
            typical = median(r["setup_s"] + r["wall_s"] for r in runs)
            if time.monotonic() + typical / 2.0 > deadline:
                return runs
        runs.append(runner.rep(mode, config_id=config_id))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, runs):
    m = {k: median(r[k] for r in runs) for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    if wl.precision is None:
        # deterministic solve: one run already meets the oracle to 1e-3
        m["s_to_10pct_rel_err"] = m["wall_s"]
    else:
        # the precision cell's frequency pooled over the distinct configs
        cells = {r["config_id"]: wl.precision(r["out_dir"]) for r in runs}
        hits = sum(h for h, _ in cells.values())
        paths = sum(n for _, n in cells.values())
        n_run = paths / len(cells)
        m["s_to_10pct_rel_err"] = s_to_rel_err(m["wall_s"], hits / paths, n_run)
    return m


def per_layer(wl, plain, traced, serial):
    rows = [
        layer_metrics(r["marks"]["spans"], clamped=r["marks"]["clamped"],
                      workers=wl.workers or 1)
        for r in traced
    ]
    # counts repeat exactly across traced reps; median_low keeps them whole
    m = {
        k: (median_low if layer_unit(k) == "count" else median)(row[k] for row in rows)
        for k in rows[0]
    }
    m["cli.import_s"] = median(r["marks"]["import_s"] for r in traced)
    m["cli.csv_bytes"] = sum(
        os.path.getsize(os.path.join(traced[0]["out_dir"], n)) for n in wl.csv_names
    )
    wall = median(r["wall_s"] for r in plain)
    m["mcengine.parallel_speedup"] = serial["wall_s"] / wall if serial else 0.0
    m["trace.overhead_s"] = median(r["wall_s"] for r in traced) - wall
    return m


def print_report(header, wl, args, runs, plain, traced, metrics, units):
    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# why: {wl.why}")
    for key, value in header.items():
        print(f"# {key}: {value}")
    for r in runs:
        bad = [c["name"] for c in r["checks"] if not c["ok"]]
        print(f"run {r['tag']}: exit={r['exit_code']} setup_s={r['setup_s']:.4f} "
              f"wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"rss_mb={r['peak_rss_mb']:.1f} failed_checks={bad}")
    samples = {key: [r[key] for r in plain] for key in ("wall_s", "setup_s")}
    samples["mcengine.batch_s"] = [
        s[3] - s[2] for r in traced for s in mc_batches(r["marks"]["spans"])
    ]
    for key, values in samples.items():
        if values:
            up = upper_percentile(values)
            extra = f", p{up[0]:g}={up[1]:.4f}" if up else ", no percentile with 10 beyond"
            print(f"# {key}: median {median(values):.4f} of n={len(values)}{extra}")
    for r in traced[:1]:
        stages = stage_self_times(r["marks"]["spans"])
        print("# self time by stage: " + ", ".join(f"{k} {v:.3f} s" for k, v in stages.items()))
        print(f"# largest self time: {next(iter(stages), 'none')}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fastslow", "cli.py")):
        print("perfbench: run from the root of a fastslow checkout (no src/fastslow)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench_work", f"{wl.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    header = machine_header(root)
    runner = Runner(root, wl, args.seed, work)

    warm = runner.launch("import", [], "warmup")
    if warm["exit_code"] != 0:
        print(f"perfbench: importing fastslow failed, see {work}/warmup.log", file=sys.stderr)
        return 1

    end = time.monotonic() + args.seconds
    serial = None
    side = []                   # runs outside the medians: serial baseline, bytes checks
    traced = []
    if wl.workers and args.trace == 0:
        # rerun and --workers invariance on the small config, so that every
        # full-size repetition adds fresh paths to the precision cell
        side = [runner.rep("plain", config_id=-1, workers=1), runner.rep("plain", config_id=-1)]
        runner.rerun_next = False
    elif wl.workers:
        serial = runner.rep("plain", workers=1)     # config 0, rerun by the next rep
        side = [serial]
    if args.trace == 0:
        plain = repeat(runner, end, "plain", MIN_REPS)
    else:
        plain = repeat(runner, (time.monotonic() + end) / 2.0, "plain")
        traced = repeat(runner, end, "traced", config_id=0)
    runs = side + plain + traced

    checks = [c for r in runs for c in r["checks"]]
    failed = sum(1 for c in checks if not c["ok"])
    exited = [r for r in runs if r["exit_code"] == 0]
    plain, traced = [r for r in plain if r in exited], [r for r in traced if r in exited]
    try:
        if args.trace == 0:
            metrics = end_to_end(wl, plain)
        else:
            metrics = per_layer(wl, plain, traced, serial if serial in exited else None)
    except (ValueError, KeyError, IndexError, OSError) as err:
        print(f"# metrics unavailable: {type(err).__name__}: {err}")
        metrics = {}
    units = {k: END_TO_END.get(k) or layer_unit(k) for k in metrics}
    print_report(header, wl, args, runs, plain, traced, metrics, units)
    print(f"failed_frac = {failed / len(checks):.6g} ratio")
    for c in checks:
        if not c["ok"]:
            print(f"# FAILED {c['name']}: {c['detail']}")
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
