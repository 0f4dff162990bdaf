"""The four benchmark workloads: generated configs, output checks, precision cells.

Each workload is one YAML config plus one ``fastslow`` subcommand.  The config
is a pure function of the workload seed, so the program under test sees only
YAML.  Every check reads the subcommand's own output files (plus, for
``cell-2d``, the averaged table the launcher captures at the one call that
builds it) and must hold across any declared noise re-baseline: the bands
come from exact oracles, never from recorded outputs.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

SQRT2 = 1.4142135623730951
_Z95 = 1.959963984540054

# Monte Carlo worker threads for mc-tail; the box has two cores and every
# child also pins its BLAS pools to one thread, so this is the whole budget.
WORKERS = 2


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _finite(text):
    return math.isfinite(float(text))


# ---------------------------------------------------------------------------
# mc-tail: the headline Monte Carlo tail sweep (criterion-5 config)
# ---------------------------------------------------------------------------

MC_EPS = [1e-2, 5e-3]
MC_N = 16384
# paths of the config that only checks bytes across runs and worker counts
MC_N_SMALL = 2048


def mc_tail_config(seed, out_dir, n=MC_N):
    return {
        "model": {"benchmark": "ou"},
        "scales": {"epsilon": list(MC_EPS), "kappa": 0.25},
        "run": {"T": 1.0, "h": 2e-3, "N": n, "seed": int(seed)},
        "output_dir": out_dir,
        "event": {"functional": "terminal_x", "threshold": 1.0},
    }


def mc_tail_check(out_dir, capture):
    rows = _csv_rows(os.path.join(out_dir, "mc.csv"))
    checks = [
        _check(f"mc-tail.cell[{e:g}]", i < len(rows) and float(rows[i]["epsilon"]) == e
               and _finite(rows[i]["p_hat"]), rows[i]["p_hat"] if i < len(rows) else "missing")
        for i, e in enumerate(MC_EPS)
    ]
    if rows and _finite(rows[0]["p_hat"]):
        cell = rows[0]
        # criterion 5: the eps=1e-2 cell lies within 3 sigma + 20% of the
        # Gaussian-limit tail Phi_bar(1 / sqrt(0.2)).
        p_oracle = 1.0 - NormalDist().cdf(1.0 / math.sqrt(0.2))
        sigma = (float(cell["ci_hi"]) - float(cell["ci_lo"])) / (2.0 * _Z95)
        band = 3.0 * sigma + 0.2 * p_oracle
        p_hat = float(cell["p_hat"])
        detail = f"p_hat={p_hat:.5f} oracle={p_oracle:.5f} band={band:.5f}"
        checks.append(_check("mc-tail.criterion5_band", abs(p_hat - p_oracle) <= band, detail))
    else:
        checks.append(_check("mc-tail.criterion5_band", False, "no eps=1e-2 estimate"))
    return checks


def mc_tail_small_config(seed, out_dir):
    return mc_tail_config(seed, out_dir, n=MC_N_SMALL)


def mc_tail_precision(out_dir):
    row = _csv_rows(os.path.join(out_dir, "mc.csv"))[1]   # the eps=5e-3 cell
    return int(row["hits"]), int(row["N"])


# ---------------------------------------------------------------------------
# corrector-sweep: streaming corrector probe on an inline double-well copy
# ---------------------------------------------------------------------------

DELTA_EPS = [0.2, 0.1, 0.05]
DELTA_N = 4000
DELTA_STATS = ("delta", "boundary", "drift", "slow_noise")

DOUBLE_WELL_INLINE = {
    "d": 1,
    "l": 1,
    "p": 1,
    "b": [[{"c": 1.0, "z": [1]}, {"c": -1.0, "z": [3]}]],
    "sigma": [[[{"c": SQRT2}]]],
    "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1]}]],
    "G": [[[{"c": 1.0}]]],
    "H": [[{"c": 1.0, "z": [1]}]],
    "name": "double-well-inline",
}


def corrector_sweep_config(seed, out_dir):
    return {
        "model": {"inline": DOUBLE_WELL_INLINE},
        "scales": {"epsilon": list(DELTA_EPS), "kappa": 0.25},
        "grids": {"z_nodes": 601, "y_nodes": 17},
        "run": {"T": 0.5, "h": 5e-3, "N": DELTA_N, "seed": int(seed)},
        "output_dir": out_dir,
        "delta": {"eta": 0.4},
    }


def corrector_sweep_check(out_dir, capture):
    rows = _csv_rows(os.path.join(out_dir, "delta.csv"))
    checks = []
    for e in DELTA_EPS:
        cell = [r for r in rows if float(r["epsilon"]) == e]
        ok = [r["statistic"] for r in cell] == list(DELTA_STATS) and all(
            _finite(r["p_hat"]) and 0 <= int(r["hits"]) <= int(r["N"])
            for r in cell
        )
        checks.append(_check(f"corrector-sweep.cell[{e:g}]", ok, f"{len(cell)} statistics"))
    return checks


def corrector_sweep_precision(out_dir):
    for r in _csv_rows(os.path.join(out_dir, "delta.csv")):
        if float(r["epsilon"]) == DELTA_EPS[-1] and r["statistic"] == "delta":
            return int(r["hits"]), int(r["N"])
    raise ValueError("delta.csv has no sup|Delta| row at the smallest epsilon")


# ---------------------------------------------------------------------------
# cell-2d: finite-volume density and grid cell solve per y-node, no sampling
# ---------------------------------------------------------------------------

CELL_Y_NODES = 17
CELL_QBAR = 3.0           # E[2((1 + z2/2)^2 + z1^2/4)] under N(0, I)
CELL_J = 1.0 / 6.0        # x(1) = 1 at cost 1 / (2 Qbar), y on its orbit
CELL_TOL = 1e-3


def cell_2d_config(seed, out_dir):
    inline = {
        "d": 2,
        "l": 1,
        "p": 1,
        "b": [[{"c": -1.0, "z": [1, 0]}], [{"c": -1.0, "z": [0, 1]}]],
        "sigma": [[[{"c": SQRT2}], []], [[], [{"c": SQRT2}]]],
        "F": [[{"c": -1.0, "y": [1]}, {"c": 1.0, "z": [1, 0]}]],
        "G": [[[{"c": 1.0}]]],
        "H": [[{"c": 1.0, "z": [1, 0]}, {"c": 1.0, "z": [1, 1]}]],
        "name": "ou-2d-product",
    }
    return {
        "model": {"inline": inline},
        "scales": {"epsilon": [1e-2], "kappa": 0.25},
        "grids": {
            "z_box": [[-5.0, 5.0], [-5.0, 5.0]],
            "z_nodes": 101,
            "y_nodes": CELL_Y_NODES,
        },
        "run": {"T": 1.0, "h": 1e-2, "seed": int(seed)},
        "output_dir": out_dir,
        "rate": {"event": {"threshold": 1.0}, "mesh_size": 256},
    }


def cell_2d_check(out_dir, capture):
    rows = _csv_rows(os.path.join(out_dir, "rate.csv"))
    j_star = float(rows[0]["J_star"]) if rows else math.nan
    qbar = (capture or {}).get("Qbar", [])
    qbar = qbar + [math.nan] * (CELL_Y_NODES - len(qbar))
    checks = [
        _check(f"cell-2d.qbar[{i}]", abs(q - CELL_QBAR) <= CELL_TOL, f"Qbar={q:.6f}")
        for i, q in enumerate(qbar)
    ]
    checks.append(
        _check("cell-2d.j_star", abs(j_star - CELL_J) <= CELL_TOL, f"J*={j_star:.6f} vs 1/6")
    )
    return checks


# ---------------------------------------------------------------------------
# martingale-grid: exponential martingale inequality grid (criterion-6 config)
# ---------------------------------------------------------------------------

INEQ_ALPHA = [0.5, 1.0, 2.0, 4.0]
INEQ_B = [0.5, 1.0, 2.0]
INEQ_N = 20000
INEQ_PRECISION_CELL = (2.0, 1.0)   # P(sup|W| >= 2) ~ 0.09: never censored


def martingale_grid_config(seed, out_dir):
    return {
        "model": {"benchmark": "ou"},
        "run": {"T": 1.0, "h": 1e-3, "N": INEQ_N, "seed": int(seed)},
        "output_dir": out_dir,
        "inequalities": {
            "alpha": list(INEQ_ALPHA),
            "B": list(INEQ_B),
            "sampler": "brownian",
            "n_steps": 1000,
        },
    }


def martingale_grid_check(out_dir, capture):
    rows = _csv_rows(os.path.join(out_dir, "inequalities.csv"))
    cells = {(float(r["alpha"]), float(r["B"])): r for r in rows}
    checks = [
        _check(f"martingale-grid.cell[{a:g},{B:g}]",
               (a, B) in cells and cells[(a, B)]["violated"] == "0",
               cells[(a, B)]["frequency"] if (a, B) in cells else "missing")
        for a in INEQ_ALPHA
        for B in INEQ_B
    ]
    inversions = []
    for B in INEQ_B:
        freqs = [float(cells[(a, B)]["frequency"]) for a in INEQ_ALPHA if (a, B) in cells]
        inversions += [B for f0, f1 in zip(freqs, freqs[1:]) if f1 > f0]
    checks.append(
        _check("martingale-grid.monotone_in_alpha", not inversions,
               f"increasing frequency at B in {inversions}")
    )
    return checks


def martingale_grid_precision(out_dir):
    for r in _csv_rows(os.path.join(out_dir, "inequalities.csv")):
        if (float(r["alpha"]), float(r["B"])) == INEQ_PRECISION_CELL:
            N = int(r["N"])
            return round(float(r["frequency"]) * N), N
    raise ValueError("inequalities.csv lacks the precision cell")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    config: object          # (seed, out_dir) -> config mapping
    check: object           # (out_dir, capture) -> list of check records
    cells: int              # program operations per run (cells or y-node solves)
    precision: object = None  # out_dir -> (hits, N) of the precision cell
    workers: int = 0        # --workers for subcommands with a worker pool
    csv_names: tuple = ()
    small_config: object = None  # (seed, out_dir) -> config for the bytes-only checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-tail",
            why="headline tail sweep (criterion 5): per-path Philox keying and draws "
            "dominate, so noise and stepping changes show and solver changes do not",
            subcommand="mdp-check",
            config=mc_tail_config,
            check=mc_tail_check,
            cells=len(MC_EPS),
            precision=mc_tail_precision,
            workers=WORKERS,
            csv_names=("mc.csv",),
            small_config=mc_tail_small_config,
        ),
        Workload(
            name="corrector-sweep",
            why="single-threaded streaming corrector probe: four-table interpolation and "
            "inline polynomial calls every micro step, noise only a third",
            subcommand="delta",
            config=corrector_sweep_config,
            check=corrector_sweep_check,
            cells=len(DELTA_EPS),
            precision=corrector_sweep_precision,
            csv_names=("delta.csv",),
        ),
        Workload(
            name="cell-2d",
            why="2-d finite-volume density and sparse cell solve per y-node with exact "
            "oracles and no Monte Carlo: noise and kernel changes must read as no change",
            subcommand="rate",
            config=cell_2d_config,
            check=cell_2d_check,
            cells=CELL_Y_NODES,
            csv_names=("rate.csv", "rate_path.csv"),
        ),
        Workload(
            name="martingale-grid",
            why="criterion-6 inequality grid: the only run of the martingale samplers, "
            "12 cells re-simulating one N-wide stream, so draw-once changes show here",
            subcommand="inequalities",
            config=martingale_grid_config,
            check=martingale_grid_check,
            cells=len(INEQ_ALPHA) * len(INEQ_B),
            precision=martingale_grid_precision,
            csv_names=("inequalities.csv",),
        ),
    )
}
