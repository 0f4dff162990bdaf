"""Release gate: the nine externally checkable claims this artifact commits to.

One test per claim, each ending in a single printed verdict line; the
tolerances and run parameters are frozen here and are not to be loosened to
make a failing claim pass.  Claim 3's step-halving clause is known to have no
signal on the linear benchmark (the discrete telescoping is exact there, so
the residual is h-independent roundoff); it is asserted as stated and
reported as an expected failure, with the square-root-of-h law demonstrated
on the double-well model in a companion test instead.
"""

import math
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from scipy.stats import norm

from fastslow.averaging import averaged_coefficients, homogenization_defect
from fastslow.cli import main
from fastslow.deviations import CorrectorProbe
from fastslow.grids import RectGrid
from fastslow.mcengine import (
    Event,
    boundedness_Y,
    brownian_sampler,
    count_trend_violations,
    exponential_inequality_grid,
    gaussian_surrogate_sweep,
    negligibility_sweep,
    negligibility_xi,
    tail_probability,
    wilson_interval,
)
from fastslow.model import get_benchmark
from fastslow.poisson import solve_family, solve_poisson
from fastslow.ratefn import DiscretePath, action, minimize_endpoint
from fastslow.simulate import LANES, simulate_block

_Z95 = 1.959963984540054


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. cell-problem solver against the closed form u(z) = z
# ---------------------------------------------------------------------------


def test_criterion_1_cell_problem_oracle(ou, z_grid):
    t0 = time.perf_counter()
    sol = solve_poisson(ou, [0.0], ou.H, z_grid)
    elapsed = time.perf_counter() - t0

    nodes = z_grid.points().reshape(-1)
    u_err = float(np.max(np.abs(sol.u.values.reshape(-1) - nodes)))
    residual = float(sol.residual)
    centering = float(np.max(np.abs(sol.centering_defect)))
    ok = u_err <= 1e-6 and residual <= 1e-6 and centering <= 1e-8 and elapsed < 1.0
    detail = (
        f"max|u - z|={u_err:.2e} (≤1e-6), residual={residual:.2e} (≤1e-6), "
        f"centering={centering:.2e} (≤1e-8), {elapsed:.2f}s (<1s)"
    )
    assert _verdict(1, ok, detail), detail


# ---------------------------------------------------------------------------
# 2. averaged coefficients against the linear-model closed forms
# ---------------------------------------------------------------------------


def test_criterion_2_averaged_coefficients_oracle(ou, z_grid):
    y_grid = RectGrid.from_bounds([(-2.0, 2.0, 41)])
    t0 = time.perf_counter()
    avg = averaged_coefficients(ou, y_grid, z_grid)
    elapsed = time.perf_counter() - t0

    y = y_grid.points().reshape(-1, 1)
    q_err = float(np.max(np.abs(avg.Qbar[:, 0, 0] - 2.0)))
    a_err = float(np.max(np.abs(avg.Abar[:, 0, 0] - 1.0)))
    f_err = float(np.max(np.abs(avg.Fbar[:, 0] + y[:, 0])))
    ok = q_err <= 1e-3 and a_err <= 1e-12 and f_err <= 1e-3 and elapsed < 30.0
    detail = (
        f"|Q-2|={q_err:.2e} (≤1e-3), |A-1|={a_err:.2e} (≤1e-12), "
        f"|F+y|={f_err:.2e} (≤1e-3), {elapsed:.1f}s (<30s)"
    )
    assert _verdict(2, ok, detail), detail


# ---------------------------------------------------------------------------
# 3. corrector identity residual; the halving clause has no signal here
# ---------------------------------------------------------------------------


def _residual_medians(spec, family, h_values, n_paths):
    # one block per h: paths 0 .. n_paths - 1 of seed 0, lanes of the first
    # lane block
    out = []
    for h in h_values:
        probe = CorrectorProbe(spec, family, h)
        simulate_block(spec, 1.0, h, 0, list(range(n_paths)), probes=(probe,))
        out.append(float(np.median(probe.identity_residual)))
    return out


def test_criterion_3_corrector_identity_residual(ou, ou_family):
    med_h, med_half = _residual_medians(ou, ou_family, (1e-4, 5e-5), 100)
    ratio = med_h / med_half
    clause_a = med_h <= 0.02
    clause_b = ratio >= 1.3
    detail = (
        f"median residual {med_h:.2e} at h=1e-4 (≤0.02), halving ratio "
        f"{ratio:.2f} (≥1.3 expected to fail: the discrete telescoping is "
        f"exact for the linear model, so the residual is h-independent noise)"
    )
    _verdict(3, clause_a and clause_b, detail)
    assert clause_a, detail
    if not clause_b:
        pytest.xfail(detail)


def test_identity_residual_tracks_sqrt_h_on_double_well(z_grid):
    # companion evidence: with a genuinely nonlinear cell solution the
    # residual follows the square-root-of-h law the halving clause expects.
    # It uses every lane of the one lane block the kernel draws anyway: over
    # 40 lanes the ratio of medians spreads with sd 0.15 across seeds, over
    # the 256 lanes with sd 0.07
    dw = get_benchmark("double-well", epsilon=0.1, kappa=0.25)
    family = solve_family(dw, RectGrid.from_bounds([(-4.0, 4.0, 9)]), z_grid)
    med_h, med_half = _residual_medians(dw, family, (1e-3, 5e-4), LANES)
    ratio = med_h / med_half
    assert med_h < 0.2
    assert 1.3 <= ratio <= 1.8  # measured 1.37 here, 1.45 ± 0.07 across seeds; sqrt(2)


# ---------------------------------------------------------------------------
# 4. action minimizer against the analytic value and a brute-force search
# ---------------------------------------------------------------------------


def _dp_minimum(avg, T, n_int, nodes, start, goal):
    """Exhaustive minimum (dynamic program) of the discrete action over
    piecewise-linear paths whose nodes live on a fixed position lattice."""
    dt = T / n_int
    n = nodes.size
    cost = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            step = DiscretePath(
                times=np.array([0.0, dt]),
                X=np.array([[0.0], [nodes[j] - nodes[i]]]),
                Y=np.zeros((2, 1)),
            )
            cost[i, j] = action(step, avg).J
    value = np.full(n, np.inf)
    value[int(np.argmin(np.abs(nodes - start)))] = 0.0
    for _ in range(n_int):
        value = np.min(value[:, None] + cost, axis=0)
    return float(value[int(np.argmin(np.abs(nodes - goal)))])


def test_criterion_4_rate_minimizer_oracles(ou_avg):
    path, value = minimize_endpoint(ou_avg, 1.0, np.array([1.0]), 128, y0=[0.0])
    j_star = value.J
    in_band = 0.2475 <= j_star <= 0.2525

    # brute force on an 8-interval mesh; the lattice spacing 0.05 does not
    # divide the optimal increment 0.125, so the search brackets the
    # minimizer from above by at most its snapping resolution
    nodes = np.linspace(-0.5, 1.5, 41)
    j_dp = _dp_minimum(ou_avg, 1.0, 8, nodes, 0.0, 1.0)
    resolution = 8 * (0.05 / 2) ** 2 / (4.0 * (1.0 / 8))
    agrees = j_star <= j_dp + 1e-9 and (j_dp - j_star) <= resolution + 1e-9

    ok = in_band and agrees
    detail = (
        f"J*={j_star:.6f} ∈ [0.2475, 0.2525]={in_band}; brute force "
        f"J_dp={j_dp:.6f}, gap {j_dp - j_star:.4f} ≤ resolution {resolution:.4f}"
    )
    assert _verdict(4, ok, detail), detail


# ---------------------------------------------------------------------------
# 5. moderate-deviation scaling: surrogate sweep + one full-model cell
# ---------------------------------------------------------------------------


def test_criterion_5_mdp_scaling(ou):
    t0 = time.perf_counter()
    rows = gaussian_surrogate_sweep(2.0, 1.0, 1.0, [1e-2, 1e-3, 1e-4], 0.25)
    targets = (-0.437, -0.324, -0.279)
    surr_err = max(abs(r[2] - t) for r, t in zip(rows, targets))
    monotone = rows[0][2] < rows[1][2] < rows[2][2] < -0.25

    event = Event(functional="terminal_x", threshold=1.0, T=1.0, component=0)
    cell = tail_probability(
        ou.with_epsilon(1e-2), event, [1e-2], 1_000_000, 2e-3, 5, workers=2
    )[0]
    p_oracle = float(norm.sf(1.0 / math.sqrt(0.2)))
    sigma = (cell.ci_hi - cell.ci_lo) / (2.0 * _Z95)
    band = 3.0 * sigma + 0.2 * p_oracle
    in_band = abs(cell.p_hat - p_oracle) <= band
    elapsed = time.perf_counter() - t0

    ok = surr_err <= 1e-3 and monotone and in_band and elapsed <= 600.0
    detail = (
        f"surrogate max dev {surr_err:.1e} (≤1e-3), monotone→-0.25={monotone}; "
        f"full model p̂={cell.p_hat:.5f} vs {p_oracle:.5f} "
        f"(band ±{band:.5f})={in_band}; {elapsed:.0f}s (≤600s)"
    )
    assert _verdict(5, ok, detail), detail


# ---------------------------------------------------------------------------
# 6. exponential tail inequality on the (alpha, B) grid
# ---------------------------------------------------------------------------


def test_criterion_6_exponential_inequality_grid():
    sampler = brownian_sampler(n_steps=1000)
    N = 100_000
    cells = exponential_inequality_grid(
        sampler, (0.5, 1.0, 2.0, 4.0), (0.5, 1.0, 2.0), 1.0, N, 17
    )
    assert len(cells) == 12
    violations = []
    worst = -math.inf
    for cell in cells:
        lo, hi = wilson_interval(cell.hits, N)
        sigma = (hi - lo) / (2.0 * _Z95)
        worst = max(worst, cell.frequency - cell.bound)
        if cell.frequency > cell.bound + 3.0 * sigma:
            violations.append((cell.alpha, cell.B, cell.frequency, cell.bound))
    ok = not violations
    detail = (
        f"12 cells at N=1e5, violations={violations or 0}, "
        f"worst frequency-bound gap {worst:.3e}"
    )
    assert _verdict(6, ok, detail), detail


# ---------------------------------------------------------------------------
# 7. negligibility trends: three sweeps, at most one inversion each
# ---------------------------------------------------------------------------


def test_criterion_7_negligibility_trends(ou, ou_family):
    xi_cells = negligibility_xi(
        ou, 0.75, 1.0, [0.5, 0.2, 0.1, 0.05], 0.5, 0.3, 0.01, 10_000, 7
    )
    y_cells = boundedness_Y(ou, [0.5, 1.0, 2.0], 0.5, 0.01, 10_000, 13)
    d_cells = negligibility_sweep(
        ou, [0.2, 0.1, 0.05], 0.4, 0.5, 0.005, 10_000, 21, family=ou_family
    )
    counts = {
        "xi": count_trend_violations(xi_cells),
        "Y": count_trend_violations(y_cells),
        "delta": count_trend_violations([c for c in d_cells if c.event == "delta"]),
    }
    ok = all(v <= 1 for v in counts.values())
    detail = f"inversions per sweep (≤1 allowed): {counts}"
    assert _verdict(7, ok, detail), detail


# ---------------------------------------------------------------------------
# 8. averaging defect shrinks like sqrt(epsilon) per decade
# ---------------------------------------------------------------------------


def test_criterion_8_homogenization_defect_scaling(ou, ou_avg):
    cells = homogenization_defect(
        ou, ou_avg, "F", [1e-2, 1e-3, 1e-4], 1.0, 0.01, 48, 11
    )
    meds = [c.median for c in cells]
    ratios = (meds[0] / meds[1], meds[1] / meds[2])
    ok = all(2.5 <= r <= 6.0 for r in ratios)
    detail = (
        f"median sup-defect {meds[0]:.3e} / {meds[1]:.3e} / {meds[2]:.3e}, "
        f"decade ratios {ratios[0]:.2f}, {ratios[1]:.2f} ∈ [2.5, 6] "
        f"(theory ≈ 3.16)"
    )
    assert _verdict(8, ok, detail), detail


# ---------------------------------------------------------------------------
# 9. CLI determinism: byte-identical CSVs on rerun, any worker count
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "model": {"benchmark": "ou"},
        "scales": {"epsilon": [0.1, 0.05], "kappa": 0.25},
        "grids": {"z_nodes": 201, "y_box": [[-4.0, 4.0]], "y_nodes": 21},
        "run": {"T": 0.5, "h": 0.01, "N": 1000, "seed": 7},
        "output_dir": str(out),
        "delta": {"eta": 0.5},
        "rate": {"target": [1.0], "mesh_size": 16},
        "event": {"threshold": 0.5},
        "inequalities": {"alpha": [1.0], "B": [1.0], "n_steps": 300},
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    runner = CliRunner()

    def run_all(workers):
        for cmd, extra in (
            ("validate", ()),
            ("simulate", ()),
            ("density", ()),
            ("poisson", ()),
            ("average", ()),
            ("delta", ()),
            ("rate", ()),
            ("inequalities", ("--workers", workers)),
            ("mdp-check", ("--workers", workers)),
        ):
            result = runner.invoke(main, [cmd, str(cfg_path), *extra])
            assert result.exit_code == 0, (cmd, result.output, result.stderr)

    run_all("1")
    first = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
    run_all("5")
    second = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
    changed = sorted(n for n in first if first[n] != second.get(n, b""))
    ok = not changed and len(first) == 10  # rate writes two files
    detail = (
        f"{len(first)} CSVs from 9 subcommands rerun at workers 1→5: "
        f"changed={changed or 'none'}"
    )
    assert _verdict(9, ok, detail), detail
