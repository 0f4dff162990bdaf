"""Monte Carlo tail estimation at the moderate-deviation speed, plus empirical
checks of the exponential martingale estimates behind it.

All probabilities are plain Monte Carlo frequencies over paths driven by
SFC64 lane-block streams (``simulate``): path i is lane i % LANES of
block i // LANES under the run's seed, and consumes the same numbers no matter
how the batch is cut, how many workers run or how many paths are drawn.

Every path statistic runs through one sweep driver, ``_sweep``: the tail
sweep (``tail_probability``), the negligibility sweeps of xi, Y and the
corrector remainder Delta (``negligibility_xi``, ``boundedness_Y``,
``negligibility_sweep``) and the homogenization defect
(``averaging.homogenization_defect``).  For each epsilon it steps whole-block
batches of ``DEFAULT_BATCH`` paths, so each batch draws only its own blocks,
and returns the cell's per-path values in id order, so every statistic is
invariant under the batch cut and the worker count.  A ``FastslowError``
(a blow-up, a slow state leaving its table) aborts only its own epsilon cell:
that cell comes back with NaN statistics and the error's message.

Tail frequencies are integer hit counts, reported with 95% Wilson intervals,
and the logarithm is taken at the deviation speed eps^(1 - 2 kappa).
Zero-hit cells are censored at 1/N and flagged: their scaled log is an upper
bound, which is how the trend tests treat them.

There is no importance sampling.  Cells whose probability falls well below
1/N stay censored; for the Gaussian-tail sweep, where the surrogate law is
known exactly, ``gaussian_surrogate_sweep`` evaluates the tail in closed form
instead of sampling it.

An exponential-inequality grid (``exponential_inequality_grid``) is scored
from one draw of Brownian paths, plain or stopped when the bracket reaches a
cap, and every (alpha, B) cell is an integer hit count over those paths.  The
paths step through the kernel's noise source with one normal per step
(chunk 1), reading each step's increments as the one contiguous row
``macro_chunk(k)[0]``, so path i is lane i % LANES of block i // LANES too,
whatever N.
They step in whole-block batches of ``DEFAULT_BATCH`` on the same worker pool
as the sweeps and are concatenated in id order, so ``workers`` only changes
wall time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .deviations import CorrectorProbe, mdp_speed
from .errors import ConfigError, FastslowError
from .simulate import LANES, SupX, SupXi, SupY, _NoiseSource, simulate_block

__all__ = [
    "Event",
    "TailEstimate",
    "wilson_interval",
    "tail_probability",
    "gaussian_surrogate_sweep",
    "InequalityCell",
    "exponential_inequality_grid",
    "negligibility_xi",
    "boundedness_Y",
    "negligibility_sweep",
    "count_trend_violations",
]

_Z95 = 1.959963984540054
_MIN_PATHS = 1_000
DEFAULT_BATCH = 32 * LANES  # whole lane blocks, so each batch's noise is a slice

_FUNCTIONALS = ("terminal_x", "sup_x")


@dataclass(frozen=True)
class Event:
    """Path event descriptor.

    functional: "terminal_x"  — component of X at the horizon exceeds threshold;
                "sup_x"       — running sup of |X_component| exceeds threshold.
    """

    functional: str
    threshold: float
    T: float
    component: int = 0

    def __post_init__(self):
        if self.functional not in _FUNCTIONALS:
            raise ConfigError(
                f"unknown event functional {self.functional!r}; "
                f"choose one of {_FUNCTIONALS}"
            )


@dataclass(frozen=True)
class TailEstimate:
    """One Monte Carlo cell of a tail sweep.

    ``C`` is set instead of varying epsilon for threshold sweeps; ``error``
    carries the message of a simulation failure that aborted this cell only.
    """

    event: object
    epsilon: float
    N: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    scaled_log: float
    censored: bool
    C: float | None = None
    error: str = ""


def wilson_interval(hits, n):
    """95% Wilson score interval for a binomial frequency."""
    if n < 1:
        raise ConfigError("interval needs at least one trial")
    p = hits / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (p + _Z95 * _Z95 / (2 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4 * n * n)) / denom
    # at the extremes center -+ half is exactly 0 / 1 analytically; clamp the
    # rounding residue so the interval always brackets p
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def _run_batches(job, N, workers):
    """Run ``job`` on consecutive path-id ranges of at most ``DEFAULT_BATCH``
    ids and return its results in id order, on a thread pool when
    ``workers`` > 1."""
    jobs = [range(s, min(s + DEFAULT_BATCH, N)) for s in range(0, N, DEFAULT_BATCH)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            return list(pool.map(job, jobs))
    return [job(j) for j in jobs]


def _sweep(spec, epsilon_list, T, h, N, seed, make_probe, read, *, workers=None):
    """The one sweep driver: per-path values of every epsilon cell.

    For each epsilon, whole-block batches of ``DEFAULT_BATCH`` path ids run
    through the kernel with the probe ``make_probe(spec_e)`` (None rides no
    probe), and ``read(spec_e, probe, run)`` reduces a batch to its per-path
    values; the batches run on a pool of ``workers`` threads when it is > 1.
    Returns one (spec_e, outcome) pair per epsilon, where outcome is the
    cell's per-path values in id order, or the message "<Type>: <message>"
    of the ``FastslowError`` that aborted that cell and no other.
    """
    out = []
    for eps in epsilon_list:
        spec_e = spec.with_epsilon(eps)

        def batch(ids, spec_e=spec_e):
            probe = make_probe(spec_e)
            probes = () if probe is None else (probe,)
            run = simulate_block(spec_e, T, h, seed, list(ids), probes=probes)
            return read(spec_e, probe, run)

        try:
            out.append((spec_e, np.concatenate(_run_batches(batch, N, workers))))
        except FastslowError as err:
            out.append((spec_e, f"{type(err).__name__}: {err}"))
    return out


def _tail_cell(event, spec_e, N, outcome, *, column=None, C=None):
    """The tail cell of one ``_sweep`` outcome: per-path exceedance flags
    (their ``column`` when the flags are (N, k)), or the failure that took
    their place, which leaves NaN statistics and its message in ``error``."""
    if isinstance(outcome, str):
        nan = math.nan
        return TailEstimate(
            event=event, epsilon=spec_e.epsilon, N=N, hits=0, p_hat=nan, ci_lo=nan,
            ci_hi=nan, scaled_log=nan, censored=False, C=C, error=outcome,
        )
    hits = int(np.count_nonzero(outcome if column is None else outcome[:, column]))
    lo, hi = wilson_interval(hits, N)
    # a zero-hit cell is censored at 1/N: its scaled log is an upper bound
    scaled_log = mdp_speed(spec_e) * math.log(max(hits, 1) / N)
    return TailEstimate(
        event=event, epsilon=spec_e.epsilon, N=N, hits=hits, p_hat=hits / N,
        ci_lo=lo, ci_hi=hi, scaled_log=scaled_log, censored=hits == 0, C=C,
    )


def tail_probability(
    spec,
    event,
    epsilon_list,
    N,
    h,
    seed,
    *,
    workers=None,
):
    """Estimate P(event) for each epsilon with the eps^(1-2 kappa) log scaling.

    A simulation failure (a blow-up) aborts only its epsilon cell;
    the failed cell carries the error message and NaN statistics.
    """
    N = int(N)
    if N < _MIN_PATHS:
        raise ConfigError(f"N must be at least {_MIN_PATHS} paths, got {N}")
    sup_x = event.functional == "sup_x"

    def exceeds(spec_e, probe, run):
        vals = probe.value if sup_x else run.X
        return vals[:, event.component] > event.threshold

    sweep = _sweep(
        spec, epsilon_list, event.T, h, N, seed,
        lambda spec_e: SupX() if sup_x else None, exceeds, workers=workers,
    )
    return [_tail_cell(event, spec_e, N, flags) for spec_e, flags in sweep]


def gaussian_surrogate_sweep(Q, T, threshold, epsilon_list, kappa):
    """Exact tail of the Gaussian surrogate X_T ~ N(0, eps^(1-2 kappa) Q T).

    Closed form replaces sampling because the deeper cells of the sweep sit
    far below any reachable 1/N.  Returns (epsilon, p, scaled_log) triples.
    The log tail is ``log_ndtr(-x)``, which stays finite where the tail
    itself underflows to 0.  ``scipy.special`` is imported here, not at module
    level, because no subcommand calls this and the CLI should not load it.
    """
    from scipy.special import log_ndtr

    Q = float(Q)
    if Q <= 0.0 or T <= 0.0:
        raise ConfigError("surrogate needs Q > 0 and T > 0")
    rows = []
    for eps in epsilon_list:
        speed = float(eps) ** (1.0 - 2.0 * kappa)
        sd = math.sqrt(speed * Q * T)
        log_p = float(log_ndtr(-(threshold / sd)))
        rows.append((float(eps), math.exp(log_p), speed * log_p))
    return rows


# ---------------------------------------------------------------------------
# exponential martingale inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCell:
    """One (alpha, B) cell of an exponential-inequality grid: the integer
    count of paths in {sup_t |M_t| >= alpha and <M>_T <= B}, its frequency
    hits / N, and the bound 2 exp(-alpha^2 / (2B))."""

    alpha: float
    B: float
    N: int
    hits: int
    frequency: float
    bound: float


def exponential_inequality_grid(
    alphas, Bs, T, N, seed, *, n_steps=1000, qv_cap=None, workers=None
):
    """Score every (alpha, B) cell of the exponential-inequality grid from one
    draw of N Brownian paths of ``n_steps`` steps on [0, T].

    Without ``qv_cap`` the martingale is W itself, with bracket <W>_T = T.
    With it, W is stopped at the first step where the summed bracket
    h + h + ... reaches qv_cap (a stopping time, so the bound still
    applies), and <M>_T is that sum.  The bracket is the same on every path,
    so one number scores every B.  Cells come back alpha-major, in the order
    of ``alphas`` then ``Bs``.
    """
    alphas = [float(a) for a in alphas]
    Bs = [float(B) for B in Bs]
    if not all(a > 0.0 for a in alphas) or not all(B > 0.0 for B in Bs):
        raise ConfigError("alpha and B must be positive")
    N = int(N)
    if N < 1:
        raise ConfigError(f"N must be at least 1 path, got {N}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be at least 1, got {n_steps}")
    h = T / n_steps
    if qv_cap is None:
        # T itself: n_steps terms of h can sum past it (1000 x 1e-3 does)
        qv, n_taken = T, n_steps
    elif not qv_cap > 0.0:
        raise ConfigError("qv_cap must be positive")
    else:
        qv, n_taken = 0.0, 0
        while n_taken < n_steps and qv < qv_cap:
            qv += h
            n_taken += 1
    sup_abs = _brownian_sup(N, seed, n_taken, math.sqrt(h), workers)
    cells = []
    for alpha in alphas:
        hits_alpha = int(np.count_nonzero(sup_abs >= alpha))
        for B in Bs:
            hits = hits_alpha if qv <= B else 0
            bound = 2.0 * math.exp(-(alpha * alpha) / (2.0 * B))
            cells.append(InequalityCell(alpha, B, N, hits, hits / N, bound))
    return cells


def _brownian_sup(N, seed, n_taken, sq_h, workers):
    """Running sup of |M| over the first ``n_taken`` steps of N Brownian paths,
    stepped in whole-block batches of ``DEFAULT_BATCH`` paths and
    concatenated in id order."""

    def run(ids):
        noise = _NoiseSource(seed, ids, n_taken, 1)
        M = np.zeros(len(ids))
        sup_abs = np.zeros(len(ids))
        for k in range(n_taken):
            M = M + sq_h * noise.macro_chunk(k)[0]
            np.maximum(sup_abs, np.abs(M), out=sup_abs)
        return sup_abs

    return np.concatenate(_run_batches(run, N, workers))


# ---------------------------------------------------------------------------
# negligibility sweeps
# ---------------------------------------------------------------------------

def negligibility_xi(
    spec,
    l_exp,
    p_exp,
    epsilon_list,
    eta,
    T,
    h,
    N,
    seed,
    *,
    workers=None,
):
    """Per-epsilon scaled log-frequency of {eps^l sup_t ||xi||^p > eta}.

    The hypothesis l > p/2 is what makes the statistic negligible; violating
    it is rejected before any sampling."""
    if not p_exp > 0.0:
        raise ConfigError(f"hypothesis p_exp > 0 fails: p_exp = {p_exp}")
    if not l_exp > p_exp / 2.0:
        raise ConfigError(
            f"hypothesis l_exp > p_exp / 2 fails: {l_exp} <= {p_exp / 2.0}"
        )
    N = int(N)
    label = f"eps^{l_exp} * sup_t ||xi||^{p_exp} > {eta}"

    def exceeds(spec_e, probe, run):
        return spec_e.epsilon**l_exp * probe.value**p_exp > eta

    sweep = _sweep(
        spec, epsilon_list, T, h, N, seed, lambda spec_e: SupXi(), exceeds, workers=workers,
    )
    return [_tail_cell(label, spec_e, N, flags) for spec_e, flags in sweep]


def boundedness_Y(
    spec,
    C_list,
    T,
    h,
    N,
    seed,
    *,
    workers=None,
):
    """Scaled log-frequency of {sup_t |Y_t| > C} for each level C, from one
    shared batch of paths at the model's own epsilon."""
    N = int(N)
    C_arr = np.asarray(list(C_list), float)
    ((spec_e, flags),) = _sweep(
        spec, [spec.epsilon], T, h, N, seed, lambda spec_e: SupY(),
        lambda spec_e, probe, run: probe.value[:, None] > C_arr[None, :], workers=workers,
    )
    return [
        _tail_cell(f"sup_t |Y_t| > {C}", spec_e, N, flags, column=j, C=float(C))
        for j, C in enumerate(C_arr)
    ]


def negligibility_sweep(
    spec,
    epsilon_list,
    eta,
    T,
    h,
    N,
    seed,
    *,
    family,
):
    """P(sup_t |Delta_t| > eta) along a decreasing epsilon list, with the
    same statistic for each of the three remainder terms separately.

    Returns one tail cell per epsilon and statistic, epsilon-major, with
    ``event`` naming the statistic: delta, boundary, drift, slow_noise.
    Cell solutions are epsilon-free, so the one tabulated family passed in
    serves the whole sweep.  Zero-hit cells report the 1/N censor value with
    a flag — an upper bound, not an estimate.
    """
    N = int(N)
    terms = ("delta", "boundary", "drift", "slow_noise")

    def exceeds(spec_e, probe, run):
        sups = (probe.sup_abs_delta, probe.sup_boundary, probe.sup_drift, probe.sup_noise)
        return np.stack(sups, axis=-1) > eta

    sweep = _sweep(
        spec, epsilon_list, T, h, N, seed,
        lambda spec_e: CorrectorProbe(spec_e, family, h), exceeds,
    )
    return [
        _tail_cell(name, spec_e, N, flags, column=j)
        for spec_e, flags in sweep
        for j, name in enumerate(terms)
    ]


def count_trend_violations(cells):
    """Number of adjacent scaled_log increases along a sweep.

    A censored later cell never counts: its value is only an upper bound, so
    an apparent increase into the censor is not evidence against the trend.
    """
    bad = 0
    for a, b in zip(cells[:-1], cells[1:]):
        if b.censored or a.error or b.error:
            continue
        if b.scaled_log > a.scaled_log:
            bad += 1
    return bad
