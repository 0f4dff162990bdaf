"""Monte Carlo tail estimation at the moderate-deviation speed, plus empirical
checks of the exponential martingale estimates behind it.

All probabilities are plain Monte Carlo frequencies over paths driven by
counter-based streams: path i consumes the same numbers no matter how the
batch is cut or how many workers run, and hit counts are integer sums, so
every estimate is invariant under the worker count.  Frequencies are reported
with 95% Wilson intervals, and the logarithm is taken at the deviation speed
eps^(1 - 2 kappa).  Zero-hit cells are censored at 1/N and flagged: their
scaled log is an upper bound, which is how the trend tests treat them.

There is no importance sampling.  Cells whose probability falls well below
1/N stay censored; for the Gaussian-tail sweep, where the surrogate law is
known exactly, ``gaussian_surrogate_sweep`` evaluates the tail in closed form
instead of sampling it.

An exponential-inequality grid is scored from one draw: the martingale sampler
runs once, and every (alpha, B) cell is an integer hit count over those paths.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .deviations import CorrectorProbe, mdp_speed
from .errors import ConfigError, FastslowError
from .simulate import SupX, SupXi, SupY, path_generator, simulate_block

__all__ = [
    "Event",
    "TailEstimate",
    "wilson_interval",
    "tail_probability",
    "gaussian_surrogate_sweep",
    "InequalityCell",
    "exponential_inequality_grid",
    "check_exponential_inequality",
    "brownian_sampler",
    "stopped_brownian_sampler",
    "negligibility_xi",
    "boundedness_Y",
    "count_trend_violations",
    "write_tail_csv",
]

_Z95 = 1.959963984540054
_MIN_PATHS = 1_000
DEFAULT_BATCH = 8192

_FUNCTIONALS = ("terminal_x", "sup_x", "sup_delta")


@dataclass(frozen=True)
class Event:
    """Path event descriptor.

    functional: "terminal_x"  — component of X at the horizon exceeds threshold;
                "sup_x"       — running sup of |X_component| exceeds threshold;
                "sup_delta"   — sup of the corrector remainder norm exceeds it.
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


def wilson_interval(hits, n, z=_Z95):
    """95% Wilson score interval for a binomial frequency."""
    if n < 1:
        raise ConfigError("interval needs at least one trial")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # at the extremes center -+ half is exactly 0 / 1 analytically; clamp the
    # rounding residue so the interval always brackets p
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def _scaled_log(hits, n, speed):
    censored = hits == 0
    p_for_log = max(hits, 1) / n
    return speed * math.log(p_for_log), censored


def _run_batches(count_fn, N, batch, workers):
    """Sum integer hit counts over path-id batches; order-independent."""
    jobs = [range(s, min(s + batch, N)) for s in range(0, N, batch)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            parts = list(pool.map(count_fn, jobs))
    else:
        parts = [count_fn(j) for j in jobs]
    return np.sum(np.asarray(parts, dtype=np.int64), axis=0)


def _cell(event, epsilon, N, hits, speed, *, C=None):
    lo, hi = wilson_interval(hits, N)
    s_log, censored = _scaled_log(hits, N, speed)
    return TailEstimate(
        event=event,
        epsilon=epsilon,
        N=N,
        hits=int(hits),
        p_hat=hits / N,
        ci_lo=lo,
        ci_hi=hi,
        scaled_log=s_log,
        censored=censored,
        C=C,
    )


def _failed_cell(event, epsilon, N, err, *, C=None):
    nan = math.nan
    return TailEstimate(
        event=event, epsilon=epsilon, N=N, hits=0, p_hat=nan, ci_lo=nan,
        ci_hi=nan, scaled_log=nan, censored=False, C=C,
        error=f"{type(err).__name__}: {err}",
    )


def tail_probability(
    spec,
    event,
    epsilon_list,
    N,
    h,
    seed,
    *,
    family=None,
    batch=DEFAULT_BATCH,
    workers=None,
    c_fast=0.1,
):
    """Estimate P(event) for each epsilon with the eps^(1-2 kappa) log scaling.

    A simulation failure (blow-up, grid exit) aborts only its epsilon cell;
    the failed cell carries the error message and NaN statistics.
    """
    N = int(N)
    if N < _MIN_PATHS:
        raise ConfigError(f"N must be at least {_MIN_PATHS} paths, got {N}")
    if event.functional == "sup_delta" and family is None:
        raise ConfigError("sup_delta events need a solved corrector family")

    out = []
    for eps in epsilon_list:
        spec_e = spec.with_epsilon(eps)
        speed = mdp_speed(spec_e)

        def count(ids, spec_e=spec_e):
            probes = ()
            if event.functional == "sup_x":
                probes = (SupX(),)
            elif event.functional == "sup_delta":
                probes = (CorrectorProbe(spec_e, family, h, c_fast=c_fast),)
            run = simulate_block(
                spec_e, event.T, h, seed, list(ids), c_fast=c_fast, probes=probes
            )
            if event.functional == "terminal_x":
                vals = run.X[:, event.component]
            elif event.functional == "sup_x":
                vals = probes[0].value[:, event.component]
            else:
                vals = probes[0].sup_delta
            return int(np.count_nonzero(vals > event.threshold))

        try:
            hits = int(_run_batches(count, N, batch, workers))
        except FastslowError as err:
            out.append(_failed_cell(event, eps, N, err))
            continue
        out.append(_cell(event, eps, N, hits, speed))
    return out


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


def exponential_inequality_grid(martingale_sampler, alphas, Bs, T, N, seed):
    """Score every (alpha, B) cell of the exponential-inequality grid from one
    draw of N martingale paths.

    The sampler is called exactly once and must return (running sup of |M|,
    terminal quadratic variation) per path; a sampler that does not track the
    quadratic variation cannot form the conjunction and is rejected.  Cells
    come back alpha-major, in the order of ``alphas`` then ``Bs``.
    """
    alphas = [float(a) for a in alphas]
    Bs = [float(B) for B in Bs]
    if not all(a > 0.0 for a in alphas) or not all(B > 0.0 for B in Bs):
        raise ConfigError("alpha and B must be positive")
    N = int(N)
    if N < 1:
        raise ConfigError(f"N must be at least 1 path, got {N}")
    sup_abs, qv = martingale_sampler(N, T, seed)
    if qv is None:
        raise ConfigError(
            "sampler returned no quadratic variation; the bounded-bracket "
            "event cannot be formed"
        )
    sup_abs = np.asarray(sup_abs, float)
    qv = np.asarray(qv, float)
    cells = []
    for alpha in alphas:
        reached = sup_abs >= alpha
        for B in Bs:
            hits = int(np.count_nonzero(reached & (qv <= B)))
            bound = 2.0 * math.exp(-(alpha * alpha) / (2.0 * B))
            cells.append(InequalityCell(alpha, B, N, hits, hits / N, bound))
    return cells


def check_exponential_inequality(martingale_sampler, alpha, B, T, N, seed):
    """Empirical frequency of {sup_t |M_t| >= alpha and <M>_T <= B} against
    the exponential bound 2 exp(-alpha^2 / (2B)): the 1 x 1 grid."""
    (cell,) = exponential_inequality_grid(martingale_sampler, [alpha], [B], T, N, seed)
    return cell.frequency, cell.bound


def brownian_sampler(n_steps=1000):
    """Sampler of standard Brownian paths; predictable bracket <W>_t = t."""

    def sample(N, T, seed):
        h = T / n_steps
        sq_h = math.sqrt(h)
        gen = path_generator(seed)
        M = np.zeros(N)
        sup_abs = np.zeros(N)
        for _ in range(n_steps):
            M = M + sq_h * gen.standard_normal(N)
            np.maximum(sup_abs, np.abs(M), out=sup_abs)
        return sup_abs, np.full(N, T)

    return sample


def stopped_brownian_sampler(qv_cap, n_steps=1000):
    """Brownian motion stopped when its bracket reaches qv_cap (a stopping
    time), so <M>_T = min(T, qv_cap) while the bound still applies."""
    if qv_cap <= 0.0:
        raise ConfigError("qv_cap must be positive")

    def sample(N, T, seed):
        h = T / n_steps
        sq_h = math.sqrt(h)
        gen = path_generator(seed)
        M = np.zeros(N)
        sup_abs = np.zeros(N)
        qv = np.zeros(N)
        for _ in range(n_steps):
            dW = sq_h * gen.standard_normal(N)
            alive = qv < qv_cap
            M = M + np.where(alive, dW, 0.0)
            qv = qv + np.where(alive, h, 0.0)
            np.maximum(sup_abs, np.abs(M), out=sup_abs)
        return sup_abs, qv

    return sample


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
    batch=DEFAULT_BATCH,
    workers=None,
    c_fast=0.1,
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
    out = []
    for eps in epsilon_list:
        spec_e = spec.with_epsilon(eps)
        speed = mdp_speed(spec_e)
        scale = float(eps) ** l_exp

        def count(ids, spec_e=spec_e, scale=scale):
            sup_xi = SupXi()
            simulate_block(spec_e, T, h, seed, list(ids), c_fast=c_fast, probes=(sup_xi,))
            return int(np.count_nonzero(scale * sup_xi.value**p_exp > eta))

        try:
            hits = int(_run_batches(count, N, batch, workers))
        except FastslowError as err:
            out.append(_failed_cell(label, eps, N, err))
            continue
        out.append(_cell(label, eps, N, hits, speed))
    return out


def boundedness_Y(
    spec,
    C_list,
    T,
    h,
    N,
    seed,
    *,
    batch=DEFAULT_BATCH,
    workers=None,
    c_fast=0.1,
):
    """Scaled log-frequency of {sup_t |Y_t| > C} for each level C, from one
    shared batch of paths at the model's own epsilon."""
    N = int(N)
    C_arr = np.asarray(list(C_list), float)
    speed = mdp_speed(spec)

    def count(ids):
        sup_y = SupY()
        simulate_block(spec, T, h, seed, list(ids), c_fast=c_fast, probes=(sup_y,))
        return (sup_y.value[:, None] > C_arr[None, :]).sum(axis=0)

    hits_per_C = _run_batches(count, N, batch, workers)
    return [
        _cell(f"sup_t |Y_t| > {C}", spec.epsilon, N, int(hits), speed, C=float(C))
        for C, hits in zip(C_arr, hits_per_C)
    ]


def count_trend_violations(cells, *, tol=0.0):
    """Number of adjacent scaled_log increases along a sweep.

    A censored later cell never counts: its value is only an upper bound, so
    an apparent increase into the censor is not evidence against the trend.
    """
    bad = 0
    for a, b in zip(cells[:-1], cells[1:]):
        if b.censored or a.error or b.error:
            continue
        if b.scaled_log > a.scaled_log + tol:
            bad += 1
    return bad


def write_tail_csv(cells, file):
    """Sweep rows: (epsilon or C), N, hits, p_hat, ci_lo, ci_hi, scaled_log,
    censored."""
    by_C = any(c.C is not None for c in cells)
    key = "C" if by_C else "epsilon"
    with open(file, "w", newline="\n") as fh:
        fh.write(f"{key},N,hits,p_hat,ci_lo,ci_hi,scaled_log,censored\n")
        for c in cells:
            lead = c.C if by_C else c.epsilon
            fh.write(
                ",".join(
                    [
                        repr(float(lead)),
                        str(c.N),
                        str(c.hits),
                        repr(float(c.p_hat)),
                        repr(float(c.ci_lo)),
                        repr(float(c.ci_hi)),
                        repr(float(c.scaled_log)),
                        str(int(c.censored)),
                    ]
                )
                + "\n"
            )
