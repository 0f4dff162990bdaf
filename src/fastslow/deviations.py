"""Corrector decomposition of the integral functional and its error terms.

With u the centered cell solution for the integrand H, Ito's formula turns
the functional X_t = eps^(-kappa) int_0^t H(xi_s, Y_s) ds into

    X_t = Xhat_t + Delta_t,
    Xhat_t = eps^(1/2 - kappa) M_t,
    M_t    = int_0^t (grad_z u)(xi, Y) sigma(xi, Y) dB,

where the remainder collects three small pieces:

    Delta_t = eps^(1 - kappa)     [u(xi_0, Y_0) - u(xi_t, Y_t)]        boundary
            + eps^(1 - kappa)     int ( F . d_y u
                                    + (eps^(1-2kappa)/2) tr(G G^T d2_y u) ) ds
            + eps^(3/2 - 2kappa)  int (d_y u)^T G dW .                 slow noise

Everything here evaluates that decomposition on simulated paths: a replay of
a recorded trajectory (``corrector_path``), a streaming probe that rides the
batch kernel without storing paths (``CorrectorProbe``), and a sweep measuring
how fast sup |Delta| — and each term separately — becomes negligible on the
deviation scale (``negligibility_sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import RectGrid
from .poisson import solve_family
from .simulate import Probe, micro_substeps, simulate_block

__all__ = [
    "DeltaReport",
    "corrector_path",
    "CorrectorProbe",
    "TermStat",
    "SweepCell",
    "negligibility_sweep",
    "write_sweep_csv",
    "mdp_speed",
]


def mdp_speed(spec):
    """The deviation speed eps^(1 - 2 kappa) of the model's regime."""
    return spec.epsilon ** (1.0 - 2.0 * spec.kappa)


@dataclass
class DeltaReport:
    """Corrector decomposition along one macro mesh.

    All paths are (N+1, p) node arrays; term paths carry their eps powers, so
    at every node  X = xhat + boundary + drift + slow_noise + O(residual).
    """

    times: np.ndarray
    xhat: np.ndarray
    delta: np.ndarray
    boundary: np.ndarray
    drift: np.ndarray
    slow_noise: np.ndarray
    qv: np.ndarray
    identity_residual: float
    sup_abs_delta: float
    n_clamped: int
    epsilon: float
    kappa: float


def _slow_generator_terms(spec, family, xi, Y, clamp_z):
    """(d_y u . F, tr(G G^T d2_y u), d_y u, G) at left-endpoint states."""
    dy_u = family.du_dy_at(xi, Y, clamp_z=clamp_z)        # (..., p, l)
    d2y_u = family.d2u_dy2_at(xi, Y, clamp_z=clamp_z)     # (..., p, l, l)
    F = np.asarray(spec.F(xi, Y), float)
    G = np.asarray(spec.G(xi, Y), float)
    G = np.broadcast_to(G, xi.shape[:-1] + (spec.l, spec.l))
    GG = np.einsum("...ij,...kj->...ik", G, G)
    adv = np.einsum("...pl,...l->...p", dy_u, F)
    trace = np.einsum("...ij,...pij->...p", GG, d2y_u)
    return adv, trace, dy_u, G


def corrector_path(sample, family, spec=None):
    """Replay a recorded trajectory through the corrector decomposition.

    The fast micro states are rebuilt from the stored increments with the
    same update arithmetic as the simulator, all macro steps in parallel, so
    the reconstructed martingale sees exactly the states the kernel visited.
    """
    if spec is None:
        spec = family.spec
    if sample.dB is None:
        raise ConfigError("corrector replay needs a path recorded with fast increments")
    eps, kappa = sample.epsilon, sample.kappa
    N, n_sub = sample.n_steps, sample.n_sub
    h, h_sub = sample.h, sample.h_fast
    p = family.p

    clamped_before = family.clamped_count
    u_nodes = family.u_at(sample.xi, sample.Y, clamp_z=True)        # (N+1, p)

    xi_left, Y_left = sample.xi[:-1], sample.Y[:-1]
    adv, trace, dy_u, G = _slow_generator_terms(spec, family, xi_left, Y_left, True)
    lag_u = adv + 0.5 * eps ** (1.0 - 2.0 * kappa) * trace
    drift_steps = h * lag_u                                          # (N, p)
    noise_steps = np.einsum("...pl,...lj,...j->...p", dy_u, G, sample.dW)

    # micro replay, vectorized across macro steps
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / math.sqrt(eps)
    z = xi_left.copy()
    m_steps = np.zeros((N, p))
    qv = np.zeros((p, p))
    for j in range(n_sub):
        g = family.grad_u_at(z, Y_left, clamp_z=True)                # (N, p, d)
        sig = np.asarray(spec.sigma(z, Y_left), float)
        sig = np.broadcast_to(sig, z.shape[:-1] + (spec.d, spec.d))
        m_steps += np.einsum("...pi,...ij,...j->...p", g, sig, sample.dB[:, j])
        a = np.einsum("...ij,...kj->...ik", sig, sig)
        qv += h_sub * np.einsum("npi,nij,nqj->pq", g, a, g)
        drift = np.asarray(spec.b(z, Y_left), float)
        z = z + (h_sub * inv_eps) * drift + inv_sqeps * np.einsum(
            "...ij,...j->...i", sig, sample.dB[:, j]
        )

    def cum(steps):
        out = np.zeros((N + 1, p))
        np.cumsum(steps, axis=0, out=out[1:])
        return out

    xhat = eps ** (0.5 - kappa) * cum(m_steps)
    boundary = eps ** (1.0 - kappa) * (u_nodes[0] - u_nodes)
    drift_path = eps ** (1.0 - kappa) * cum(drift_steps)
    noise_path = eps ** (1.5 - 2.0 * kappa) * cum(noise_steps)
    delta = sample.X - xhat
    residual = delta - (boundary + drift_path + noise_path)
    return DeltaReport(
        times=sample.times,
        xhat=xhat,
        delta=delta,
        boundary=boundary,
        drift=drift_path,
        slow_noise=noise_path,
        qv=qv,
        identity_residual=float(np.max(np.abs(residual))),
        sup_abs_delta=float(np.max(np.abs(delta))),
        n_clamped=family.clamped_count - clamped_before,
        epsilon=eps,
        kappa=kappa,
    )


class CorrectorProbe(Probe):
    """Streaming corrector statistics over a batch of paths.

    A probe of the batch kernel (see simulate) that accumulates, per
    path and without storing trajectories: the martingale and its bracket,
    the three remainder terms with their running sups, the running sup of
    |Delta|, and the worst node-wise defect of the decomposition identity.

    After the run: sup_delta, sup_boundary, sup_drift, sup_noise,
    identity_residual — all (B,); delta_T (B, p); qv (B, p, p).
    """

    def __init__(self, spec, family, h, *, c_fast=0.1, clamp_z=True):
        self.spec = spec
        self.family = family
        self.h = h
        self.n_sub = micro_substeps(h, spec.epsilon, c_fast)
        self.h_sub = h / self.n_sub
        self.clamp_z = clamp_z
        eps, kappa = spec.epsilon, spec.kappa
        self._s_mart = eps ** (0.5 - kappa)
        self._s_bdry = eps ** (1.0 - kappa)
        self._s_noise = eps ** (1.5 - 2.0 * kappa)
        self._s_trace = 0.5 * eps ** (1.0 - 2.0 * kappa)

    def start(self, xi, Y, X):
        B = xi.shape[0]
        p = self.family.p
        self.u0 = self.family.u_at(xi, Y, clamp_z=self.clamp_z)
        self.M = np.zeros((B, p))
        self.qv = np.zeros((B, p, p))
        self.drift_sum = np.zeros((B, p))
        self.noise_sum = np.zeros((B, p))
        self.sup_delta = np.zeros(B)
        self.sup_boundary = np.zeros(B)
        self.sup_drift = np.zeros(B)
        self.sup_noise = np.zeros(B)
        self.identity_residual = np.zeros(B)
        self.delta_T = np.zeros((B, p))

    def macro(self, k, xi, Y, dB, dW):
        adv, trace, dy_u, G = _slow_generator_terms(
            self.spec, self.family, xi, Y, self.clamp_z
        )
        self.drift_sum += self.h * (adv + self._s_trace * trace)
        self.noise_sum += np.einsum("...pl,...lj,...j->...p", dy_u, G, dW)

    def micro(self, k, j, z, Y, dB_j):
        g = self.family.grad_u_at(z, Y, clamp_z=self.clamp_z)
        sig = np.asarray(self.spec.sigma(z, Y), float)
        sig = np.broadcast_to(sig, z.shape[:-1] + (self.spec.d, self.spec.d))
        self.M += np.einsum("...pi,...ij,...j->...p", g, sig, dB_j)
        a = np.einsum("...ij,...kj->...ik", sig, sig)
        self.qv += self.h_sub * np.einsum("...pi,...ij,...qj->...pq", g, a, g)

    def node(self, k, xi, Y, X):
        u_k = self.family.u_at(xi, Y, clamp_z=self.clamp_z)
        xhat = self._s_mart * self.M
        delta = X - xhat
        boundary = self._s_bdry * (self.u0 - u_k)
        drift = self._s_bdry * self.drift_sum
        noise = self._s_noise * self.noise_sum
        formula = boundary + drift + noise

        def track(buf, arr):
            np.maximum(buf, np.max(np.abs(arr), axis=-1), out=buf)

        track(self.sup_delta, delta)
        track(self.sup_boundary, boundary)
        track(self.sup_drift, drift)
        track(self.sup_noise, noise)
        track(self.identity_residual, delta - formula)
        self.delta_T = delta


@dataclass
class TermStat:
    """Tail frequency of one sup statistic at one epsilon.

    ``error`` stays empty here; the field exists so term stats share the
    trend-counting interface of tail-sweep cells.
    """

    n_hits: int
    p_hat: float
    scaled_log: float
    censored: bool
    error: str = ""


@dataclass
class SweepCell:
    """Tail statistics of sup |Delta| (and its three terms) at one epsilon."""

    epsilon: float
    n_paths: int
    delta: TermStat
    boundary: TermStat
    drift: TermStat
    slow_noise: TermStat
    median_sup: float
    max_sup: float
    max_identity_residual: float


def _term_stat(sups, threshold, speed, n):
    hits = int(np.sum(sups > threshold))
    p_hat = hits / n
    return TermStat(
        n_hits=hits,
        p_hat=p_hat,
        scaled_log=speed * math.log(max(p_hat, 1.0 / n)),
        censored=hits == 0,
    )


def negligibility_sweep(
    spec,
    epsilon_list,
    eta,
    T,
    h,
    N,
    seed,
    *,
    family=None,
    y_grid=None,
    z_grid=None,
    c_fast=0.1,
):
    """P(sup_t |Delta_t| > eta) along a decreasing epsilon list, with the
    same statistic for each of the three remainder terms separately.

    Cell solutions are epsilon-free, so one tabulated family serves the whole
    sweep; a default family is built over y_grid x z_grid when none is given.
    Zero-hit cells report the 1/N censor value with a flag — an upper bound,
    not an estimate.
    """
    if family is None:
        if y_grid is None:
            y_grid = RectGrid.from_bounds([(-4.0, 4.0, 17)] * spec.l)
        if z_grid is None:
            z_grid = RectGrid.from_bounds([(-6.0, 6.0, 601 if spec.d == 1 else 101)] * spec.d)
        family = solve_family(spec, y_grid, z_grid)
    cells = []
    for eps in epsilon_list:
        spec_e = spec.with_epsilon(float(eps))
        speed = mdp_speed(spec_e)
        probe = CorrectorProbe(spec_e, family, h, c_fast=c_fast)
        simulate_block(spec_e, T, h, seed, list(range(N)), c_fast=c_fast, probes=(probe,))
        cells.append(
            SweepCell(
                epsilon=float(eps),
                n_paths=N,
                delta=_term_stat(probe.sup_delta, eta, speed, N),
                boundary=_term_stat(probe.sup_boundary, eta, speed, N),
                drift=_term_stat(probe.sup_drift, eta, speed, N),
                slow_noise=_term_stat(probe.sup_noise, eta, speed, N),
                median_sup=float(np.median(probe.sup_delta)),
                max_sup=float(np.max(probe.sup_delta)),
                max_identity_residual=float(np.max(probe.identity_residual)),
            )
        )
    return cells


def write_sweep_csv(cells, path):
    """One row per (epsilon, statistic): epsilon, statistic, N, hits, p_hat,
    scaled_log, censored."""
    with open(path, "w", newline="\n") as fh:
        fh.write("epsilon,statistic,N,hits,p_hat,scaled_log,censored\n")
        for c in cells:
            for name in ("delta", "boundary", "drift", "slow_noise"):
                t = getattr(c, name)
                fh.write(
                    ",".join(
                        [
                            repr(float(c.epsilon)),
                            name,
                            str(c.n_paths),
                            str(t.n_hits),
                            repr(float(t.p_hat)),
                            repr(float(t.scaled_log)),
                            str(int(t.censored)),
                        ]
                    )
                    + "\n"
                )
