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

This module evaluates that decomposition on simulated paths with a
streaming probe that rides the batch kernel without storing paths
(``CorrectorProbe``), reading a cell-solution family that the caller
tabulates on its own grids (``poisson.solve_family``).  The sweep measuring
how fast sup |Delta| — and each term separately — becomes negligible on the
deviation scale is ``mcengine.negligibility_sweep``: it runs the probe through
the one sweep driver that every path statistic shares, so its batches, its
determinism and its per-cell failures are those of the tail sweeps.
"""

from __future__ import annotations

import numpy as np

from .simulate import Probe

__all__ = [
    "CorrectorProbe",
    "mdp_speed",
]


def mdp_speed(spec):
    """The deviation speed eps^(1 - 2 kappa) of the model's regime."""
    return spec.epsilon ** (1.0 - 2.0 * spec.kappa)


def _slow_generator_terms(spec, vals, xi, Y):
    """(d_y u . F, tr(G G^T d2_y u), d_y u, G) at left-endpoint states, given
    the family's values there."""
    dy_u = vals.du_dy                                     # (..., p, l)
    d2y_u = vals.d2u_dy2                                  # (..., p, l, l)
    F = np.asarray(spec.F(xi, Y), float)
    G = np.asarray(spec.G(xi, Y), float)
    G = np.broadcast_to(G, xi.shape[:-1] + (spec.l, spec.l))
    GG = np.einsum("...ij,...kj->...ik", G, G)
    adv = np.einsum("...pl,...l->...p", dy_u, F)
    trace = np.einsum("...ij,...pij->...p", GG, d2y_u)
    return adv, trace, dy_u, G


class CorrectorProbe(Probe):
    """Streaming corrector statistics over a batch of paths.

    A probe of the batch kernel (see simulate) that accumulates, per
    path and without storing trajectories: the martingale and its bracket,
    the three remainder terms with their running sups, the running sup of
    |Delta|, and the worst node-wise defect of the decomposition identity.

    The family is evaluated once per visited state, with one stencil giving
    u, grad_u, du_dy and d2u_dy2 together: ``start`` and ``node`` evaluate
    the node state, and ``macro(k)`` and ``micro(k, 0)`` reuse those values,
    since the kernel hands them the very arrays of that node.  Only micro
    states j >= 1 cost a further evaluation, so a block of n_macro steps
    evaluates (n_macro + 1) + n_macro (n_sub - 1) times, and the family's
    ``clamped_count`` grows by one per clamped visited state.  The micro
    step h_sub = h / n_sub is the kernel's, read off the increments dB
    (B, n_sub, d) that ``macro`` receives.

    After the run: sup_abs_delta, sup_boundary, sup_drift, sup_noise,
    identity_residual — all (B,); M and delta_T (B, p); qv (B, p, p).
    """

    def __init__(self, spec, family, h):
        self.spec = spec
        self.family = family
        self.h = h
        eps, kappa = spec.epsilon, spec.kappa
        self._s_mart = eps ** (0.5 - kappa)
        self._s_bdry = eps ** (1.0 - kappa)
        self._s_noise = eps ** (1.5 - 2.0 * kappa)
        self._s_trace = 0.5 * eps ** (1.0 - 2.0 * kappa)

    def start(self, xi, Y, X):
        B = xi.shape[0]
        p = self.family.p
        self._node = self.family.at(xi, Y)
        self.u0 = self._node.u.copy()       # not a view pinning the whole stencil
        self.M = np.zeros((B, p))
        self.qv = np.zeros((B, p, p))
        self.drift_sum = np.zeros((B, p))
        self.noise_sum = np.zeros((B, p))
        self.sup_abs_delta = np.zeros(B)
        self.sup_boundary = np.zeros(B)
        self.sup_drift = np.zeros(B)
        self.sup_noise = np.zeros(B)
        self.identity_residual = np.zeros(B)
        self.delta_T = np.zeros((B, p))

    def macro(self, k, xi, Y, dB, dW):
        self.h_sub = self.h / dB.shape[1]
        adv, trace, dy_u, G = _slow_generator_terms(self.spec, self._node, xi, Y)
        self.drift_sum += self.h * (adv + self._s_trace * trace)
        self.noise_sum += np.einsum("...pl,...lj,...j->...p", dy_u, G, dW)

    def micro(self, k, j, z, Y, dB_j):
        vals = self._node if j == 0 else self.family.at(z, Y)
        g = vals.grad_u
        sig = np.asarray(self.spec.sigma(z, Y), float)
        sig = np.broadcast_to(sig, z.shape[:-1] + (self.spec.d, self.spec.d))
        self.M += np.einsum("...pi,...ij,...j->...p", g, sig, dB_j)
        a = np.einsum("...ij,...kj->...ik", sig, sig)
        self.qv += self.h_sub * np.einsum("...pi,...ij,...qj->...pq", g, a, g)

    def node(self, k, xi, Y, X):
        self._node = self.family.at(xi, Y)
        u_k = self._node.u
        xhat = self._s_mart * self.M
        delta = X - xhat
        boundary = self._s_bdry * (self.u0 - u_k)
        drift = self._s_bdry * self.drift_sum
        noise = self._s_noise * self.noise_sum
        formula = boundary + drift + noise

        def track(buf, arr):
            np.maximum(buf, np.max(np.abs(arr), axis=-1), out=buf)

        track(self.sup_abs_delta, delta)
        track(self.sup_boundary, boundary)
        track(self.sup_drift, drift)
        track(self.sup_noise, noise)
        track(self.identity_residual, delta - formula)
        self.delta_T = delta
