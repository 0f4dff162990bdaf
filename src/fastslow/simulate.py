"""Time steppers for the coupled pair, the frozen fast flow, and path batches.

Scheme
------
Euler-Maruyama on a uniform macro mesh of step h.  The fast component is stiff
(drift ~ 1/epsilon), so inside each macro step it is advanced with n_sub
uniform micro-steps of length h_fast = h / n_sub, where n_sub is the smallest
integer making h_fast <= c_fast * epsilon.  The slow component Y and the
integral functional X are advanced once per macro step with left-endpoint
evaluation; Y is held frozen while the fast state sub-steps.  X accumulates
the left-endpoint Riemann sum of epsilon^(-kappa) H(xi, Y) on the macro mesh.

Randomness
----------
Every path owns a counter-based Philox stream keyed by (seed, path index), so
path i is the same array of numbers no matter how paths are grouped into
blocks, how many worker threads run, or how large the total sample is.  Within
a path the draw order is fixed: for each macro step, first the n_sub * d fast
increments, then the l slow increments.  Chunked draws from a numpy Generator
reproduce the un-chunked stream, which the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, SimulationBlowupError

__all__ = [
    "PathSample",
    "simulate_pair",
    "simulate_frozen",
    "simulate_block",
    "rho_T",
    "path_generator",
    "micro_substeps",
    "write_path_csv",
]

_MASK64 = (1 << 64) - 1

# per-block noise buffers above this many doubles are drawn per macro step
# instead of upfront (memory cap, not a semantics change)
_BUFFER_LIMIT = 12_000_000


def path_generator(seed, path_id=0):
    """Philox generator keyed by (seed, path index)."""
    key = (int(seed) & _MASK64) | ((int(path_id) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def micro_substeps(h, epsilon, c_fast=0.1):
    """Number of uniform micro-steps per macro step for the fast component."""
    cap = c_fast * epsilon
    if not np.isfinite(cap) or cap <= 0.0:
        raise ConfigError(f"unusable fast-step cap c_fast * epsilon = {cap}")
    n_sub = max(1, int(math.ceil(h / cap - 1e-12)))
    if h / n_sub <= 0.0 or not np.isfinite(h / n_sub):
        raise ConfigError("epsilon too small for the floating-point format")
    return n_sub


@dataclass
class PathSample:
    """One simulated trajectory on its macro mesh.

    xi, Y, X hold the macro-node states (N+1 rows); dB stores the fast
    Gaussian increments per micro-step (N, n_sub, d) and dW the slow ones per
    macro step (N, l), each with variance equal to its step length, so the
    trajectory can be reconstructed exactly.  xi is None for paths of an
    averaged (fast-free) system.
    """

    times: np.ndarray
    xi: np.ndarray | None
    Y: np.ndarray
    X: np.ndarray
    dB: np.ndarray | None
    dW: np.ndarray
    epsilon: float
    kappa: float
    seed: int
    path_id: int = 0
    h: float = 0.0
    n_sub: int = 1
    model_name: str = ""

    @property
    def h_fast(self):
        return self.h / self.n_sub

    @property
    def n_steps(self):
        return self.times.size - 1


class _NoiseSource:
    """Per-path Philox streams serving one macro-step chunk at a time.

    Layout per path and macro step: n_sub * d fast draws then l slow draws,
    all standard normal.  Draws are buffered in windows of as many macro
    steps as fit the memory cap; the last window holds only the steps that
    remain.  Chunked draws from a Generator reproduce the un-chunked stream,
    so the window size never changes the numbers, and each path draws
    exactly n_macro * chunk normals.
    """

    def __init__(self, seed, path_ids, n_macro, n_sub, d, l):
        self.chunk = n_sub * d + l
        self.gens = [path_generator(seed, pid) for pid in path_ids]
        B = len(self.gens)
        window = max(1, int(_BUFFER_LIMIT // max(1, B * self.chunk)))
        self._n_macro = n_macro
        self._window = min(window, n_macro)
        self._buf = np.empty((B, self._window * self.chunk))
        self._base = None

    def macro_chunk(self, k):
        if self._base is None or not self._base <= k < self._base + self._window:
            n = min(self._window, self._n_macro - k) * self.chunk
            for i, g in enumerate(self.gens):
                g.standard_normal(out=self._buf[i, :n])
            self._base = k
        off = (k - self._base) * self.chunk
        return self._buf[:, off : off + self.chunk]


def _macro_mesh(T, h):
    n = int(round(T / h))
    if n < 1 or abs(n * h - T) > 1e-9 * max(1.0, T):
        raise ConfigError(f"horizon T={T} is not an integer number of steps h={h}")
    return n, h * np.arange(n + 1)


def _check_finite(arr, k, h, what):
    if not np.all(np.isfinite(arr)):
        raise SimulationBlowupError(
            f"{what} blew up at step {k} (t = {k * h:.6g})", time_index=k, time=k * h
        )


def simulate_block(
    spec,
    T,
    h,
    seed,
    path_ids,
    *,
    c_fast=0.1,
    record=False,
    track_sup_xi=False,
    track_sup_y=False,
    track_sup_x=False,
    defect_fn=None,
    delta_probe=None,
):
    """Advance a block of paths of the coupled pair through one shared kernel.

    Statistic taps (all optional, evaluated without storing trajectories):

    track_sup_xi  — running sup of the Euclidean norm of the fast state,
                    sampled at every micro node;
    track_sup_y   — running sup over macro nodes of the l1 norm of Y;
    track_sup_x   — running sup over macro nodes of |X_c| per component;
    defect_fn     — callable (z, y) -> (..., q): its time integral is
                    accumulated on the micro mesh and the running sup of the
                    Frobenius norm of the integral is tracked per path;
    delta_probe   — object with ``start``/``macro``/``micro``/``node``/
                    ``finish`` hooks (see deviations) fed the same
                    left-endpoint states and increments as the kernel.

    Returns a namespace with terminal states and any requested statistics;
    with record=True (single path only) also the full macro trajectory and
    stored increments.
    """
    eps, kappa = spec.epsilon, spec.kappa
    d, l, p = spec.d, spec.l, spec.p
    n_macro, times = _macro_mesh(T, h)
    n_sub = micro_substeps(h, eps, c_fast)
    h_sub = h / n_sub
    B = len(path_ids)
    if record and B != 1:
        raise ConfigError("record=True is for single paths")

    noise = _NoiseSource(seed, path_ids, n_macro, n_sub, d, l)
    sq_sub, sq_h = math.sqrt(h_sub), math.sqrt(h)
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / math.sqrt(eps)
    x_gain = h * eps ** (-kappa)
    y_gain = eps ** (0.5 - kappa)

    xi = np.broadcast_to(spec.z0, (B, d)).copy()
    Y = np.broadcast_to(spec.y0, (B, l)).copy()
    X = np.zeros((B, p))

    out = SimpleNamespace(times=times, n_sub=n_sub)
    if track_sup_xi:
        sup_xi = np.linalg.norm(xi, axis=-1)
    if track_sup_y:
        sup_y = np.abs(Y).sum(axis=-1)
    if track_sup_x:
        sup_x = np.zeros((B, p))
    if defect_fn is not None:
        defect = np.asarray(defect_fn(xi, Y), float) * 0.0
        sup_defect = np.zeros(B)
    if record:
        rec_xi = np.empty((n_macro + 1, d)); rec_xi[0] = xi[0]
        rec_Y = np.empty((n_macro + 1, l)); rec_Y[0] = Y[0]
        rec_X = np.empty((n_macro + 1, p)); rec_X[0] = X[0]
        rec_dB = np.empty((n_macro, n_sub, d))
        rec_dW = np.empty((n_macro, l))
    if delta_probe is not None:
        delta_probe.start(xi, Y, X)

    for k in range(n_macro):
        chunk = noise.macro_chunk(k)
        dB = chunk[:, : n_sub * d].reshape(B, n_sub, d) * sq_sub
        dW = chunk[:, n_sub * d :] * sq_h

        # left-endpoint updates of the slow pair
        H_left = np.asarray(spec.H(xi, Y), float)
        F_left = np.asarray(spec.F(xi, Y), float)
        G_left = spec.G(xi, Y)
        X_new = X + x_gain * H_left
        Y_new = Y + h * F_left + y_gain * np.einsum("...ij,...j->...i", G_left, dW)

        if delta_probe is not None:
            delta_probe.macro(k, xi, Y, dW)

        # fast sub-stepping with Y frozen at the macro-left value; the defect
        # integral accumulates left-endpoint values on the micro mesh
        z = xi
        for j in range(n_sub):
            if defect_fn is not None:
                defect = defect + h_sub * np.asarray(defect_fn(z, Y), float)
            if delta_probe is not None:
                delta_probe.micro(k, j, z, dB[:, j])
            drift = np.asarray(spec.b(z, Y), float)
            sig = spec.sigma(z, Y)
            z = z + (h_sub * inv_eps) * drift + inv_sqeps * np.einsum(
                "...ij,...j->...i", sig, dB[:, j]
            )
            if track_sup_xi:
                np.maximum(sup_xi, np.linalg.norm(z, axis=-1), out=sup_xi)
        if defect_fn is not None:
            flat = defect.reshape(B, -1)
            np.maximum(sup_defect, np.linalg.norm(flat, axis=-1), out=sup_defect)

        xi, Y, X = z, Y_new, X_new
        _check_finite(xi, k + 1, h, "fast state")
        _check_finite(Y, k + 1, h, "slow state")

        if track_sup_y:
            np.maximum(sup_y, np.abs(Y).sum(axis=-1), out=sup_y)
        if track_sup_x:
            np.maximum(sup_x, np.abs(X), out=sup_x)
        if delta_probe is not None:
            delta_probe.node(k + 1, xi, Y, X)
        if record:
            rec_xi[k + 1] = xi[0]
            rec_Y[k + 1] = Y[0]
            rec_X[k + 1] = X[0]
            rec_dB[k] = dB[0]
            rec_dW[k] = dW[0]

    out.xi, out.Y, out.X = xi, Y, X
    if track_sup_xi:
        out.sup_xi = sup_xi
    if track_sup_y:
        out.sup_y = sup_y
    if track_sup_x:
        out.sup_x = sup_x
    if defect_fn is not None:
        out.defect = defect
        out.sup_defect = sup_defect
    if record:
        out.rec = (rec_xi, rec_Y, rec_X, rec_dB, rec_dW)
    if delta_probe is not None:
        delta_probe.finish()
    return out


def simulate_pair(spec, T, h, seed, *, path_id=0, c_fast=0.1):
    """Simulate one trajectory of the coupled (fast, slow, integral) system."""
    run = simulate_block(spec, T, h, seed, [path_id], c_fast=c_fast, record=True)
    rec_xi, rec_Y, rec_X, rec_dB, rec_dW = run.rec
    return PathSample(
        times=run.times,
        xi=rec_xi,
        Y=rec_Y,
        X=rec_X,
        dB=rec_dB,
        dW=rec_dW,
        epsilon=spec.epsilon,
        kappa=spec.kappa,
        seed=int(seed),
        path_id=int(path_id),
        h=h,
        n_sub=run.n_sub,
        model_name=spec.name,
    )


def frozen_block(spec, y, T, h, seed, path_ids, *, z_init=None, keep_states=False):
    """Batch Euler-Maruyama for the frozen fast flow dz = b dt + sigma dB.

    The frozen equation carries no 1/epsilon, so the plain step h is used.
    Returns terminal states, and optionally the whole (n+1, B, d) state array.
    """
    d = spec.d
    n, times = _macro_mesh(T, h)
    B = len(path_ids)
    y_arr = np.broadcast_to(np.atleast_1d(np.asarray(y, float)), (B, spec.l))
    z = np.broadcast_to(spec.z0 if z_init is None else np.asarray(z_init, float), (B, d)).copy()
    gens = [path_generator(seed, pid) for pid in path_ids]
    sq_h = math.sqrt(h)
    states = np.empty((n + 1, B, d)) if keep_states else None
    if keep_states:
        states[0] = z
    # draw per step across lanes in manageable chunks of steps
    step_chunk = max(1, int(_BUFFER_LIMIT // max(1, B * d)))
    k = 0
    while k < n:
        kk = min(step_chunk, n - k)
        noise = np.empty((B, kk * d))
        for i, g in enumerate(gens):
            noise[i] = g.standard_normal(kk * d)
        noise = noise.reshape(B, kk, d) * sq_h
        for j in range(kk):
            drift = np.asarray(spec.b(z, y_arr), float)
            sig = spec.sigma(z, y_arr)
            z = z + h * drift + np.einsum("...ij,...j->...i", sig, noise[:, j])
            if keep_states:
                states[k + j + 1] = z
        _check_finite(z, k + kk, h, "frozen fast state")
        k += kk
    return SimpleNamespace(times=times, z=z, states=states)


def simulate_frozen(spec, y, T, h, seed, *, path_id=0):
    """One recorded trajectory of the frozen fast flow at slow value y."""
    run = frozen_block(spec, y, T, h, seed, [path_id], keep_states=True)
    n = run.times.size - 1
    y_arr = np.broadcast_to(np.atleast_1d(np.asarray(y, float)), (spec.l,))
    return PathSample(
        times=run.times,
        xi=run.states[:, 0, :],
        Y=np.tile(y_arr, (n + 1, 1)),
        X=np.zeros((n + 1, spec.p)),
        dB=None,
        dW=np.zeros((n, spec.l)),
        epsilon=spec.epsilon,
        kappa=spec.kappa,
        seed=int(seed),
        path_id=int(path_id),
        h=h,
        n_sub=1,
        model_name=spec.name,
    )


def rho_T(path_a, path_b):
    """Path distance: sup over shared mesh nodes of the summed coordinate gaps
    of (X, Y).  Both paths must live on the same macro mesh."""
    if path_a.times.shape != path_b.times.shape or not np.allclose(
        path_a.times, path_b.times, rtol=0.0, atol=1e-12
    ):
        raise ConfigError("rho_T needs paths on a shared time mesh")
    gap = np.abs(path_a.X - path_b.X).sum(axis=1) + np.abs(path_a.Y - path_b.Y).sum(axis=1)
    return float(gap.max())


def write_path_csv(path, sample):
    """Serialize macro-node states: t, xi_1..d, Y_1..l, X_1..p."""
    cols = ["t"]
    blocks = [sample.times[:, None]]
    if sample.xi is not None:
        d = sample.xi.shape[1]
        cols += [f"xi_{i + 1}" for i in range(d)]
        blocks.append(sample.xi)
    cols += [f"Y_{i + 1}" for i in range(sample.Y.shape[1])]
    cols += [f"X_{i + 1}" for i in range(sample.X.shape[1])]
    blocks += [sample.Y, sample.X]
    data = np.hstack(blocks)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
