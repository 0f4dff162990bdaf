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

Probes
------
The kernel keeps only the current states.  Every other statistic of the
paths (a running sup, a time integral, the corrector decomposition, a full
record) is read off by a probe, an object with four hooks that the kernel
calls with the very states and increments it steps with:

    start(xi, Y, X)           the initial states, before the first step;
    macro(k, xi, Y, dB, dW)   macro step k: its left-endpoint states, its fast
                              increments dB (B, n_sub, d) and its slow ones
                              dW (B, l);
    micro(k, j, z, Y, dB_j)   micro step j of macro step k: the left-endpoint
                              fast state, the frozen Y and the increment;
    node(k, xi, Y, X)         macro node k >= 1, once its states are finite.

The left-endpoint micro states and the macro nodes are every fast state the
kernel visits.  The kernel never writes into an array it has handed to a
probe, so a probe may keep it, and a probe must not write into it either.
``Probe`` gives no-op hooks; the probes here are the running sups of |xi|,
|Y|_1 and |X| (``SupXi``, ``SupY``, ``SupX``), a defect integral
(``DefectIntegral``) and a recorder (``Recorder``).  ``deviations`` adds the
corrector decomposition (``CorrectorProbe``).
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
    "simulate_block",
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


class Probe:
    """Base of the kernel's probes: every hook is a no-op, so a probe
    overrides only the hooks its statistic needs."""

    def start(self, xi, Y, X):
        pass

    def macro(self, k, xi, Y, dB, dW):
        pass

    def micro(self, k, j, z, Y, dB_j):
        pass

    def node(self, k, xi, Y, X):
        pass


class SupXi(Probe):
    """Running sup of the Euclidean norm of the fast state over every state
    the kernel visits: ``value`` (B,)."""

    def start(self, xi, Y, X):
        self.value = np.linalg.norm(xi, axis=-1)

    def micro(self, k, j, z, Y, dB_j):
        np.maximum(self.value, np.linalg.norm(z, axis=-1), out=self.value)

    def node(self, k, xi, Y, X):
        np.maximum(self.value, np.linalg.norm(xi, axis=-1), out=self.value)


class SupY(Probe):
    """Running sup over macro nodes of the l1 norm of Y: ``value`` (B,)."""

    def start(self, xi, Y, X):
        self.value = np.abs(Y).sum(axis=-1)

    def node(self, k, xi, Y, X):
        np.maximum(self.value, np.abs(Y).sum(axis=-1), out=self.value)


class SupX(Probe):
    """Running sup over macro nodes of |X_c| per component: ``value`` (B, p)."""

    def start(self, xi, Y, X):
        self.value = np.abs(X)

    def node(self, k, xi, Y, X):
        np.maximum(self.value, np.abs(X), out=self.value)


class DefectIntegral(Probe):
    """Time integral of fn(z, Y), left-endpoint values on the micro mesh of
    step h_sub (the kernel's): ``value`` (B, ...) at the horizon, and ``sup``
    (B,), the running sup over macro nodes of its Frobenius norm."""

    def __init__(self, fn, h_sub):
        self.fn = fn
        self.h_sub = h_sub

    def start(self, xi, Y, X):
        self.value = np.asarray(self.fn(xi, Y), float) * 0.0
        self.sup = np.zeros(xi.shape[0])

    def micro(self, k, j, z, Y, dB_j):
        self.value = self.value + self.h_sub * np.asarray(self.fn(z, Y), float)

    def node(self, k, xi, Y, X):
        flat = self.value.reshape(self.sup.size, -1)
        np.maximum(self.sup, np.linalg.norm(flat, axis=-1), out=self.sup)


class Recorder(Probe):
    """Every macro-node state and every increment of each path in the block,
    as path-major arrays: xi (B, N+1, d), Y (B, N+1, l), X (B, N+1, p),
    dB (B, N, n_sub, d) and dW (B, N, l)."""

    def start(self, xi, Y, X):
        self._xi, self._Y, self._X = [xi], [Y], [X]
        self._dB, self._dW = [], []

    def macro(self, k, xi, Y, dB, dW):
        self._dB.append(dB)
        self._dW.append(dW)

    def node(self, k, xi, Y, X):
        self._xi.append(xi)
        self._Y.append(Y)
        self._X.append(X)

    xi = property(lambda self: _path_major(self._xi))
    Y = property(lambda self: _path_major(self._Y))
    X = property(lambda self: _path_major(self._X))
    dB = property(lambda self: _path_major(self._dB))
    dW = property(lambda self: _path_major(self._dW))


def _path_major(rows):
    """Per-step (B, ...) arrays as one (B, n_steps, ...) view.  One
    concatenate is several times faster than np.stack over thousands of
    small arrays, which matters for long single-path records."""
    flat = np.concatenate(rows)
    return flat.reshape((len(rows),) + rows[0].shape).swapaxes(0, 1)


def simulate_block(spec, T, h, seed, path_ids, *, c_fast=0.1, probes=()):
    """Advance a block of paths of the coupled pair through one shared kernel.

    Returns a namespace with the macro mesh ``times``, the micro-step count
    ``n_sub`` and the terminal states ``xi`` (B, d), ``Y`` (B, l) and ``X``
    (B, p).  Nothing else is stored.  Each of ``probes`` is called in order
    with ``start(xi, Y, X)`` once, ``macro(k, xi, Y, dB, dW)`` at the left end
    of macro step k, ``micro(k, j, z, Y, dB_j)`` before each micro step and
    ``node(k + 1, xi, Y, X)`` at the finite right end (see the module
    docstring).
    """
    eps, kappa = spec.epsilon, spec.kappa
    d, l, p = spec.d, spec.l, spec.p
    n_macro, times = _macro_mesh(T, h)
    n_sub = micro_substeps(h, eps, c_fast)
    h_sub = h / n_sub
    B = len(path_ids)

    noise = _NoiseSource(seed, path_ids, n_macro, n_sub, d, l)
    sq_sub, sq_h = math.sqrt(h_sub), math.sqrt(h)
    inv_eps, inv_sqeps = 1.0 / eps, 1.0 / math.sqrt(eps)
    x_gain = h * eps ** (-kappa)
    y_gain = eps ** (0.5 - kappa)

    xi = np.broadcast_to(spec.z0, (B, d)).copy()
    Y = np.broadcast_to(spec.y0, (B, l)).copy()
    X = np.zeros((B, p))
    for probe in probes:
        probe.start(xi, Y, X)

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
        for probe in probes:
            probe.macro(k, xi, Y, dB, dW)

        # fast sub-stepping with Y frozen at the macro-left value
        z = xi
        for j in range(n_sub):
            dB_j = dB[:, j]
            for probe in probes:
                probe.micro(k, j, z, Y, dB_j)
            drift = np.asarray(spec.b(z, Y), float)
            sig = spec.sigma(z, Y)
            z = z + (h_sub * inv_eps) * drift + inv_sqeps * np.einsum(
                "...ij,...j->...i", sig, dB_j
            )

        xi, Y, X = z, Y_new, X_new
        _check_finite(xi, k + 1, h, "fast state")
        _check_finite(Y, k + 1, h, "slow state")
        for probe in probes:
            probe.node(k + 1, xi, Y, X)

    return SimpleNamespace(times=times, n_sub=n_sub, xi=xi, Y=Y, X=X)


def simulate_pair(spec, T, h, seed, *, path_id=0, c_fast=0.1):
    """Simulate one trajectory of the coupled (fast, slow, integral) system."""
    rec = Recorder()
    run = simulate_block(spec, T, h, seed, [path_id], c_fast=c_fast, probes=(rec,))
    return PathSample(
        times=run.times,
        xi=rec.xi[0],
        Y=rec.Y[0],
        X=rec.X[0],
        dB=rec.dB[0],
        dW=rec.dW[0],
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
