"""One kernel steps the coupled pair, its path batches and the frozen fast flow.

Scheme
------
Euler-Maruyama on a uniform macro mesh of step h.  The fast component is stiff
(drift ~ 1/epsilon), so inside each macro step it is advanced with n_sub
uniform micro-steps of length h_sub = h / n_sub, where n_sub is the smallest
integer making h_sub <= 0.1 epsilon (``micro_substeps``).  The kernel alone
chooses n_sub; a probe reads it off the fast increments that ``macro``
receives, n_sub = dB.shape[1].  The slow component Y and the integral
functional X are advanced once per macro step with left-endpoint
evaluation; Y is held frozen while the fast state sub-steps.  X accumulates
the left-endpoint Riemann sum of epsilon^(-kappa) H(xi, Y) on the macro mesh.
The frozen fast flow dz = b(z, y) dt + sigma(z, y) dB is the fast equation on
the epsilon clock, path 0 of this kernel on ``stationary.frozen_model``.

Randomness
----------
Paths are grouped into lane blocks of ``LANES`` = 256: path i is lane
i % LANES of block i // LANES, and block b of seed s draws from one SFC64
stream, ``path_generator(s, b)``, seeded by the SeedSequence of entropy s and
spawn key (b,), the b-th child of ``SeedSequence(s).spawn``.  The spawn key
keeps (s, b) apart from every other pair; an entropy list [s, b] would not,
since [2**32, 0] and [0, 1], or [7, 0] and [7], hash to the same state.
SFC64 draws normals 1.4-1.8x faster than Philox, and nothing here needs a
counter-based generator's jump-ahead.  The stream's layout is
(n_macro, chunk, LANES) in row-major order, with chunk = n_sub * d + l: for each
macro step, first the n_sub * d fast increments of every lane, then the l slow
ones, one row of LANES normals per increment component.  A block's lanes are
always drawn whole, so path i is the same array of numbers no matter how paths
are grouped into batches, how many worker threads run, or how large the total
sample is.  Draws are made a window of macro steps at a time; chunked draws from
a numpy Generator reproduce the unchunked stream, so the window size never
changes the numbers, which the tests assert.

Each macro step reaches the kernel as component-major (chunk, B) rows, which
it scales without a path-major transpose: ``dB`` is a (B, n_sub, d) array whose
micro slices ``dB[:, j]`` are C-contiguous (B, d) arrays, and ``dW`` is a
C-contiguous (B, l) array.  The layout is part of the numbers: einsum's
summation order follows its operands' layout, so at d >= 2 a strided view of
the same increments can move a state in its last bit.

Probes
------
The kernel keeps only the current states.  Every other statistic of the
paths (a running sup, a time integral, the corrector decomposition, a full
record) is read off by a probe, an object with four hooks that the kernel
calls with the very states and increments it steps with:

    start(xi, Y, X)           the initial states, before the first step;
    macro(k, xi, Y, dB, dW)   macro step k: its left-endpoint states, its fast
                              increments dB (B, n_sub, d), which carry the
                              micro mesh and whose micro slices are
                              C-contiguous, and its slow ones dW (B, l);
    micro(k, j, z, Y, dB_j)   micro step j of macro step k: the left-endpoint
                              fast state, the frozen Y and the increment;
    node(k, xi, Y, X)         macro node k >= 1, once its states are finite.

The left-endpoint micro states and the macro nodes are every fast state the
kernel visits.  ``macro(k, ...)`` and ``micro(k, 0, ...)`` receive the very
xi and Y arrays that ``node(k, ...)`` received (``start`` for k = 0), so a
probe may reuse what it computed at the node.  The kernel never writes into
an array it has handed to a probe, so a probe may keep it, and a probe must
not write into it either.
``Probe`` gives no-op hooks; the probes here are the running sups of |xi|,
|Y|_1 and |X| (``SupXi``, ``SupY``, ``SupX``), a defect integral
(``DefectIntegral``) and a recorder (``Recorder``).  ``deviations`` adds the
corrector decomposition (``CorrectorProbe``).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, SimulationBlowupError

__all__ = [
    "simulate_block",
    "path_generator",
    "micro_substeps",
]

LANES = 256

_MASK64 = (1 << 64) - 1

# doubles in one draw window (2 MB, about a core's L2 cache): a refill draws as
# many macro steps as fit, at least one (a memory cap, not a semantics change)
_BUFFER_LIMIT = 262_144


def path_generator(seed, block=0):
    """SFC64 generator of lane block ``block`` under ``seed``: the child of
    ``SeedSequence(seed)`` with spawn key (block,), both ids taken mod 2**64."""
    seq = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(int(block) & _MASK64,))
    return np.random.Generator(np.random.SFC64(seq))


def micro_substeps(h, epsilon, c_fast=0.1):
    """Number of uniform micro-steps per macro step for the fast component."""
    cap = c_fast * epsilon
    if not np.isfinite(cap) or cap <= 0.0:
        raise ConfigError(f"unusable fast-step cap c_fast * epsilon = {cap}")
    n_sub = max(1, int(math.ceil(h / cap - 1e-12)))
    if h / n_sub <= 0.0 or not np.isfinite(h / n_sub):
        raise ConfigError("epsilon too small for the floating-point format")
    return n_sub


class _NoiseSource:
    """Lane-block streams serving one macro-step chunk of a set of paths at a time.

    Path i is lane i % LANES of block i // LANES, whose stream has the layout
    (n_macro, chunk, LANES).  The requested ids are grouped by block, and one
    (n_blocks, window * chunk, LANES) buffer holds the next ``window`` macro
    steps of every block, filled by one ``standard_normal(out=...)`` call per
    block.  The window is as many macro steps as fit ``_BUFFER_LIMIT`` doubles,
    at least one, and the last window holds only the steps that remain.  A
    block is drawn whole even when only some of its lanes are requested, so
    each block draws exactly n_macro * chunk * LANES normals and neither the
    batch nor N changes path i.

    ``macro_chunk(k)`` returns macro step k component-major, as (chunk, B)
    rows: row c holds increment component c of every path, in the order of the
    ids.  When the ids run consecutively from a block boundary (every Monte
    Carlo batch) the rows are one copy of whole 256-lane runs of the buffer;
    otherwise a ``take`` with a (chunk, B) index gathers them.  The kernel
    scales these contiguous rows; it never needs a path-major transpose.
    """

    def __init__(self, seed, path_ids, n_macro, chunk):
        ids = np.asarray(path_ids, dtype=np.int64)
        blocks, slot = np.unique(ids // LANES, return_inverse=True)
        self.chunk = chunk
        self.gens = [path_generator(seed, b) for b in blocks]
        window = _BUFFER_LIMIT // max(1, blocks.size * chunk * LANES)
        self._n_macro = n_macro
        self._window = min(max(1, window), n_macro)
        self._buf = np.empty((blocks.size, self._window * chunk, LANES))
        self._base = None
        self._B = ids.size
        start = int(blocks[0]) * LANES if ids.size else 0
        if np.array_equal(ids, np.arange(start, start + ids.size)):
            self._gather = None
        else:
            # flat buffer index of each id's first row at window offset 0
            lane = slot * self._buf[0].size + ids % LANES
            self._gather = np.arange(chunk)[:, None] * LANES + lane

    def macro_chunk(self, k):
        if self._base is None or not self._base <= k < self._base + self._window:
            n = min(self._window, self._n_macro - k) * self.chunk
            for gen, rows in zip(self.gens, self._buf):
                gen.standard_normal(out=rows[:n])
            self._base = k
        off = (k - self._base) * self.chunk
        if self._gather is None:
            rows = self._buf[:, off : off + self.chunk].transpose(1, 0, 2)
            return rows.reshape(self.chunk, -1)[:, : self._B]
        return np.take(self._buf, self._gather + off * LANES)


def macro_mesh(T, h):
    """Step count and nodes of the uniform mesh of step h on [0, T]."""
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
    """Time integral of fast(z, Y) - slow(Y), left-endpoint values on the
    kernel's micro mesh of a macro mesh of step h: ``value`` (B, ...) at the
    horizon, and ``sup`` (B,), the running sup over macro nodes of its
    Frobenius norm.  Y is frozen through a macro step, so slow(Y) is
    evaluated once per macro step, in ``macro``."""

    def __init__(self, fast, slow, h):
        self.fast = fast
        self.slow = slow
        self.h = h

    def start(self, xi, Y, X):
        self.value = np.asarray(self.fast(xi, Y), float) * 0.0
        self.sup = np.zeros(xi.shape[0])

    def macro(self, k, xi, Y, dB, dW):
        self.h_sub = self.h / dB.shape[1]
        self._slow = self.slow(Y)

    def micro(self, k, j, z, Y, dB_j):
        self.value = self.value + self.h_sub * (
            np.asarray(self.fast(z, Y), float) - self._slow
        )

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


def simulate_block(spec, T, h, seed, path_ids, *, probes=()):
    """Advance a block of paths of the coupled pair through one shared kernel.

    ``seed`` is one int; path i is lane i % LANES of the block stream
    ``path_generator(seed, i // LANES)``.  Returns a namespace with the macro
    mesh ``times``, the micro-step count ``n_sub`` and the terminal states
    ``xi`` (B, d), ``Y`` (B, l) and ``X`` (B, p).  Nothing else is stored.
    Each of ``probes`` is called in order with ``start(xi, Y, X)`` once,
    ``macro(k, xi, Y, dB, dW)`` at the left end of macro step k,
    ``micro(k, j, z, Y, dB_j)`` before each micro step and
    ``node(k + 1, xi, Y, X)`` at the finite right end (see the module
    docstring).
    """
    eps, kappa = spec.epsilon, spec.kappa
    d, l, p = spec.d, spec.l, spec.p
    n_macro, times = macro_mesh(T, h)
    n_sub = micro_substeps(h, eps)
    h_sub = h / n_sub
    B = len(path_ids)

    noise = _NoiseSource(seed, path_ids, n_macro, n_sub * d + l)
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
        rows = noise.macro_chunk(k)
        # (B, n_sub, d) whose micro slices dB[:, j] are C-contiguous (B, d);
        # neither copy below is made at d = l = 1
        dB = (rows[: n_sub * d] * sq_sub).reshape(n_sub, d, B).transpose(0, 2, 1)
        dB = np.ascontiguousarray(dB).transpose(1, 0, 2)
        dW = np.ascontiguousarray((rows[n_sub * d :] * sq_h).T)

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

