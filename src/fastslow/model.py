"""Model container, benchmark registry, and numerical assumption checks.

A model couples a fast ergodic diffusion in R^d to a slow process in R^l and
an integral functional in R^p.  Coefficients are plain callables with a
broadcasting contract:

    b(z, y)     -> (..., d)      fast drift
    sigma(z, y) -> (..., d, d)   fast diffusion factor
    F(z, y)     -> (..., l)      slow drift
    G(z, y)     -> (..., l, l)   slow diffusion factor
    H(z, y)     -> (..., p)      integrand of the observable

where z has shape (..., d) and y shape (..., l); leading axes are batch axes
and must broadcast through.  Returning a (d, d) constant for sigma is fine —
it broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .grids import RectGrid

__all__ = [
    "ModelSpec",
    "Violation",
    "ValidationReport",
    "validate_model",
    "diffusion_matrix",
    "get_benchmark",
    "BENCHMARKS",
]


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients, dimensions and scale exponents of one fast-slow system.

    The constructor checks only structural sanity.  Whether the coefficients
    satisfy the ergodicity/centering/scale assumptions is the job of
    :func:`validate_model`, which reports violations instead of raising, so
    deliberately broken models can be inspected.
    """

    d: int
    l: int
    p: int
    b: callable
    sigma: callable
    F: callable
    G: callable
    H: callable
    epsilon: float
    kappa: float
    m: float = 1.0
    z0: np.ndarray = None
    y0: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        for dim_name in ("d", "l", "p"):
            if int(getattr(self, dim_name)) < 1:
                raise ConfigError(f"dimension {dim_name} must be >= 1")
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 < self.kappa < 1.0):
            raise ConfigError(f"kappa must lie in (0, 1), got {self.kappa}")
        if not (0.0 < self.m < 2.0):
            raise ConfigError(f"m must lie in (0, 2), got {self.m}")
        z0 = np.zeros(self.d) if self.z0 is None else np.atleast_1d(np.asarray(self.z0, float))
        y0 = np.zeros(self.l) if self.y0 is None else np.atleast_1d(np.asarray(self.y0, float))
        if z0.shape != (self.d,) or y0.shape != (self.l,):
            raise ConfigError("z0 / y0 shapes must match (d,) / (l,)")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "y0", y0)

    def with_epsilon(self, epsilon):
        return replace(self, epsilon=float(epsilon))

    def kappa_admissible(self):
        """Arithmetic check of the scale relation kappa < (1 - m/2) ∧ 1/2."""
        return self.kappa < min(1.0 - self.m / 2.0, 0.5)


def diffusion_matrix(spec, z, y):
    """a = sigma sigma^T at (z, y), batched.

    Formed entry by entry, each entry summed from 0.0 in column order: at the
    d <= 2 of the grid routes this is an order of magnitude faster than a
    generic einsum over thousands of points, and gives the same bits.
    """
    sig = np.asarray(spec.sigma(z, y), dtype=float)
    n, m = sig.shape[-2:]
    a = np.empty(sig.shape[:-1] + (n,))
    for i in range(n):
        for k in range(n):
            acc = 0.0
            for j in range(m):
                acc = acc + sig[..., i, j] * sig[..., k, j]
            a[..., i, k] = acc
    return a


@dataclass(frozen=True, eq=False)
class Violation:
    assumption: str
    witness_z: np.ndarray | None
    witness_y: np.ndarray | None
    detail: str


@dataclass
class ValidationReport:
    lambda_min: float
    lambda_max: float
    dissipativity_r: float | None
    dissipativity_C: float | None
    centering_defect: float | None
    growth_F: float
    bound_G: float
    violations: list
    counts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations


def _axis_samples(box, n):
    return [np.linspace(lo, hi, n) for lo, hi in box]


_SAMPLES_PER_AXIS = 5
_ELLIPTICITY_TOL = 1e-12
_CENTERING_TOL = 1e-6


def validate_model(spec, z_box, y_box, *, density_nodes=None):
    """Probe the model's assumptions on a sample grid and report violations.

    z_box, y_box: per-axis (lo, hi) bounds of the probing box, sampled at
    ``_SAMPLES_PER_AXIS`` evenly spaced points per axis.  The checks are
    deterministic (pure grid evaluation, no randomness).

    Checked: uniform ellipticity of a = sigma sigma^T, drift dissipativity
    <z, b> <= -r ||z||^2 outside a ball, finiteness of every coefficient,
    the arithmetic scale relation between kappa and m, and — for d <= 2 —
    centering of H against the invariant density of the frozen fast flow,
    on density_nodes nodes per axis of z_box (default 601 in 1-d, 101 in
    2-d, the CLI's default z-grid).  Linear growth of F and boundedness of G
    are summarized by their sampled constants; finite samples cannot refute
    them.
    """
    if len(z_box) != spec.d or len(y_box) != spec.l:
        raise ConfigError("probing boxes must match model dimensions")

    z_axes = _axis_samples(z_box, _SAMPLES_PER_AXIS)
    y_axes = _axis_samples(y_box, _SAMPLES_PER_AXIS)
    Z = np.stack(np.meshgrid(*z_axes, indexing="ij"), axis=-1).reshape(-1, spec.d)
    Y = np.stack(np.meshgrid(*y_axes, indexing="ij"), axis=-1).reshape(-1, spec.l)

    # all (z, y) pairs, flattened
    zz = np.repeat(Z, Y.shape[0], axis=0)
    yy = np.tile(Y, (Z.shape[0], 1))

    violations = []

    vals = {
        "b": np.asarray(spec.b(zz, yy), float),
        "sigma": np.asarray(np.broadcast_to(spec.sigma(zz, yy), zz.shape + (spec.d,)), float),
        "F": np.asarray(spec.F(zz, yy), float),
        "G": np.asarray(np.broadcast_to(spec.G(zz, yy), yy.shape + (spec.l,)), float),
        "H": np.asarray(spec.H(zz, yy), float),
    }
    for cname, v in vals.items():
        bad = ~np.isfinite(v).reshape(v.shape[0], -1).all(axis=1)
        if np.any(bad):
            i = int(np.argmax(bad))
            violations.append(
                Violation("finite", zz[i], yy[i], f"coefficient {cname} non-finite")
            )

    # --- ellipticity of a = sigma sigma^T ---------------------------------
    a = np.einsum("...ij,...kj->...ik", vals["sigma"], vals["sigma"])
    eigs = np.linalg.eigvalsh(a)
    lam_min = float(eigs[..., 0].min())
    lam_max = float(eigs[..., -1].max())
    if lam_min <= _ELLIPTICITY_TOL:
        i = int(np.argmin(eigs[..., 0]))
        violations.append(
            Violation(
                "A_ellipticity",
                zz[i],
                yy[i],
                f"smallest eigenvalue of a is {eigs[i, 0]:.3e} <= {_ELLIPTICITY_TOL:g}",
            )
        )

    # --- dissipativity of the fast drift ----------------------------------
    radii = np.linalg.norm(zz, axis=1)
    inner = np.einsum("ij,ij->i", zz, vals["b"])
    positive = radii > 1e-12
    diss_r = None
    diss_C = None
    if np.any(positive):
        ratio = -inner[positive] / radii[positive] ** 2  # want a positive lower bound
        r_of = radii[positive]
        candidates = np.unique(r_of)
        for C in candidates:
            mask = r_of >= C - 1e-12
            r_hat = float(ratio[mask].min())
            if r_hat > 0.0:
                diss_r, diss_C = r_hat, float(C)
                break
        if diss_r is None:
            mask = r_of >= candidates[-1] - 1e-12
            j = np.flatnonzero(positive)[np.flatnonzero(mask)[int(np.argmin(ratio[mask]))]]
            violations.append(
                Violation(
                    "A_dissipativity",
                    zz[j],
                    yy[j],
                    f"<z, b> = {inner[j]:.3e} not restoring at ||z|| = {radii[j]:.3f}",
                )
            )

    # --- scale relation ----------------------------------------------------
    if not spec.kappa_admissible():
        violations.append(
            Violation(
                "A_kappa_m",
                None,
                None,
                f"kappa = {spec.kappa} not < min(1 - m/2, 1/2) = "
                f"{min(1.0 - spec.m / 2.0, 0.5)}",
            )
        )

    # --- centering of H against the frozen invariant density --------------
    # the probe needs the frozen invariant density; without ellipticity or a
    # restoring drift there is none, so skip, and if the density solve still
    # fails, report that as a violation rather than raising (the whole point
    # of this function is to inspect broken models)
    centering = step = None
    skip = {"A_ellipticity", "A_dissipativity"}
    if spec.d <= 2 and not any(v.assumption in skip for v in violations):
        from .errors import FastslowError
        from .poisson import _NodeStep
        from .stationary import check_centering

        nodes = density_nodes or (601 if spec.d == 1 else 101)
        step = _NodeStep(spec, RectGrid.from_bounds([(lo, hi, nodes) for lo, hi in z_box]))
        worst, worst_y = 0.0, None
        try:
            for y in Y:
                defect = np.max(np.abs(check_centering(spec.H, step.density(y))))
                if defect > worst:
                    worst, worst_y = float(defect), y
        except FastslowError as exc:
            detail = f"invariant density unavailable: {exc}"
        else:
            centering = worst
            detail = f"max_y ||int H pi|| = {worst:.3e} > {_CENTERING_TOL:g}"
        if centering is None or centering > _CENTERING_TOL:
            violations.append(Violation("A_centering", None, worst_y, detail))

    growth_F = float(
        np.max(np.linalg.norm(vals["F"], axis=-1) / (1.0 + np.linalg.norm(yy, axis=-1)))
    )
    bound_G = float(np.max(np.linalg.norm(vals["G"], axis=(-2, -1))))

    return ValidationReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        dissipativity_r=diss_r,
        dissipativity_C=diss_C,
        centering_defect=centering,
        growth_F=growth_F,
        bound_G=bound_G,
        violations=violations,
        counts={"densities": step.counts["densities"] if step else 0},
    )


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

_SQRT2 = float(np.sqrt(2.0))


def constant_coefficient(value):
    """The constant array value as a coefficient: one read-only broadcast
    view per batch shape, made on its first call and handed out again after
    that."""
    value = np.asarray(value, float)
    views = {}

    def f(z, y):
        lead = z.shape[:-1]
        if y.shape[:-1] != lead:
            lead = np.broadcast_shapes(lead, y.shape[:-1])
        view = views.get(lead)
        if view is None:
            view = views[lead] = np.broadcast_to(value, lead + value.shape)
        return view

    return f


def _make_ou(epsilon, kappa):
    return ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: -z,
        sigma=constant_coefficient(_SQRT2 * np.eye(1)),
        F=lambda z, y: -y + z,
        G=constant_coefficient(np.eye(1)),
        H=lambda z, y: z + 0.0 * y,
        epsilon=epsilon, kappa=kappa, m=1.0,
        z0=[0.0], y0=[0.0], name="ou",
    )


def _make_double_well(epsilon, kappa):
    return ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: z - z * z * z,
        sigma=constant_coefficient(_SQRT2 * np.eye(1)),
        F=lambda z, y: -y + z,
        G=constant_coefficient(np.eye(1)),
        H=lambda z, y: z + 0.0 * y,
        epsilon=epsilon, kappa=kappa, m=1.0,
        z0=[0.0], y0=[0.0], name="double-well",
    )


def _make_constant(epsilon, kappa):
    # All coefficients constant and H == 0: the averaged drift is exactly F,
    # every fluctuation field vanishes, and the homogenization defect is
    # identically zero.  The fast drift is *not* restoring, so this model
    # deliberately fails the dissipativity check — it doubles as the negative
    # fixture for validate_model.
    return ModelSpec(
        d=1, l=1, p=1,
        b=lambda z, y: 0.0 * z,
        sigma=constant_coefficient(_SQRT2 * np.eye(1)),
        F=lambda z, y: 1.0 + 0.0 * y,
        G=constant_coefficient(np.eye(1)),
        H=lambda z, y: 0.0 * z,
        epsilon=epsilon, kappa=kappa, m=1.0,
        z0=[0.0], y0=[0.0], name="constant",
    )


BENCHMARKS = {
    "ou": _make_ou,
    "double-well": _make_double_well,
    "constant": _make_constant,
}


def get_benchmark(name, epsilon=0.1, kappa=0.25):
    """Instantiate a registered benchmark model."""
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; registered: {sorted(BENCHMARKS)}"
        ) from None
    return factory(float(epsilon), float(kappa))
