"""Experiment runner: configuration-driven subcommands over the library.

Every subcommand takes one structured config file (YAML), validated against a
strict schema — unknown keys are rejected by name, because a silently ignored
typo in ``kappa`` or ``epsilon`` would invalidate every scaling claim
downstream.  Outputs are CSV files written only inside ``output_dir``, next
to a ``manifest.json`` recording the artifact version, the config hash, the
seed, and a content hash per output file, which is what ``compare`` checks
before juxtaposing two pipelines.  The CSV bytes are a pure function of the
config (wall time lives only in the manifest), so identical runs are
byte-identical at any worker count.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure
(the originating module's message is printed verbatim).  NumPy's
``LinAlgError`` and ``MemoryError`` also exit 3, printed as one line
``error: <Type>: <message>``; any other exception is a bug and surfaces as
a traceback (exit 1).  An ``mdp-check`` cell that fails is NaN in
``mc.csv``; its reason is kept in the manifest record under
``failed_cells``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from functools import wraps

import click
import numpy as np
import yaml

from . import __version__
from .averaging import averaged_coefficients, write_averaged_csv
from .deviations import negligibility_sweep, write_sweep_csv
from .errors import ConfigError, FastslowError, ManifestError
from .grids import RectGrid
from .mcengine import (
    Event,
    brownian_sampler,
    exponential_inequality_grid,
    stopped_brownian_sampler,
    tail_probability,
    wilson_interval,
    write_tail_csv,
)
from .model import get_benchmark, validate_model, ModelSpec
from .poisson import solve_poisson
from .ratefn import HalfSpaceEvent, minimize_endpoint, write_rate_path_csv
from .simulate import simulate_pair, write_path_csv
from .stationary import invariant_density

_ARTIFACT = "fastslow"


# ---------------------------------------------------------------------------
# strict-schema helpers
# ---------------------------------------------------------------------------

def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    return obj


def _check_keys(mapping, where, allowed, required=()):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key {key!r} in {where}")


def _as_float_list(value, where):
    if np.isscalar(value):
        return [float(value)]
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where} must be a number or list of numbers") from err


# ---------------------------------------------------------------------------
# inline polynomial models
# ---------------------------------------------------------------------------

def _poly_entry(terms, d, l, where):
    """Compile one scalar entry: a list of {c, z: powers, y: powers} terms."""
    if not isinstance(terms, list):
        raise ConfigError(f"{where} must be a list of term mappings")
    compiled = []
    for i, term in enumerate(terms):
        t_where = f"{where}[{i}]"
        _require_mapping(term, t_where)
        _check_keys(term, t_where, allowed={"c", "z", "y"})
        c = float(term.get("c", 1.0))
        zp = [int(v) for v in term.get("z", [0] * d)]
        yp = [int(v) for v in term.get("y", [0] * l)]
        if len(zp) != d or len(yp) != l:
            raise ConfigError(
                f"{t_where}: power lists must have lengths d={d} and l={l}"
            )
        if any(v < 0 for v in zp + yp):
            raise ConfigError(f"{t_where}: negative powers are not allowed")
        compiled.append((c, zp, yp))

    def entry(z, y):
        # an overflowing path is a SimulationBlowupError of its cell, raised by
        # the kernel's finiteness check, so NumPy's warning would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            out = 0.0
            for c, zp, yp in compiled:
                val = c
                for k, pw in enumerate(zp):
                    if pw:
                        val = val * z[..., k] ** pw
                for k, pw in enumerate(yp):
                    if pw:
                        val = val * y[..., k] ** pw
                out = out + val
        return out

    return entry


def _poly_vector(table, d, l, n_out, where):
    if not isinstance(table, list) or len(table) != n_out:
        raise ConfigError(f"{where} must list {n_out} component entries")
    entries = [_poly_entry(row, d, l, f"{where}[{i}]") for i, row in enumerate(table)]

    def fn(z, y):
        z = np.asarray(z, float)
        y = np.asarray(y, float)
        base = np.broadcast(z[..., 0], y[..., 0])
        out = np.empty(base.shape + (n_out,))
        for i, e in enumerate(entries):
            out[..., i] = e(z, y)
        return out

    return fn


def _poly_matrix(table, d, l, n_rows, n_cols, where):
    if not isinstance(table, list) or len(table) != n_rows:
        raise ConfigError(f"{where} must list {n_rows} rows")
    entries = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n_cols:
            raise ConfigError(f"{where}[{i}] must list {n_cols} column entries")
        entries.append(
            [_poly_entry(cell, d, l, f"{where}[{i}][{j}]") for j, cell in enumerate(row)]
        )

    def fn(z, y):
        z = np.asarray(z, float)
        y = np.asarray(y, float)
        base = np.broadcast(z[..., 0], y[..., 0])
        out = np.empty(base.shape + (n_rows, n_cols))
        for i in range(n_rows):
            for j in range(n_cols):
                out[..., i, j] = entries[i][j](z, y)
        return out

    return fn


def _build_inline_model(block, epsilon, kappa, m):
    where = "model.inline"
    _check_keys(
        block,
        where,
        allowed={"d", "l", "p", "b", "sigma", "F", "G", "H", "z0", "y0", "name"},
        required=("d", "l", "p", "b", "sigma", "F", "G", "H"),
    )
    d, l, p = int(block["d"]), int(block["l"]), int(block["p"])
    return ModelSpec(
        d=d,
        l=l,
        p=p,
        b=_poly_vector(block["b"], d, l, d, f"{where}.b"),
        sigma=_poly_matrix(block["sigma"], d, l, d, d, f"{where}.sigma"),
        F=_poly_vector(block["F"], d, l, l, f"{where}.F"),
        G=_poly_matrix(block["G"], d, l, l, l, f"{where}.G"),
        H=_poly_vector(block["H"], d, l, p, f"{where}.H"),
        epsilon=epsilon,
        kappa=kappa,
        m=m,
        z0=block.get("z0"),
        y0=block.get("y0"),
        name=str(block.get("name", "inline")),
    )


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "model", "scales", "grids", "run", "output_dir",
    "simulate", "density", "poisson", "average", "delta", "rate",
    "event", "inequalities",
}


class Experiment:
    """Parsed configuration plus the derived model and grids."""

    def __init__(self, config_path):
        try:
            with open(config_path, "r") as fh:
                self.text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config {config_path}: {err}") from err
        try:
            raw = yaml.safe_load(self.text)
        except yaml.YAMLError as err:
            raise ConfigError(f"config is not valid YAML: {err}") from err
        raw = _require_mapping(raw if raw is not None else {}, "config")
        _check_keys(raw, "config", _TOP_KEYS, required=("model", "run", "output_dir"))
        self.raw = raw

        scales = _require_mapping(raw.get("scales", {}), "scales")
        _check_keys(scales, "scales", allowed={"epsilon", "kappa", "m"})
        self.epsilon_list = _as_float_list(scales.get("epsilon", [0.1]), "scales.epsilon")
        self.kappa = float(scales.get("kappa", 0.25))
        self.m = float(scales.get("m", 1.0))

        model = _require_mapping(raw["model"], "model")
        _check_keys(model, "model", allowed={"benchmark", "inline"})
        if ("benchmark" in model) == ("inline" in model):
            raise ConfigError("model must give exactly one of 'benchmark' or 'inline'")
        eps0 = self.epsilon_list[0]
        if "benchmark" in model:
            self.spec = get_benchmark(str(model["benchmark"]), epsilon=eps0, kappa=self.kappa)
            if self.m != 1.0:
                from dataclasses import replace
                self.spec = replace(self.spec, m=self.m)
        else:
            self.spec = _build_inline_model(
                _require_mapping(model["inline"], "model.inline"), eps0, self.kappa, self.m
            )
        if not self.spec.kappa_admissible():
            raise ConfigError(
                f"scale relation fails: kappa={self.spec.kappa} must be below "
                f"min(1 - m/2, 1/2) = {min(1 - self.spec.m / 2, 0.5)}"
            )

        grids = _require_mapping(raw.get("grids", {}), "grids")
        _check_keys(grids, "grids", allowed={"z_box", "z_nodes", "y_box", "y_nodes"})
        d, l = self.spec.d, self.spec.l
        z_box = grids.get("z_box", [[-6.0, 6.0]] * d)
        y_box = grids.get("y_box", [[-4.0, 4.0]] * l)
        z_nodes = int(grids.get("z_nodes", 601 if d == 1 else 101))
        y_nodes = int(grids.get("y_nodes", 41 if l == 1 else 15))
        if len(z_box) != d or len(y_box) != l:
            raise ConfigError("z_box / y_box must list one (lo, hi) pair per axis")
        self.z_box, self.y_box = z_box, y_box
        self.z_grid = RectGrid.from_bounds([(lo, hi, z_nodes) for lo, hi in z_box])
        self.y_grid = RectGrid.from_bounds([(lo, hi, y_nodes) for lo, hi in y_box])

        run = _require_mapping(raw["run"], "run")
        _check_keys(run, "run", allowed={"T", "h", "N", "seed"}, required=("T", "h", "seed"))
        self.T = float(run["T"])
        self.h = float(run["h"])
        self.N = int(run.get("N", 10_000))
        self.seed = int(run["seed"])

        self.output_dir = str(raw["output_dir"])

    def block(self, name, allowed, required=()):
        block = _require_mapping(self.raw.get(name, {}), name)
        _check_keys(block, name, allowed=allowed, required=required)
        return block

    def averaged_model(self):
        return averaged_coefficients(self.spec, self.y_grid, self.z_grid)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_manifest(path):
    """The manifest at path, or None when there is no file.

    An unreadable, corrupt, non-object or foreign file raises ManifestError.
    """
    try:
        with open(path, "r") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as err:
        raise ManifestError(f"cannot read {path} ({err})") from err
    if not (
        isinstance(manifest, dict)
        and manifest.get("artifact") == _ARTIFACT
        and isinstance(manifest.get("outputs", {}), dict)
    ):
        raise ManifestError(f"{path} is not a {_ARTIFACT} manifest")
    return manifest


class OutputDir:
    """Collects output files inside output_dir and finalizes the manifest.

    The manifest keeps one record per output file (content hash, subcommand,
    config hash, seed, wall time), merged across runs into the same
    directory, so every file stays verifiable after later subcommands write
    their own outputs next to it.  Wall time lives only here — CSV bytes are
    a pure function of the config.
    """

    def __init__(self, exp, subcommand):
        self.dir = exp.output_dir
        os.makedirs(self.dir, exist_ok=True)
        self.manifest_path = os.path.join(self.dir, "manifest.json")
        # fail before any work is done if the final merge would lose records
        self._previous_outputs()
        self.exp = exp
        self.subcommand = subcommand
        self.files = []
        self.extra = {}
        self.t0 = time.monotonic()

    def path(self, name):
        if os.path.basename(name) != name:
            raise ConfigError(f"output name {name!r} must not contain directories")
        self.files.append(name)
        return os.path.join(self.dir, name)

    def _previous_outputs(self):
        """Records of the existing manifest; none when there is no file yet."""
        try:
            previous = _read_manifest(self.manifest_path)
        except ManifestError as err:
            raise ManifestError(
                f"{err}; its records would be lost, so move it aside before "
                "writing into this directory"
            ) from err
        return {} if previous is None else dict(previous.get("outputs", {}))

    def finalize(self):
        outputs = self._previous_outputs()
        record = {
            "subcommand": self.subcommand,
            "config_sha256": _sha256_text(self.exp.text),
            "seed": self.exp.seed,
            "wall_time_s": round(time.monotonic() - self.t0, 3),
        }
        record.update(self.extra)
        for name in self.files:
            outputs[name] = dict(
                record, sha256=_sha256_file(os.path.join(self.dir, name))
            )
        manifest = {
            "artifact": _ARTIFACT,
            "version": __version__,
            "outputs": outputs,
        }
        # write beside the target and rename over it, so a crash mid-write
        # never leaves a truncated manifest behind
        tmp_path = f"{self.manifest_path}.{os.getpid()}.tmp"
        try:
            with open(tmp_path, "w", newline="\n") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp_path, self.manifest_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        return manifest


def _guarded(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as err:
            click.echo(f"config error: {err}", err=True)
            sys.exit(2)
        except FastslowError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(3)
        except (np.linalg.LinAlgError, MemoryError) as err:
            # numerical failures raised below the library's own error types:
            # a singular dense matrix, or an allocation too large for memory
            click.echo(f"error: {type(err).__name__}: {err}", err=True)
            sys.exit(3)

    return wrapper


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(value):
    return repr(float(value))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__, prog_name=_ARTIFACT)
def main():
    """Fast-slow SDE averaging, correctors, and deviation experiments."""


def _config_argument(fn):
    return click.argument("config_path", type=click.Path(exists=False, dir_okay=False))(fn)


@main.command()
@_config_argument
@_guarded
def validate(config_path):
    """Probe model assumptions on the configured boxes; write a report."""
    exp = Experiment(config_path)
    out = OutputDir(exp, "validate")
    report = validate_model(exp.spec, exp.z_box, exp.y_box)
    rows = [
        ("lambda_min", _fmt(report.lambda_min)),
        ("lambda_max", _fmt(report.lambda_max)),
        ("dissipativity_r", _fmt(report.dissipativity_r) if report.dissipativity_r is not None else "nan"),
        ("dissipativity_C", _fmt(report.dissipativity_C) if report.dissipativity_C is not None else "nan"),
        ("centering_defect", _fmt(report.centering_defect) if report.centering_defect is not None else "nan"),
        ("growth_F", _fmt(report.growth_F)),
        ("bound_G", _fmt(report.bound_G)),
        ("violations", str(len(report.violations))),
        ("ok", str(int(report.ok))),
    ]
    _write_csv(out.path("validate.csv"), "check,value", rows)
    for v in report.violations:
        click.echo(f"violation [{v.assumption}]: {v.detail}")
    out.finalize()
    click.echo(f"validate: ok={report.ok} -> {out.dir}")


@main.command()
@_config_argument
@_guarded
def simulate(config_path):
    """Simulate one coupled trajectory and write its macro-mesh CSV."""
    exp = Experiment(config_path)
    block = exp.block("simulate", allowed={"path_id"})
    out = OutputDir(exp, "simulate")
    sample = simulate_pair(
        exp.spec, exp.T, exp.h, exp.seed, path_id=int(block.get("path_id", 0))
    )
    write_path_csv(out.path("path.csv"), sample)
    out.finalize()
    click.echo(f"simulate: {sample.n_steps} steps -> {out.dir}")


@main.command()
@_config_argument
@_guarded
def density(config_path):
    """Invariant density of the frozen fast flow at one slow value."""
    exp = Experiment(config_path)
    block = exp.block("density", allowed={"y", "method", "T", "burn_in", "bins"})
    y = np.asarray(_as_float_list(block.get("y", [0.0] * exp.spec.l), "density.y"))
    method = str(block.get("method", "auto"))
    out = OutputDir(exp, "density")
    if method == "empirical":
        pi = invariant_density(
            exp.spec,
            y,
            exp.z_grid,
            method="empirical",
            T=float(block.get("T", 200.0)),
            burn_in=float(block.get("burn_in", 20.0)),
            seed=exp.seed,
        )
    else:
        pi = invariant_density(exp.spec, y, exp.z_grid, method=method)
    pts = pi.grid.points().reshape(-1, pi.grid.ndim)
    vals = pi.values.reshape(-1)
    header = ",".join([f"z_{k + 1}" for k in range(pi.grid.ndim)] + ["pi"])
    _write_csv(
        out.path("density.csv"),
        header,
        ([_fmt(c) for c in pt] + [_fmt(v)] for pt, v in zip(pts, vals)),
    )
    out.finalize()
    click.echo(f"density: mass={float(pi.grid.integrate(pi.values)):.6f} -> {out.dir}")


@main.command()
@_config_argument
@_guarded
def poisson(config_path):
    """Solve the centered cell problem at one slow value."""
    exp = Experiment(config_path)
    block = exp.block("poisson", allowed={"y", "method"})
    y = np.asarray(_as_float_list(block.get("y", [0.0] * exp.spec.l), "poisson.y"))
    method = str(block.get("method", "auto"))
    out = OutputDir(exp, "poisson")
    pi = invariant_density(exp.spec, y, exp.z_grid)
    sol = solve_poisson(exp.spec, y, exp.spec.H, pi, method=method)
    pts = sol.grid.points().reshape(-1, sol.grid.ndim)
    u = sol.u.values.reshape(len(pts), -1)
    grad = sol.grad_u.values.reshape(len(pts), -1)
    header = ",".join(
        [f"z_{k + 1}" for k in range(sol.grid.ndim)]
        + [f"u_{i + 1}" for i in range(u.shape[1])]
        + [f"grad_u_{i + 1}" for i in range(grad.shape[1])]
    )
    _write_csv(
        out.path("poisson.csv"),
        header,
        (
            [_fmt(c) for c in pt] + [_fmt(v) for v in uu] + [_fmt(v) for v in gg]
            for pt, uu, gg in zip(pts, u, grad)
        ),
    )
    out.extra["residual"] = float(sol.residual)
    out.extra["centering_defect"] = float(np.max(np.abs(sol.centering_defect)))
    out.finalize()
    click.echo(
        f"poisson: residual={sol.residual:.3e} "
        f"centering={np.max(np.abs(sol.centering_defect)):.3e} -> {out.dir}"
    )


@main.command()
@_config_argument
@_guarded
def average(config_path):
    """Tabulate averaged coefficients over the configured y-grid."""
    exp = Experiment(config_path)
    exp.block("average", allowed=set())
    out = OutputDir(exp, "average")
    avg = exp.averaged_model()
    write_averaged_csv(avg, out.path("averaged.csv"))
    out.finalize()
    click.echo(
        f"average: {avg.y_grid.n_nodes} y-nodes, "
        f"margin={avg.nonsingularity_margin:.3e} -> {out.dir}"
    )


@main.command()
@_config_argument
@_guarded
def delta(config_path):
    """Sweep the corrector remainder tails over the epsilon list."""
    exp = Experiment(config_path)
    block = exp.block("delta", allowed={"eta"})
    eta = float(block.get("eta", 0.5))
    out = OutputDir(exp, "delta")
    cells = negligibility_sweep(
        exp.spec,
        exp.epsilon_list,
        eta,
        exp.T,
        exp.h,
        exp.N,
        exp.seed,
        y_grid=exp.y_grid,
        z_grid=exp.z_grid,
    )
    write_sweep_csv(cells, out.path("delta.csv"))
    out.finalize()
    click.echo(f"delta: {len(cells)} epsilon cells -> {out.dir}")


def _rate_event(block, p):
    event = block.get("event")
    target = block.get("target")
    if (event is None) == (target is None):
        raise ConfigError("rate needs exactly one of 'event' or 'target'")
    if target is not None:
        return None, np.asarray(_as_float_list(target, "rate.target"))
    event = _require_mapping(event, "rate.event")
    _check_keys(event, "rate.event", allowed={"functional", "threshold", "component"},
                required=("threshold",))
    functional = str(event.get("functional", "terminal_x"))
    if functional != "terminal_x":
        raise ConfigError(
            "rate minimization supports terminal_x half-space events only"
        )
    comp = int(event.get("component", 0))
    if not 0 <= comp < p:
        raise ConfigError(f"event component {comp} outside 0..{p - 1}")
    normal = np.zeros(p)
    normal[comp] = 1.0
    return HalfSpaceEvent(normal=normal, level=float(event["threshold"])), None


@main.command()
@_config_argument
@_guarded
def rate(config_path):
    """Minimize the path action for a terminal target or half-space event."""
    exp = Experiment(config_path)
    block = exp.block(
        "rate", allowed={"event", "target", "mesh_size", "y0"},
    )
    mesh_size = int(block.get("mesh_size", 128))
    y0 = np.asarray(
        _as_float_list(block.get("y0", [0.0] * exp.spec.l), "rate.y0")
    )
    out = OutputDir(exp, "rate")
    avg = exp.averaged_model()
    half_space, target = _rate_event(block, exp.spec.p)
    if half_space is not None:
        if 0.0 > half_space.level:
            raise ConfigError(
                "half-space level below zero is reached at zero cost; "
                "the prediction is 0 and no minimizer path exists"
            )
        C = np.concatenate([half_space.normal, np.zeros(exp.spec.l)])[None, :]
        constraint = (C, np.array([half_space.level]))
    else:
        constraint = target
    path, value = minimize_endpoint(avg, exp.T, constraint, mesh_size, y0=y0)
    write_rate_path_csv(path, out.path("rate_path.csv"))
    _write_csv(
        out.path("rate.csv"),
        "J_star,T,mesh_size",
        [[_fmt(value.J), _fmt(exp.T), str(mesh_size)]],
    )
    out.finalize()
    click.echo(f"rate: J*={value.J:.6f} (finite-horizon T={exp.T}) -> {out.dir}")


@main.command("mdp-check")
@_config_argument
@click.option(
    "--workers",
    type=int,
    default=lambda: os.cpu_count() or 1,
    help="Worker threads for the Monte Carlo sweep (results are identical "
    "at any count).",
)
@_guarded
def mdp_check(config_path, workers):
    """Monte Carlo tail sweep at the moderate-deviation log scaling."""
    exp = Experiment(config_path)
    block = exp.block(
        "event", allowed={"functional", "threshold", "component"},
        required=("threshold",),
    )
    event = Event(
        functional=str(block.get("functional", "terminal_x")),
        threshold=float(block["threshold"]),
        T=exp.T,
        component=int(block.get("component", 0)),
    )
    out = OutputDir(exp, "mdp-check")
    cells = tail_probability(
        exp.spec,
        event,
        exp.epsilon_list,
        exp.N,
        exp.h,
        exp.seed,
        workers=workers,
    )
    write_tail_csv(cells, out.path("mc.csv"))
    failed = [{"epsilon": c.epsilon, "error": c.error} for c in cells if c.error]
    if failed:
        out.extra["failed_cells"] = failed
    out.finalize()
    for c in cells:
        tag = " censored" if c.censored else ""
        if c.error:
            click.echo(f"mdp-check eps={c.epsilon:g}: failed ({c.error})")
        else:
            click.echo(
                f"mdp-check eps={c.epsilon:g}: p_hat={c.p_hat:.3e} "
                f"scaled_log={c.scaled_log:.4f}{tag}"
            )


@main.command()
@_config_argument
@_guarded
def inequalities(config_path):
    """Empirical exponential-inequality grid for martingale samplers."""
    exp = Experiment(config_path)
    block = exp.block(
        "inequalities",
        allowed={"alpha", "B", "sampler", "n_steps", "qv_cap"},
    )
    alphas = _as_float_list(block.get("alpha", [0.5, 1.0, 2.0, 4.0]), "inequalities.alpha")
    Bs = _as_float_list(block.get("B", [0.5, 1.0, 2.0]), "inequalities.B")
    name = str(block.get("sampler", "brownian"))
    n_steps = int(block.get("n_steps", 1000))
    if name == "brownian":
        sampler = brownian_sampler(n_steps=n_steps)
    elif name == "stopped":
        sampler = stopped_brownian_sampler(
            float(block.get("qv_cap", 1.0)), n_steps=n_steps
        )
    else:
        raise ConfigError(f"unknown sampler {name!r}; choose 'brownian' or 'stopped'")
    out = OutputDir(exp, "inequalities")
    rows = []
    worst = 0.0
    for cell in exponential_inequality_grid(sampler, alphas, Bs, exp.T, exp.N, exp.seed):
        lo, hi = wilson_interval(cell.hits, cell.N)
        sigma = (hi - lo) / (2.0 * 1.959963984540054)
        violated = int(cell.frequency > cell.bound + 3.0 * sigma)
        worst = max(worst, cell.frequency - cell.bound)
        rows.append(
            [
                _fmt(cell.alpha), _fmt(cell.B), str(cell.N), _fmt(cell.frequency),
                _fmt(cell.bound), _fmt(sigma), str(violated),
            ]
        )
    _write_csv(
        out.path("inequalities.csv"),
        "alpha,B,N,frequency,bound,sigma,violated",
        rows,
    )
    out.finalize()
    click.echo(
        f"inequalities: {len(rows)} cells, worst frequency-bound gap "
        f"{worst:.3e} -> {out.dir}"
    )


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _manifest_for(csv_path):
    directory = os.path.dirname(os.path.abspath(csv_path))
    manifest = _read_manifest(os.path.join(directory, "manifest.json"))
    if manifest is None:
        raise ConfigError(f"no manifest next to {csv_path}")
    name = os.path.basename(csv_path)
    recorded = manifest.get("outputs", {}).get(name)
    if recorded is None:
        raise ConfigError(f"manifest next to {csv_path} does not list {name}")
    if not isinstance(recorded, dict) or recorded.get("sha256") != _sha256_file(csv_path):
        raise ConfigError(
            f"{name} does not match its manifest hash; the file was edited or "
            "belongs to a different run"
        )
    return manifest


@main.command()
@click.argument("rate_csv", type=click.Path(dir_okay=False))
@click.argument("mc_csv", type=click.Path(dir_okay=False))
@_guarded
def compare(rate_csv, mc_csv):
    """Juxtapose the action prediction against a Monte Carlo tail sweep."""
    _manifest_for(rate_csv)
    _manifest_for(mc_csv)
    with open(rate_csv, "r") as fh:
        rate_rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rate_rows) < 2 or rate_rows[0][0] != "J_star":
        raise ConfigError(f"{rate_csv} is not a rate summary file")
    j_star = float(rate_rows[1][0])
    with open(mc_csv, "r") as fh:
        mc_rows = [line.strip().split(",") for line in fh if line.strip()]
    if not mc_rows or mc_rows[0][0] != "epsilon":
        raise ConfigError(f"{mc_csv} is not an epsilon tail sweep")
    if len(mc_rows) < 2:
        raise ConfigError(f"{mc_csv} contains no Monte Carlo rows")
    header = mc_rows[0]
    idx = {name: k for k, name in enumerate(header)}
    click.echo("epsilon,scaled_log,prediction,gap,censored")
    for row in mc_rows[1:]:
        eps = float(row[idx["epsilon"]])
        s_log = float(row[idx["scaled_log"]])
        censored = int(row[idx["censored"]])
        gap = s_log - (-j_star)
        click.echo(
            f"{eps!r},{s_log!r},{-j_star!r},{gap!r},{censored}"
        )


if __name__ == "__main__":
    main()
