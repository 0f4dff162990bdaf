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
a traceback (exit 1).  The sweeps of ``mdp-check`` and ``delta`` confine a
numerical failure to its epsilon cell instead: the cell's rows are NaN in
``mc.csv`` or ``delta.csv``, its epsilon and reason are kept in the manifest
record under ``failed_cells``, and the run exits 0.  The records of
``average``, ``rate``, ``delta`` and ``poisson`` also carry ``cell_solves``
and ``densities``, the distinct cell problems and invariant densities their
node steps solved; ``validate`` carries the ``densities`` of its check.

``Experiment.__init__`` ends with ``gc.freeze()``.  The imported modules and
the parsed config live until exit, so after the freeze neither the run's
cyclic collections nor interpreter teardown walk them; exit no longer pays
for a full collection of the import heap.  The call is O(1): it moves the
tracked objects into the permanent generation without visiting them.
In-process callers freeze too, so cyclic garbage that exists when an
``Experiment`` is built is never collected.
"""

from __future__ import annotations

import gc
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
from .averaging import averaged_coefficients
from .errors import ConfigError, FastslowError, ManifestError
from .grids import RectGrid
from .mcengine import (
    Event,
    brownian_sampler,
    exponential_inequality_grid,
    negligibility_sweep,
    stopped_brownian_sampler,
    tail_probability,
    wilson_interval,
)
from .model import get_benchmark, validate_model, ModelSpec
from .poisson import solve_family, solve_poisson
from .ratefn import minimize_endpoint
from .simulate import Recorder, simulate_block
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


def _only_read_by(mapping, where, keys, reader):
    """Reject keys of mapping that only another choice reads, by name."""
    for key in keys:
        if key in mapping:
            raise ConfigError(f"key {key!r} in {where} is read only by {reader}")


def _number(kind, value, where):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{where} must be a number, got {value!r}") from err


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


def _poly_table(table, d, l, shape, where):
    """Compile a table of entries into fn(z, y) -> (..., *shape): a list of
    n component entries for shape (n,), or of n rows of m column entries for
    shape (n, m).  Entries are evaluated in row-major order."""
    what = ("component entries",) if len(shape) == 1 else ("rows", "column entries")
    entries = []

    def walk(node, index, where):
        if len(index) == len(shape):
            entries.append(((Ellipsis,) + index, _poly_entry(node, d, l, where)))
            return
        n = shape[len(index)]
        if not isinstance(node, list) or len(node) != n:
            raise ConfigError(f"{where} must list {n} {what[len(index)]}")
        for i, child in enumerate(node):
            walk(child, index + (i,), f"{where}[{i}]")

    walk(table, (), where)

    def fn(z, y):
        z = np.asarray(z, float)
        y = np.asarray(y, float)
        out = np.empty(np.broadcast(z[..., 0], y[..., 0]).shape + shape)
        for index, e in entries:
            out[index] = e(z, y)
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
        b=_poly_table(block["b"], d, l, (d,), f"{where}.b"),
        sigma=_poly_table(block["sigma"], d, l, (d, d), f"{where}.sigma"),
        F=_poly_table(block["F"], d, l, (l,), f"{where}.F"),
        G=_poly_table(block["G"], d, l, (l, l), f"{where}.G"),
        H=_poly_table(block["H"], d, l, (p,), f"{where}.H"),
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

    def __init__(self, config_path, *, preload_sparse=True):
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
        if preload_sparse and self.spec.d >= 2:
            # the d >= 2 grid routes factor sparse operators; load SciPy's
            # sparse stack in start-up rather than inside the first cell solve.
            # The subcommands that only sample paths pass preload_sparse=False
            import scipy.sparse.linalg  # noqa: F401

        grids = _require_mapping(raw.get("grids", {}), "grids")
        _check_keys(grids, "grids", allowed={"z_box", "z_nodes", "y_box", "y_nodes"})
        d, l = self.spec.d, self.spec.l
        z_box = grids.get("z_box", [[-6.0, 6.0]] * d)
        y_box = grids.get("y_box", [[-4.0, 4.0]] * l)
        z_nodes = _number(int, grids.get("z_nodes", 601 if d == 1 else 101), "grids.z_nodes")
        y_nodes = _number(int, grids.get("y_nodes", 41 if l == 1 else 15), "grids.y_nodes")
        if len(z_box) != d or len(y_box) != l:
            raise ConfigError("z_box / y_box must list one (lo, hi) pair per axis")
        if min(z_nodes, y_nodes) < 3:
            # slow derivatives and gradients are second-order differences
            raise ConfigError(
                f"grids.z_nodes and grids.y_nodes must be >= 3, got {z_nodes} and {y_nodes}"
            )
        self.z_box, self.y_box = z_box, y_box
        self.z_grid = RectGrid.from_bounds([(lo, hi, z_nodes) for lo, hi in z_box])
        self.y_grid = RectGrid.from_bounds([(lo, hi, y_nodes) for lo, hi in y_box])

        run = _require_mapping(raw["run"], "run")
        _check_keys(run, "run", allowed={"T", "h", "N", "seed"}, required=("T", "h", "seed"))
        self.T = _number(float, run["T"], "run.T")
        self.h = _number(float, run["h"], "run.h")
        self.N = _number(int, run.get("N", 10_000), "run.N")
        self.seed = _number(int, run["seed"], "run.seed")
        if not (0.0 < self.T < np.inf and 0.0 < self.h < np.inf and self.N >= 1):
            raise ConfigError(
                f"run needs finite T > 0, finite h > 0 and N >= 1, "
                f"got T={self.T!r}, h={self.h!r}, N={self.N}"
            )

        self.output_dir = str(raw["output_dir"])
        # the modules and the config live until exit (see the module docstring)
        gc.freeze()

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
    """The one place an output CSV is opened: a header line, then one line
    per row of already formatted fields."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(value):
    return repr(float(value))


def _columns(prefix, n):
    return [f"{prefix}_{i + 1}" for i in range(n)]


def _keep_failed_cells(out, cells):
    """Record each failed cell's epsilon and reason under ``failed_cells`` in
    the manifest record; return the failed cells."""
    failed = [c for c in cells if c.error]
    if failed:
        out.extra["failed_cells"] = [{"epsilon": c.epsilon, "error": c.error} for c in failed]
    return failed


def _write_table(path, columns, data):
    """A table of floats, one line per row of data, each value as _fmt."""
    _write_csv(path, ",".join(columns), ([_fmt(v) for v in row] for row in data))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__, prog_name=_ARTIFACT)
def main():
    """Fast-slow SDE averaging, correctors, and deviation experiments."""


def _config_argument(fn):
    return click.argument("config_path", type=click.Path(exists=False, dir_okay=False))(fn)


_workers_option = click.option(
    "--workers",
    type=click.IntRange(min=1),
    default=lambda: os.cpu_count() or 1,
    help="Worker threads for the Monte Carlo paths (results are identical "
    "at any count).",
)


@main.command()
@_config_argument
@_guarded
def validate(config_path):
    """Probe model assumptions on the configured boxes; write a report."""
    exp = Experiment(config_path)
    out = OutputDir(exp, "validate")
    report = validate_model(
        exp.spec, exp.z_box, exp.y_box, density_nodes=exp.z_grid.shape[0]
    )
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
    out.extra.update(report.counts)
    for v in report.violations:
        click.echo(f"violation [{v.assumption}]: {v.detail}")
    out.finalize()
    click.echo(f"validate: ok={report.ok} -> {out.dir}")


@main.command()
@_config_argument
@_guarded
def simulate(config_path):
    """Simulate one coupled trajectory and write its macro-mesh CSV."""
    exp = Experiment(config_path, preload_sparse=False)
    block = exp.block("simulate", allowed={"path_id"})
    out = OutputDir(exp, "simulate")
    rec = Recorder()
    run = simulate_block(
        exp.spec, exp.T, exp.h, exp.seed, [int(block.get("path_id", 0))], probes=(rec,)
    )
    _write_table(
        out.path("path.csv"),
        ["t"] + _columns("xi", exp.spec.d) + _columns("Y", exp.spec.l)
        + _columns("X", exp.spec.p),
        np.hstack([run.times[:, None], rec.xi[0], rec.Y[0], rec.X[0]]),
    )
    out.finalize()
    click.echo(f"simulate: {run.times.size - 1} steps -> {out.dir}")


@main.command()
@_config_argument
@_guarded
def density(config_path):
    """Invariant density of the frozen fast flow at one slow value."""
    exp = Experiment(config_path)
    block = exp.block("density", allowed={"y", "method", "T", "burn_in"})
    y = np.asarray(_as_float_list(block.get("y", [0.0] * exp.spec.l), "density.y"))
    method = str(block.get("method", "auto"))
    kw = {}
    if method == "empirical":
        T, burn_in = float(block.get("T", 200.0)), float(block.get("burn_in", 20.0))
        kw = dict(T=T, burn_in=burn_in, seed=exp.seed)
    else:
        _only_read_by(block, "density", ("T", "burn_in"), "method 'empirical'")
    out = OutputDir(exp, "density")
    pi = invariant_density(exp.spec, y, exp.z_grid, method=method, **kw)
    _write_table(
        out.path("density.csv"),
        _columns("z", pi.grid.ndim) + ["pi"],
        np.column_stack([pi.grid.points().reshape(-1, pi.grid.ndim), pi.values.reshape(-1)]),
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
    sol = solve_poisson(exp.spec, y, exp.spec.H, exp.z_grid, method=method)
    pts = exp.z_grid.points().reshape(-1, exp.spec.d)
    u = sol.u.values.reshape(len(pts), -1)
    grad = sol.grad_u.values.reshape(len(pts), -1)
    _write_table(
        out.path("poisson.csv"),
        _columns("z", exp.spec.d) + _columns("u", u.shape[1])
        + _columns("grad_u", grad.shape[1]),
        np.hstack([pts, u, grad]),
    )
    out.extra.update(sol.counts)
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
    p, l = avg.p, avg.l
    _write_table(
        out.path("averaged.csv"),
        _columns("y", avg.y_grid.ndim)
        + [f"Qbar_{i + 1}{j + 1}" for i in range(p) for j in range(p)]
        + [f"Abar_{i + 1}{j + 1}" for i in range(l) for j in range(l)]
        + _columns("Fbar", l),
        np.hstack([
            avg.y_grid.points().reshape(-1, avg.y_grid.ndim),
            avg.Qbar.reshape(-1, p * p),
            avg.Abar.reshape(-1, l * l),
            avg.Fbar.reshape(-1, l),
        ]),
    )
    out.extra.update(avg.counts)
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
    family = solve_family(exp.spec, exp.y_grid, exp.z_grid)
    cells = negligibility_sweep(
        exp.spec, exp.epsilon_list, eta, exp.T, exp.h, exp.N, exp.seed, family=family
    )
    _write_csv(
        out.path("delta.csv"),
        "epsilon,statistic,N,hits,p_hat,scaled_log,censored",
        (
            [_fmt(c.epsilon), c.event, str(c.N), str(c.hits), _fmt(c.p_hat),
             _fmt(c.scaled_log), str(int(c.censored))]
            for c in cells
        ),
    )
    # the four statistics of an epsilon share its one failure
    failed = _keep_failed_cells(out, [c for c in cells if c.event == "delta"])
    out.extra.update(family.counts)
    out.finalize()
    for c in failed:
        click.echo(f"delta eps={c.epsilon:g}: failed ({c.error})")
    click.echo(f"delta: {len(exp.epsilon_list)} epsilon cells -> {out.dir}")


def _rate_event(block, p, l):
    """The terminal target of the rate minimization: the X vector of a
    'target', or the half-space constraint (C, [level]) of a terminal_x
    'event' on the stacked (X_T, Y_T)."""
    event = block.get("event")
    target = block.get("target")
    if (event is None) == (target is None):
        raise ConfigError("rate needs exactly one of 'event' or 'target'")
    if target is not None:
        return np.asarray(_as_float_list(target, "rate.target"))
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
    level = float(event["threshold"])
    if level < 0.0:
        raise ConfigError(
            "half-space level below zero is reached at zero cost; "
            "the prediction is 0 and no minimizer path exists"
        )
    C = np.zeros((1, p + l))
    C[0, comp] = 1.0
    return C, np.array([level])


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
    target = _rate_event(block, exp.spec.p, exp.spec.l)
    out = OutputDir(exp, "rate")
    avg = exp.averaged_model()
    path, value = minimize_endpoint(avg, exp.T, target, mesh_size, y0=y0)
    _write_table(
        out.path("rate_path.csv"),
        ["t"] + _columns("X", avg.p) + _columns("Y", avg.l),
        np.hstack([path.times[:, None], path.X, path.Y]),
    )
    _write_csv(
        out.path("rate.csv"),
        "J_star,T,mesh_size",
        [[_fmt(value.J), _fmt(exp.T), str(mesh_size)]],
    )
    out.extra.update(avg.counts)
    out.finalize()
    click.echo(f"rate: J*={value.J:.6f} (finite-horizon T={exp.T}) -> {out.dir}")


@main.command("mdp-check")
@_config_argument
@_workers_option
@_guarded
def mdp_check(config_path, workers):
    """Monte Carlo tail sweep at the moderate-deviation log scaling."""
    exp = Experiment(config_path, preload_sparse=False)
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
    _write_csv(
        out.path("mc.csv"),
        "epsilon,N,hits,p_hat,ci_lo,ci_hi,scaled_log,censored",
        (
            [_fmt(c.epsilon), str(c.N), str(c.hits), _fmt(c.p_hat), _fmt(c.ci_lo),
             _fmt(c.ci_hi), _fmt(c.scaled_log), str(int(c.censored))]
            for c in cells
        ),
    )
    _keep_failed_cells(out, cells)
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
@_workers_option
@_guarded
def inequalities(config_path, workers):
    """Empirical exponential-inequality grid for martingale samplers."""
    exp = Experiment(config_path, preload_sparse=False)
    block = exp.block(
        "inequalities",
        allowed={"alpha", "B", "sampler", "n_steps", "qv_cap"},
    )
    alphas = _as_float_list(block.get("alpha", [0.5, 1.0, 2.0, 4.0]), "inequalities.alpha")
    Bs = _as_float_list(block.get("B", [0.5, 1.0, 2.0]), "inequalities.B")
    name = str(block.get("sampler", "brownian"))
    n_steps = int(block.get("n_steps", 1000))
    if name == "brownian":
        _only_read_by(block, "inequalities", ("qv_cap",), "sampler 'stopped'")
        sampler = brownian_sampler(n_steps=n_steps, workers=workers)
    elif name == "stopped":
        sampler = stopped_brownian_sampler(
            float(block.get("qv_cap", 1.0)), n_steps=n_steps, workers=workers
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
