"""Experiment runner: configuration-driven subcommands over the library.

Every subcommand takes one structured config file (YAML), read against one
table, ``_TABLE``, that gives each key its kind, default, bound and reader:
the subcommand, or the ``method: empirical`` or ``sampler: stopped`` variant,
that reads it.  ``Experiment(config_path, subcommand)`` walks the table once
over the common sections and that subcommand's own.  An unknown key, a key
the chosen variant would ignore, and a value of the wrong kind or out of
bounds are config errors that name the key, raised before any work, because
a silently ignored typo in ``kappa`` or ``epsilon`` would invalidate every
scaling claim downstream.  The rules that tie keys together (one model
source, the scale relation, one rate target, an event component below p, a
rate level of at least 0, a closed-form method only at d = 1, an empirical
burn-in in [0, T)) are checked in code.

Outputs are CSV files written only inside ``output_dir``, next to a
``manifest.json`` recording the artifact version, the config hash, the seed,
and a content hash per output file, which is what ``compare`` checks before
juxtaposing two pipelines.  The CSV bytes are a pure function of the config
(wall time lives only in the manifest), so identical runs are byte-identical
at any worker count.

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
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import replace
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
    exponential_inequality_grid,
    negligibility_sweep,
    tail_probability,
    wilson_interval,
)
from .model import BENCHMARKS, constant_coefficient, get_benchmark, validate_model, ModelSpec
from .poisson import solve_family, solve_poisson
from .ratefn import minimize_endpoint
from .simulate import Recorder, simulate_block
from .stationary import invariant_density

_ARTIFACT = "fastslow"


# ---------------------------------------------------------------------------
# inline polynomial models
# ---------------------------------------------------------------------------

def _term_coefficient(value, where):
    """A term's c: a finite int or float; a bool or a string is a typo."""
    if isinstance(value, str):
        raise ConfigError(f"{where}.c must be a number, got {value!r}")
    return _number(value, f"{where}.c")


def _term_powers(value, where):
    """A term's power list: whole numbers, never bools or fractions."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of powers, got {value!r}")
    for v in value:
        whole = isinstance(v, int) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not whole:
            raise ConfigError(f"{where} powers must be whole numbers, got {value!r}")
    return [int(v) for v in value]


def _poly_entry(terms, d, l, where):
    """Compile one scalar entry, a list of {c, z: powers, y: powers} terms,
    into (value, fn): value is the entry's number when no term has a power,
    else None, and fn(z, y) sums the terms.  Each integer power is evaluated
    as repeated multiplication, so c z^3 is c * (z * z * z) and a power of 1
    is one multiply; NumPy would send every power above 2 to libm ``pow``,
    which is far slower (280 against 6 microseconds for z^3 on 4000 points,
    2-core Xeon).  ``_poly_table`` turns a table of constant entries into
    one shared read-only broadcast view."""
    if not isinstance(terms, list):
        raise ConfigError(f"{where} must be a list of term mappings")
    compiled = []
    for i, term in enumerate(terms):
        t_where = f"{where}[{i}]"
        _require_mapping(term, t_where)
        _check_keys(term, t_where, allowed={"c", "z", "y"})
        c = _term_coefficient(term.get("c", 1.0), t_where)
        zp = _term_powers(term.get("z", [0] * d), f"{t_where}.z")
        yp = _term_powers(term.get("y", [0] * l), f"{t_where}.y")
        if len(zp) != d or len(yp) != l:
            raise ConfigError(
                f"{t_where}: power lists must have lengths d={d} and l={l}"
            )
        if any(v < 0 for v in zp + yp):
            raise ConfigError(f"{t_where}: negative powers are not allowed")
        factors = [(0, k, pw) for k, pw in enumerate(zp) if pw]
        factors += [(1, k, pw) for k, pw in enumerate(yp) if pw]
        compiled.append((c, factors))

    def entry(z, y):
        zy = (z, y)
        out = 0.0
        for c, factors in compiled:
            val = c
            for arg, k, pw in factors:
                x = zy[arg][..., k]
                power = x
                for _ in range(pw - 1):
                    power = power * x
                val = val * power
            out = out + val
        return out

    if not any(factors for _, factors in compiled):
        # no term reads z or y, so the sum is the same number at every point
        return entry(None, None), None
    return None, entry


def _poly_table(table, d, l, shape, where):
    """Compile a table of entries into fn(z, y) -> (..., *shape): a list of
    n component entries for shape (n,), or of n rows of m column entries for
    shape (n, m).  Entries are evaluated in row-major order.  A table whose
    entries are all constant is ``model.constant_coefficient`` of their
    values, the read-only broadcast view the benchmark models use."""
    what = ("component entries",) if len(shape) == 1 else ("rows", "column entries")
    entries = []

    def walk(node, index, where):
        if len(index) == len(shape):
            entries.append(((Ellipsis,) + index,) + _poly_entry(node, d, l, where))
            return
        n = shape[len(index)]
        if not isinstance(node, list) or len(node) != n:
            raise ConfigError(f"{where} must list {n} {what[len(index)]}")
        for i, child in enumerate(node):
            walk(child, index + (i,), f"{where}[{i}]")

    walk(table, (), where)
    if all(e is None for _, _, e in entries):
        return constant_coefficient(
            np.reshape([value for _, value, _ in entries], shape)
        )

    def fn(z, y):
        z = np.asarray(z, float)
        y = np.asarray(y, float)
        out = np.empty(np.broadcast(z[..., 0], y[..., 0]).shape + shape)
        # an overflowing path is a SimulationBlowupError of its cell, raised by
        # the kernel's finiteness check, so NumPy's warning would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            for index, value, e in entries:
                out[index] = value if e is None else e(z, y)
        return out

    return fn


# ---------------------------------------------------------------------------
# the config table
# ---------------------------------------------------------------------------

def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    return obj


def _check_keys(mapping, where, allowed):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _number(value, where, kind=float):
    """value as a finite float, or an int for kind int; a bool, a word or, for
    an int, a fraction is a typo, never a number."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if isinstance(value, bool) or number != value and kind is int:
        whole = "whole " if kind is int else ""
        raise ConfigError(f"{where} must be a {whole}number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{where}={value!r} must be finite")
    return number


def _reals(value, where, axis=None, n=None):
    """A number or a list of them, as finite floats: exactly n of them when
    the model's axis fixes n, else at least one."""
    numbers = [_number(v, where) for v in (value if isinstance(value, list) else [value])]
    if n is not None and len(numbers) != n:
        raise ConfigError(f"{where} must list {axis}={n} numbers, got {len(numbers)}")
    if not numbers:
        raise ConfigError(f"{where} must list at least one number")
    return numbers


def _box(value, where, axis, n):
    """One (lo, hi) pair of finite numbers with lo < hi per model axis."""
    if not (
        isinstance(value, list) and len(value) == n
        and all(isinstance(pair, list) and len(pair) == 2 for pair in value)
    ):
        raise ConfigError(f"{where} must list {axis}={n} (lo, hi) pairs, got {value!r}")
    box = [(_number(lo, where), _number(hi, where)) for lo, hi in value]
    if any(lo >= hi for lo, hi in box):
        raise ConfigError(f"{where} needs lo < hi on every axis, got {value!r}")
    return box


# One row per config key, in reading order: the scales before the model, the
# model before the keys its d and l size, a variant's key before those it gates.
#   kind     how _typed reads it; axes after it, as in ``box d``, size it by d, l, p
#   default  of an absent key, a function of the model when d or l sets it;
#            _REQUIRED when it must be given; None when an absent key is unread
#   bound    the (op, limit) a number must meet, or the names of a choice
#   reader   of a section, its subcommand (None: every one); of a key, the
#            ``key: value`` variant of its section that reads it
_Key = namedtuple("_Key", "kind default bound reader", defaults=(None, None, None))
_REQUIRED = "required"


_TABLE = {
    "scales": _Key("section", {}),
    "scales.epsilon": _Key("reals", [0.1]),
    "scales.kappa": _Key("real", 0.25),
    "scales.m": _Key("real", 1.0),
    "model": _Key("model", _REQUIRED),
    "model.benchmark": _Key("choice", None, tuple(BENCHMARKS)),
    "model.inline": _Key("inline"),
    "model.inline.d": _Key("whole", _REQUIRED, (">=", 1)),
    "model.inline.l": _Key("whole", _REQUIRED, (">=", 1)),
    "model.inline.p": _Key("whole", _REQUIRED, (">=", 1)),
    "model.inline.b": _Key("poly d", _REQUIRED),
    "model.inline.sigma": _Key("poly dd", _REQUIRED),
    "model.inline.F": _Key("poly l", _REQUIRED),
    "model.inline.G": _Key("poly ll", _REQUIRED),
    "model.inline.H": _Key("poly p", _REQUIRED),
    "model.inline.z0": _Key("state d"),
    "model.inline.y0": _Key("state l"),
    "model.inline.name": _Key("text", "inline"),
    "grids": _Key("section", {}),
    "grids.z_box": _Key("box d", lambda spec: [[-6.0, 6.0]] * spec.d),
    "grids.z_nodes": _Key("whole", lambda spec: 601 if spec.d == 1 else 101),
    "grids.y_box": _Key("box l", lambda spec: [[-4.0, 4.0]] * spec.l),
    "grids.y_nodes": _Key("whole", lambda spec: 41 if spec.l == 1 else 15),
    "run": _Key("section", _REQUIRED),
    "run.T": _Key("real", _REQUIRED, (">", 0.0)),
    "run.h": _Key("real", _REQUIRED, (">", 0.0)),
    "run.N": _Key("whole", 10_000, (">=", 1)),
    "run.seed": _Key("whole", _REQUIRED),
    "output_dir": _Key("text", _REQUIRED),
    "simulate": _Key("section", {}, None, "simulate"),
    "simulate.path_id": _Key("whole", 0),
    "density": _Key("section", {}, None, "density"),
    "density.y": _Key("state l", lambda spec: [0.0] * spec.l),
    "density.method": _Key("choice", "auto", ("auto", "closed_form", "grid", "empirical")),
    "density.T": _Key("real", 200.0, None, "method: empirical"),
    "density.burn_in": _Key("real", 20.0, None, "method: empirical"),
    "poisson": _Key("section", {}, None, "poisson"),
    "poisson.y": _Key("state l", lambda spec: [0.0] * spec.l),
    "poisson.method": _Key("choice", "auto", ("auto", "closed_form_1d", "grid_solve")),
    "average": _Key("section", {}, None, "average"),
    "delta": _Key("section", {}, None, "delta"),
    "delta.eta": _Key("real", 0.5, (">", 0.0)),
    "rate": _Key("section", {}, None, "rate"),
    "rate.event": _Key("section"),
    "rate.event.functional": _Key("choice", "terminal_x", ("terminal_x",)),
    "rate.event.threshold": _Key("real", _REQUIRED),
    "rate.event.component": _Key("whole", 0, (">=", 0)),
    "rate.target": _Key("reals"),
    "rate.mesh_size": _Key("whole", 128),
    "rate.y0": _Key("state l", lambda spec: [0.0] * spec.l),
    "event": _Key("section", {}, None, "mdp-check"),
    "event.functional": _Key("text", "terminal_x"),  # Event checks the name
    "event.threshold": _Key("real", _REQUIRED),
    "event.component": _Key("whole", 0, (">=", 0)),
    "inequalities": _Key("section", {}, None, "inequalities"),
    "inequalities.alpha": _Key("reals", [0.5, 1.0, 2.0, 4.0]),
    "inequalities.B": _Key("reals", [0.5, 1.0, 2.0]),
    "inequalities.sampler": _Key("choice", "brownian", ("brownian", "stopped")),
    "inequalities.n_steps": _Key("whole", 1000),
    "inequalities.qv_cap": _Key("real", 1.0, None, "sampler: stopped"),
}


def _walk(mapping, section, values, subcommand=None):
    """Check mapping, the config at section, against the table, and store the
    typed value of each key it reads, given or default, under the key's
    dotted path.  A section that only another subcommand reads is skipped."""
    rows = {p.rpartition(".")[2]: (p, k) for p, k in _TABLE.items()
            if p.rpartition(".")[0] == section}
    where = section or "config"
    _check_keys(mapping, where, rows)
    for name, (path, key) in rows.items():
        if key.kind == "section":
            if key.reader not in (None, subcommand):
                continue
        elif key.reader:
            choice, wanted = key.reader.split(": ")
            if values[f"{section}.{choice}"] != wanted:
                if name in mapping:
                    raise ConfigError(
                        f"key {name!r} in {where} is read only by {choice} {wanted!r}"
                    )
                continue
        if name in mapping:
            value = mapping[name]
        elif key.default is _REQUIRED:
            raise ConfigError(f"missing key {name!r} in {where}")
        elif key.default is None:
            continue
        else:
            value = key.default(values["model"]) if callable(key.default) else key.default
        if key.kind == "section":
            _walk(_require_mapping(value, path), path, values, subcommand)
        else:
            values[path] = _typed(value, path, key, values)


def _typed(value, where, key, values):
    """value read as its row's kind and held to its bound."""
    kind, _, axes = key.kind.partition(" ")
    section = where.rpartition(".")[0]
    model = values.get("model")
    # an inline model's own d, l and p size its keys, before the model exists
    n = [getattr(model, a) if model else values[f"{section}.{a}"] for a in axes]
    if kind == "model":
        return _model(_require_mapping(value, where), values)
    if kind == "inline":
        return _build_inline_model(_require_mapping(value, where), *_scales(values))
    if kind == "poly":
        d, l = values[f"{section}.d"], values[f"{section}.l"]
        return _poly_table(value, d, l, tuple(n), where)
    if kind == "box":
        return _box(value, where, axes, *n)
    if kind == "state":
        return np.asarray(_reals(value, where, axes, *n))
    if kind == "choice":
        if isinstance(value, str) and value in key.bound:
            return value
        *head, last = map(repr, key.bound)
        either = f"{', '.join(head)} or {last}" if head else last
        name = where.rpartition(".")[2]
        raise ConfigError(f"{where}: unknown {name} {value!r}; choose {either}")
    if kind == "text":
        if isinstance(value, str) and value:
            return value
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    if kind == "reals":
        return _reals(value, where)
    number = _number(value, where, int if kind == "whole" else float)
    op, limit = key.bound or (None, None)
    if op and not (number > limit if op == ">" else number >= limit):
        raise ConfigError(f"{where}={number!r} must be {op} {limit}")
    return number


def _build_inline_model(block, epsilon, kappa, m):
    fields = {}
    _walk(block, "model.inline", fields)
    fields = {path.rpartition(".")[2]: value for path, value in fields.items()}
    return ModelSpec(epsilon=epsilon, kappa=kappa, m=m, **fields)


def _scales(values):
    return values["scales.epsilon"][0], values["scales.kappa"], values["scales.m"]


def _model(model, values):
    """The model section's spec at the first epsilon, with the scales set."""
    if ("benchmark" in model) == ("inline" in model):
        raise ConfigError("model must give exactly one of 'benchmark' or 'inline'")
    _walk(model, "model", values)
    spec = values.get("model.inline")
    if spec is None:
        eps0, kappa, m = _scales(values)
        spec = get_benchmark(values["model.benchmark"], epsilon=eps0, kappa=kappa)
        spec = replace(spec, m=m) if m != 1.0 else spec
    if not spec.kappa_admissible():
        raise ConfigError(
            f"scale relation fails: kappa={spec.kappa} must be below "
            f"min(1 - m/2, 1/2) = {min(1 - spec.m / 2, 0.5)}"
        )
    return spec


class Experiment:
    """A config read against the table for one subcommand (None: the common
    sections only), plus the model and grids it defines; ``values`` holds each
    read key's typed value under its dotted path."""

    def __init__(self, config_path, subcommand=None):
        try:
            with open(config_path, "r") as fh:
                self.text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config {config_path}: {err}") from err
        try:
            raw = yaml.safe_load(self.text)
        except yaml.YAMLError as err:
            raise ConfigError(f"config is not valid YAML: {err}") from err
        self.values = values = {}
        _walk(_require_mapping(raw if raw is not None else {}, "config"), "", values, subcommand)
        self.spec = spec = values["model"]
        for path in ("event.component", "rate.event.component"):
            if values.get(path, 0) >= spec.p:
                raise ConfigError(f"{path}={values[path]} must be below p={spec.p}")
        closed_forms = (("poisson.method", "closed_form_1d"), ("density.method", "closed_form"))
        for path, method in closed_forms:
            if values.get(path) == method and spec.d != 1:
                raise ConfigError(f"{path}={method} needs d = 1, got d={spec.d}")
        if values.get("density.method") == "empirical":
            burn_in, T = values["density.burn_in"], values["density.T"]
            if not 0.0 <= burn_in < T:
                raise ConfigError(f"density.burn_in={burn_in!r} must lie in [0, density.T={T!r})")
        z_nodes, y_nodes = values["grids.z_nodes"], values["grids.y_nodes"]
        if min(z_nodes, y_nodes) < 3:
            # slow derivatives and gradients are second-order differences
            raise ConfigError(
                f"grids.z_nodes and grids.y_nodes must be >= 3, got {z_nodes} and {y_nodes}"
            )
        self.z_box, self.y_box = values["grids.z_box"], values["grids.y_box"]
        self.z_grid = RectGrid.from_bounds([(lo, hi, z_nodes) for lo, hi in self.z_box])
        self.y_grid = RectGrid.from_bounds([(lo, hi, y_nodes) for lo, hi in self.y_box])
        self.epsilon_list = values["scales.epsilon"]
        self.T, self.h, self.N, self.seed = (values[f"run.{k}"] for k in ("T", "h", "N", "seed"))
        self.output_dir = values["output_dir"]
        if subcommand not in ("simulate", "mdp-check", "inequalities") and spec.d >= 2:
            # the d >= 2 grid routes factor sparse operators; load SciPy's
            # sparse stack in start-up rather than inside the first cell
            # solve.  The three subcommands named only sample paths
            import scipy.sparse.linalg  # noqa: F401
        # the modules and the config live until exit (see the module docstring)
        gc.freeze()

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
        # made at the first write, so a run that fails before it leaves none
        os.makedirs(self.dir, exist_ok=True)
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


_workers_option = click.option(
    "--workers",
    type=click.IntRange(min=1),
    default=lambda: os.cpu_count() or 1,
    help="Worker threads for the Monte Carlo paths (results are identical "
    "at any count).",
)


def _subcommand(name, *options):
    """Register fn as the subcommand name of one config file: fn(exp, out,
    **options) gets the Experiment read for name and its OutputDir."""

    def register(fn):
        @wraps(fn)
        def run(config_path, **kwargs):
            exp = Experiment(config_path, name)
            fn(exp, OutputDir(exp, name), **kwargs)

        run = _guarded(run)
        for option in options:
            run = option(run)
        path = click.Path(exists=False, dir_okay=False)
        return main.command(name)(click.argument("config_path", type=path)(run))

    return register


@_subcommand("validate")
def validate(exp, out):
    """Probe model assumptions on the configured boxes; write a report."""
    report = validate_model(
        exp.spec, exp.z_box, exp.y_box, density_nodes=exp.z_grid.shape[0]
    )
    checks = ("lambda_min", "lambda_max", "dissipativity_r", "dissipativity_C",
              "centering_defect", "growth_F", "bound_G")
    rows = [(k, "nan" if getattr(report, k) is None else _fmt(getattr(report, k))) for k in checks]
    rows += [("violations", str(len(report.violations))), ("ok", str(int(report.ok)))]
    _write_csv(out.path("validate.csv"), "check,value", rows)
    out.extra.update(report.counts)
    for v in report.violations:
        click.echo(f"violation [{v.assumption}]: {v.detail}")
    out.finalize()
    click.echo(f"validate: ok={report.ok} -> {out.dir}")


@_subcommand("simulate")
def simulate(exp, out):
    """Simulate one coupled trajectory and write its macro-mesh CSV."""
    rec = Recorder()
    path_id = exp.values["simulate.path_id"]
    run = simulate_block(exp.spec, exp.T, exp.h, exp.seed, [path_id], probes=(rec,))
    _write_table(
        out.path("path.csv"),
        ["t"] + _columns("xi", exp.spec.d) + _columns("Y", exp.spec.l)
        + _columns("X", exp.spec.p),
        np.hstack([run.times[:, None], rec.xi[0], rec.Y[0], rec.X[0]]),
    )
    out.finalize()
    click.echo(f"simulate: {run.times.size - 1} steps -> {out.dir}")


@_subcommand("density")
def density(exp, out):
    """Invariant density of the frozen fast flow at one slow value."""
    v, kw = exp.values, {}
    if v["density.method"] == "empirical":
        kw = dict(T=v["density.T"], burn_in=v["density.burn_in"], seed=exp.seed)
    pi = invariant_density(exp.spec, v["density.y"], exp.z_grid, method=v["density.method"], **kw)
    _write_table(
        out.path("density.csv"),
        _columns("z", pi.grid.ndim) + ["pi"],
        np.column_stack([pi.grid.points().reshape(-1, pi.grid.ndim), pi.values.reshape(-1)]),
    )
    out.finalize()
    click.echo(f"density: mass={float(pi.grid.integrate(pi.values)):.6f} -> {out.dir}")


@_subcommand("poisson")
def poisson(exp, out):
    """Solve the centered cell problem at one slow value."""
    y, method = exp.values["poisson.y"], exp.values["poisson.method"]
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
    click.echo(f"poisson: residual={sol.residual:.3e} "
               f"centering={out.extra['centering_defect']:.3e} -> {out.dir}")


@_subcommand("average")
def average(exp, out):
    """Tabulate averaged coefficients over the configured y-grid."""
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
    click.echo(f"average: {avg.y_grid.n_nodes} y-nodes, "
               f"margin={avg.nonsingularity_margin:.3e} -> {out.dir}")


@_subcommand("delta")
def delta(exp, out):
    """Sweep the corrector remainder tails over the epsilon list."""
    eta = exp.values["delta.eta"]
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


def _rate_event(values, p, l):
    """The terminal target of the rate minimization: the X vector of a
    'target', or the half-space constraint (C, [level]) of a terminal_x
    'event' on the stacked (X_T, Y_T)."""
    target = values.get("rate.target")
    level = values.get("rate.event.threshold")
    if (level is None) == (target is None):
        raise ConfigError("rate needs exactly one of 'event' or 'target'")
    if target is not None:
        return np.asarray(target)
    if level < 0.0:
        raise ConfigError(
            "half-space level below zero is reached at zero cost; "
            "the prediction is 0 and no minimizer path exists"
        )
    C = np.zeros((1, p + l))
    C[0, values["rate.event.component"]] = 1.0
    return C, np.array([level])


@_subcommand("rate")
def rate(exp, out):
    """Minimize the path action for a terminal target or half-space event."""
    v = exp.values
    mesh_size = v["rate.mesh_size"]
    target = _rate_event(v, exp.spec.p, exp.spec.l)
    avg = exp.averaged_model()
    path, value = minimize_endpoint(avg, exp.T, target, mesh_size, y0=v["rate.y0"])
    _write_table(
        out.path("rate_path.csv"),
        ["t"] + _columns("X", avg.p) + _columns("Y", avg.l),
        np.hstack([path.times[:, None], path.X, path.Y]),
    )
    _write_csv(out.path("rate.csv"), "J_star,T,mesh_size",
               [[_fmt(value.J), _fmt(exp.T), str(mesh_size)]])
    out.extra.update(avg.counts)
    out.finalize()
    click.echo(f"rate: J*={value.J:.6f} (finite-horizon T={exp.T}) -> {out.dir}")


@_subcommand("mdp-check", _workers_option)
def mdp_check(exp, out, workers):
    """Monte Carlo tail sweep at the moderate-deviation log scaling."""
    v = exp.values
    event = Event(v["event.functional"], v["event.threshold"], exp.T, v["event.component"])
    cells = tail_probability(
        exp.spec, event, exp.epsilon_list, exp.N, exp.h, exp.seed, workers=workers
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
            click.echo(f"mdp-check eps={c.epsilon:g}: p_hat={c.p_hat:.3e} "
                       f"scaled_log={c.scaled_log:.4f}{tag}")


@_subcommand("inequalities", _workers_option)
def inequalities(exp, out, workers):
    """Empirical exponential-inequality grid of Brownian motion, plain or stopped."""
    v = exp.values
    rows = []
    worst = 0.0
    cells = exponential_inequality_grid(
        v["inequalities.alpha"], v["inequalities.B"], exp.T, exp.N, exp.seed,
        n_steps=v["inequalities.n_steps"], qv_cap=v.get("inequalities.qv_cap"), workers=workers,
    )
    for cell in cells:
        lo, hi = wilson_interval(cell.hits, cell.N)
        sigma = (hi - lo) / (2.0 * 1.959963984540054)
        violated = int(cell.frequency > cell.bound + 3.0 * sigma)
        worst = max(worst, cell.frequency - cell.bound)
        rows.append([_fmt(cell.alpha), _fmt(cell.B), str(cell.N), _fmt(cell.frequency),
                     _fmt(cell.bound), _fmt(sigma), str(violated)])
    _write_csv(out.path("inequalities.csv"), "alpha,B,N,frequency,bound,sigma,violated", rows)
    out.finalize()
    click.echo(f"inequalities: {len(rows)} cells, worst frequency-bound gap "
               f"{worst:.3e} -> {out.dir}")


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
