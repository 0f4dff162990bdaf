"""In-memory span tracer installed from the benchmark's side of the package boundary.

The tracer wraps the public functions and methods of each ``fastslow`` layer
module and rebinds every module namespace that imported them (for example
``path_generator`` in both ``simulate`` and ``mcengine``), so no source file
changes.  Two boundaries are below the public API and get their own wrappers:
the Philox generators handed out by ``path_generator`` (every normal draw is
a ``simulate.draw`` span counting its normals) and the coefficient callables
of every ``ModelSpec`` (``model.coef.<name>`` spans).

A span is ``(id, name, start, end, parent, thread, n)`` with ``n`` the work
it did (points, normals, path-steps) or 0.  Spans are kept in a list and
written once when the traced process ends.  A worker thread's outermost span
takes the main thread's innermost open span as its parent, so Monte Carlo
batches hang under the sweep that submitted them.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
import types
from statistics import median

LAYERS = (
    "simulate", "model", "grids", "stationary", "poisson",
    "averaging", "ratefn", "deviations", "mcengine", "cli",
)

_COEFFICIENTS = ("b", "sigma", "F", "G", "H")
_WRITERS = {
    "cli.write_csv", "cli.OutputDir.finalize", "mcengine.write_tail_csv",
    "deviations.write_sweep_csv", "ratefn.write_rate_path_csv",
    "averaging.write_averaged_csv", "simulate.write_path_csv",
}


class _TracedGenerator:
    """Proxy for a numpy Generator whose normal draws become spans."""

    def __init__(self, gen, draw):
        self._gen = gen
        self._draw = draw

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self.families = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.main_thread().ident

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, count=None):
        """Return fn recording one span per call; count(args, kwargs, result) -> n."""
        clock, spans, ids = self.clock, self.spans, self._ids
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack and stack is not main_stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, t0, clock(), parent, threading.get_ident(), 0))
                raise
            finally:
                stack.pop()
            t1 = clock()
            n = count(args, kwargs, result) if count is not None else 0
            spans.append((sid, name, t0, t1, parent, threading.get_ident(), n))
            return result

        traced._perfbench_traced = True
        return traced

    # -- installation -------------------------------------------------------

    def install(self, cli_module):
        """Wrap every layer's public API and rebind all importing namespaces."""
        import fastslow
        from fastslow import model, simulate

        replaced = {}
        counts = self._counters(simulate)
        for layer in LAYERS:
            mod = sys.modules[f"fastslow.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{layer}.{attr}", counts)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replaced[obj] = self._wrap_function(obj, f"{layer}.{attr}", counts)

        replaced[cli_module._write_csv] = self.wrap(cli_module._write_csv, "cli.write_csv")
        cls = cli_module.Experiment
        cls.__init__ = self.wrap(cls.__init__, "cli.parse")
        cls.averaged_model = self.wrap(cls.averaged_model, "cli.averaged_model")
        cli_module.OutputDir.finalize = self.wrap(
            cli_module.OutputDir.finalize, "cli.OutputDir.finalize"
        )
        for name, command in cli_module.main.commands.items():
            command.callback = self.wrap(command.callback, f"cli.{name}")

        # generators and coefficient callables are below the public API
        make_gen = replaced[simulate.path_generator]
        draw = self.wrap(
            lambda gen, *a, **k: gen.standard_normal(*a, **k),
            "simulate.draw",
            count=lambda a, k, r: r.size,
        )
        replaced[simulate.path_generator] = functools.wraps(make_gen)(
            lambda *a, **k: _TracedGenerator(make_gen(*a, **k), draw)
        )
        post_init = model.ModelSpec.__post_init__

        def traced_post_init(spec):
            post_init(spec)
            for coef in _COEFFICIENTS:
                fn = getattr(spec, coef)
                if not getattr(fn, "_perfbench_traced", False):
                    object.__setattr__(spec, coef, self.wrap(fn, f"model.coef.{coef}"))

        model.ModelSpec.__post_init__ = traced_post_init

        for mod in [fastslow] + [m for k, m in sys.modules.items() if k.startswith("fastslow.")]:
            for attr, value in list(vars(mod).items()):
                if callable(value) and not isinstance(value, type) and value in replaced:
                    setattr(mod, attr, replaced[value])

    def _counters(self, simulate):
        micro_substeps = simulate.micro_substeps

        def block_steps(args, kwargs, result):
            spec, T, h = args[0], args[1], args[2]
            n_sub = micro_substeps(h, spec.epsilon, kwargs.get("c_fast", 0.1))
            return len(args[4]) * int(round(T / h)) * n_sub

        def points(args, kwargs, result):
            return math.prod(getattr(args[2], "shape", (1, 1))[:-1])

        def family_points(args, kwargs, result):
            self.families[id(args[0])] = args[0]
            return math.prod(getattr(args[1], "shape", (1, 1))[:-1])

        return {
            "simulate.simulate_block": block_steps,
            "grids.multilinear": points,
            "poisson.PoissonFamily.u_at": family_points,
            "poisson.PoissonFamily.grad_u_at": family_points,
            "poisson.PoissonFamily.du_dy_at": family_points,
            "poisson.PoissonFamily.d2u_dy2_at": family_points,
        }

    def _wrap_function(self, fn, name, counts):
        traced = self.wrap(fn, name, count=counts.get(name))
        if name.startswith("mcengine.") and name.endswith("_sampler"):
            # sampler factories: the closure they return is the timed sampler
            factory = traced

            @functools.wraps(fn)
            def make_sampler(*args, **kwargs):
                return self.wrap(factory(*args, **kwargs), "mcengine.sampler")

            return make_sampler
        return traced

    def _wrap_methods(self, cls, prefix, counts):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            name = f"{prefix}.{attr}"
            setattr(cls, attr, self.wrap(value, name, count=counts.get(name)))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    return {
        s[0]: (s[3] - s[2]) - covered(children.get(s[0], ()), s[2], s[3])
        for s in spans
    }


def ancestors(spans):
    """Span id -> tuple of ancestor names, innermost first."""
    by_id = {s[0]: s for s in spans}
    out = {}
    for s in spans:
        chain = []
        p = s[4]
        while p in by_id:
            chain.append(by_id[p][1])
            p = by_id[p][4]
        out[s[0]] = tuple(chain)
    return out


def mc_batches(spans, anc=None):
    """Kernel spans submitted by the Monte Carlo engine, one per batch."""
    anc = ancestors(spans) if anc is None else anc
    return [s for s in spans if s[1] == "simulate.simulate_block"
            and any(a.startswith("mcengine.") for a in anc[s[0]])]


def layer_metrics(spans, *, clamped=0, workers=1):
    """Per-layer counts and times from one traced run's spans."""
    selft = self_times(spans)
    anc = ancestors(spans)

    def pick(pred):
        return [s for s in spans if pred(s[1])]

    def dur(ss):
        return sum(s[3] - s[2] for s in ss)

    def outer(prefix):      # spans whose direct parent lies outside the prefix
        return [s for s in spans if s[1].startswith(prefix)
                and not any(a.startswith(prefix) for a in anc[s[0]][:1])]

    gens = pick(lambda n: n == "simulate.path_generator")
    draws = pick(lambda n: n == "simulate.draw")
    blocks = pick(lambda n: n == "simulate.simulate_block")
    coefs = pick(lambda n: n.startswith("model.coef."))
    interp = pick(lambda n: n == "grids.multilinear")
    fam = outer("poisson.PoissonFamily.")
    probe = outer("deviations.CorrectorProbe.")
    dens = outer("stationary.")
    solves = outer("poisson.solve_poisson")
    family_solves = pick(lambda n: n == "poisson.solve_family")
    averaged = pick(lambda n: n == "averaging.averaged_coefficients")
    minimize = pick(lambda n: n == "ratefn.minimize_endpoint")
    sweeps = pick(lambda n: n == "mcengine.tail_probability")
    batches = mc_batches(spans, anc)
    samplers = pick(lambda n: n == "mcengine.sampler")
    parse = pick(lambda n: n == "cli.parse")
    writes = pick(lambda n: n in _WRITERS)

    normals = sum(s[6] for s in draws)
    path_steps = sum(s[6] for s in blocks)
    family_nodes = sum(1 for s in solves if "poisson.solve_family" in anc[s[0]])
    quadrature = dur(averaged) - sum(
        s[3] - s[2] for s in family_solves if "averaging.averaged_coefficients" in anc[s[0]]
    )
    sweep_s = dur(sweeps)

    m = {
        "simulate.generators": len(gens),
        "simulate.keygen_s": dur(gens),
        "simulate.normals": normals,
        "simulate.draw_s": dur(draws),
        "simulate.normals_per_s": normals / dur(draws) if draws else 0.0,
        "simulate.block_s": sum(selft[s[0]] for s in blocks),
        "simulate.path_steps": path_steps,
        "simulate.path_steps_per_s": path_steps / dur(blocks) if blocks else 0.0,
        "model.coef_calls": len(coefs),
        "model.coef_s": dur(coefs),
        "grids.multilinear_calls": len(interp),
        "grids.multilinear_points": sum(s[6] for s in interp),
        "grids.multilinear_s": dur(interp),
        "poisson.family_eval_s": dur(fam),
        "poisson.clamped": clamped,
        "deviations.probe_calls": len(probe),
        "deviations.probe_s": dur(probe),
        "stationary.densities": len(dens),
        "stationary.density_s": dur(dens),
        "poisson.solves": len(solves),
        "poisson.solve_s": dur(solves),
        "poisson.s_per_node": dur(family_solves) / family_nodes if family_nodes else 0.0,
        "averaging.quadrature_s": quadrature,
        "ratefn.minimize_s": dur(minimize),
        "mcengine.batches": len(batches),
        "mcengine.batch_s": median(s[3] - s[2] for s in batches) if batches else 0.0,
        "mcengine.worker_busy_frac": dur(batches) / (workers * sweep_s) if sweep_s else 0.0,
        "mcengine.sampler_calls": len(samplers),
        "mcengine.sampler_s": dur(samplers),
        "cli.parse_s": dur(parse),
        "cli.write_s": dur(writes),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selft[s[0]] for s in spans if s[1].split(".", 1)[0] == layer)
    return m


# pipeline stages by span-name prefix, first match wins
STAGES = (
    ("noise", ("simulate.draw", "simulate.path_generator")),
    ("kernel", ("simulate.",)),
    ("coefficients", ("model.",)),
    ("interpolation", ("grids.", "poisson.PoissonFamily.", "averaging.AveragedModel.")),
    ("solve", ("stationary.", "poisson.")),
    ("probe", ("deviations.",)),
    ("quadrature", ("averaging.",)),
    ("minimizer", ("ratefn.",)),
    ("mc-engine", ("mcengine.",)),
    ("cli", ("cli.",)),
)


def stage_of(name):
    for stage, prefixes in STAGES:
        if name.startswith(prefixes):
            return stage
    return "other"


def stage_self_times(spans):
    """Stage -> summed self time, largest first."""
    selft = self_times(spans)
    out = {}
    for s in spans:
        stage = stage_of(s[1])
        out[stage] = out.get(stage, 0.0) + selft[s[0]]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
