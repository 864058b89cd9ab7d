"""Spans around the calls the benchmark makes into each odebench layer.

The benchmark records spans from its own code: ``install`` rebinds the
public functions that one module calls in another (``magi.gp_smooth_fit``,
``magi.nuts_sample``, ``experiments.train_pinn`` and so on) to wrappers that
open a span around the original.  Nothing under ``src/`` changes, and the
wrappers are removed again by ``uninstall``.

A span has a name ``<layer>.<what>``, a start, an end and a parent.  Work
that happens too often for one span per call (the log density inside NUTS,
about 10^5 calls a run) is recorded on the enclosing span as a count and a
total under ``counted``; that time belongs to the counted layer, not to the
span's own layer.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("experiments", "gp", "magi", "sampler", "integrate", "pinn")


@dataclass
class Span:
    id: str
    name: str
    parent: str | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)
    counted: dict = field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process and the workers it forks.

    A forked worker inherits the open-span stack, so its spans name the
    parent's open span as their parent.  On its first span the worker drops
    the spans it inherited; ``dump_worker`` writes what it recorded since to
    ``dump_dir`` for the parent to ``collect``.
    """

    def __init__(self, dump_dir: str):
        self.pid = self.origin_pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next = 0
        self.dump_dir = dump_dir

    def _adopt_fork(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []

    @contextmanager
    def span(self, name: str):
        self._adopt_fork()
        parent = self._stack[-1].id if self._stack else None
        self._next += 1
        sp = Span(id=f"{self.pid}-{self._next}", name=name, parent=parent,
                  start=time.perf_counter())
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump_worker(self) -> None:
        """Write this worker's spans to ``dump_dir`` and forget them."""
        path = os.path.join(self.dump_dir, f"spans-{self.pid}-{self._next}.json")
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
        self.spans = []

    def collect(self) -> list[Span]:
        """Spans the forked workers wrote, removing their files."""
        out: list[Span] = []
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("spans-"):
                path = os.path.join(self.dump_dir, name)
                with open(path) as fh:
                    out.extend(Span(**d) for d in json.load(fh))
                os.remove(path)
        return out


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part its children and counted work cover.

    Children that run at once in forked workers overlap; their union is
    subtracted once, so a span's self time is never negative on account of
    parallel children.
    """
    children: dict[str, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = [(c.start, c.end) for c in children.get(sp.id, [])]
        counted = sum(v[1] for v in sp.counted.values())
        out[sp.id] = sp.duration - covered_length(kids, sp.start, sp.end) - counted
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer; counted work goes to its own layer."""
    per_span = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for sp in spans:
        out[sp.layer] = out.get(sp.layer, 0.0) + per_span[sp.id]
        for name, (_calls, secs) in sp.counted.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
    return out


def outermost_total(spans: list[Span], name: str) -> tuple[float, int]:
    """(seconds, calls) over spans named ``name`` not nested in another one."""
    by_id = {sp.id: sp for sp in spans}
    secs, calls = 0.0, 0
    for sp in spans:
        if sp.name != name:
            continue
        parent = by_id.get(sp.parent)
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            secs += sp.duration
            calls += 1
    return secs, calls


# ---------------------------------------------------------------------------
# Where the spans go
# ---------------------------------------------------------------------------

# (module, attribute, span name): each entry is the name one module looks up
# at call time when it calls into another layer.
PATCH_POINTS = (
    ("experiments", "ground_truth", "experiments.simulate"),
    ("experiments", "simulate_dataset", "experiments.simulate"),
    ("experiments", "regime_truth_qoi", "experiments.simulate"),
    ("experiments", "compute_rmse", "experiments.metrics"),
    ("experiments", "mechanistic_fidelity", "experiments.metrics"),
    ("experiments", "quantities_of_interest", "experiments.metrics"),
    ("experiments", "integrate_rk45", "integrate.rk45"),
    ("experiments", "fit_magi", "magi.fit_magi"),
    ("experiments", "forecast_extended_grid", "magi.forecast_extended_grid"),
    ("experiments", "forecast_sequential", "magi.forecast_sequential"),
    ("experiments", "train_pinn", "pinn.train"),
    ("experiments", "forward_with_time_derivative", "pinn.forward"),
    ("integrate", "integrate_rk45", "integrate.rk45"),
    ("magi", "integrate_rk45", "integrate.rk45"),
    ("magi", "init_missing_components", "magi.init"),
    ("magi", "make_problem", "magi.problem"),
    ("magi", "run_inference", "magi.run_inference"),
    ("magi", "gp_smooth_fit", "gp.fit"),
    ("magi", "build_kernel_mats", "gp.kernel_build"),
)

# (module, class, method): artifact writers, all counted as experiments.save.
SAVE_POINTS = (
    ("magi", "PosteriorSamples", "save"),
    ("pinn", "MlpNet", "to_json"),
    ("pinn", "TrainedPinn", "history_to_csv"),
)


def _traced_nuts(tracer: Tracer, nuts_sample, compiled_target):
    """nuts_sample in a span, with the target's log density counted.

    Wrapping the target's ``func`` keeps the numpy engine, which is the one
    ``nuts_sample`` picks for any func that is not a numba dispatcher.  A
    numba dispatcher (it carries ``py_func``) is passed through unwrapped so
    the engine does not change; its calls are then not counted.
    """

    @functools.wraps(nuts_sample)
    def traced(target, init, config):
        with tracer.span("sampler.nuts") as sp:
            if isinstance(target, compiled_target) and not hasattr(target.func, "py_func"):
                inner = target.func
                tally = [0, 0.0]

                def counted(q, ctx):
                    t0 = time.perf_counter()
                    try:
                        return inner(q, ctx)
                    finally:
                        tally[1] += time.perf_counter() - t0
                        tally[0] += 1

                target = compiled_target(func=counted, ctx=target.ctx)
                sp.counted["magi.logp_grad"] = tally
            chain = nuts_sample(target, init, config)
            sp.attrs.update(leapfrogs=int(chain.n_leapfrog),
                            transitions=int(chain.n_transitions),
                            divergences=int(chain.divergence_count))
            return chain

    return traced


def _traced_run_single(tracer: Tracer, run_single):
    """run_single in a span; a forked pool worker writes its spans out."""

    @functools.wraps(run_single)
    def traced(*args, **kwargs):
        try:
            with tracer.span("experiments.run_single"):
                return run_single(*args, **kwargs)
        finally:
            if os.getpid() != tracer.origin_pid:
                tracer.dump_worker()

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every patch point to a traced wrapper; returns what to undo."""
    import odebench.experiments
    import odebench.integrate
    import odebench.magi
    import odebench.pinn
    import odebench.sampler

    modules = {"experiments": odebench.experiments, "integrate": odebench.integrate,
               "magi": odebench.magi, "pinn": odebench.pinn}
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod, attr, name in PATCH_POINTS:
        owner = modules[mod]
        rebind(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    for mod, cls, meth in SAVE_POINTS:
        owner = getattr(modules[mod], cls)
        rebind(owner, meth, tracer.wrap("experiments.save", getattr(owner, meth)))
    rebind(modules["magi"], "nuts_sample",
           _traced_nuts(tracer, odebench.magi.nuts_sample, odebench.sampler.CompiledTarget))
    rebind(modules["experiments"], "run_single",
           _traced_run_single(tracer, odebench.experiments.run_single))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
