import importlib
import os
import pkgutil
import subprocess
import sys

import odebench
from odebench import experiments

from conftest import tiny_regime


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(odebench.__path__):
        module = importlib.import_module(f"odebench.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"odebench.{info.name}.__all__ names missing {name!r}"


def test_package_and_star_imports_in_fresh_interpreter():
    src = os.path.dirname(os.path.dirname(odebench.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import odebench\nfrom odebench.magi import *\nfrom odebench.sampler import *\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_trace_hooks_rebind_every_name_and_restore_it(tmp_path, monkeypatch):
    """Every name the benchmark's tracer rebinds exists, and uninstall puts it back."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
    tracing = importlib.import_module("tracing")
    modules = {name: importlib.import_module(f"odebench.{name}")
               for name in ("experiments", "integrate", "magi", "pinn")}
    owners = ([(modules[mod], attr) for mod, attr, _ in tracing.PATCH_POINTS]
              + [(getattr(modules[mod], cls), meth) for mod, cls, meth in tracing.SAVE_POINTS]
              + [(modules["magi"], "nuts_sample"), (modules["experiments"], "run_single")])
    before = [getattr(owner, attr) for owner, attr in owners]

    undo = tracing.install(tracing.Tracer(str(tmp_path)))
    try:
        assert len(undo) == len(owners)
        for (owner, attr), original in zip(owners, before):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracing.uninstall(undo)
    for (owner, attr), original in zip(owners, before):
        assert getattr(owner, attr) is original, attr


def test_trace_hooks_see_every_layer_of_a_run(tmp_path, monkeypatch):
    """A MAGI and a PINN run under the benchmark's trace hooks open a span in
    every layer the benchmark reports, so no rebound name is a dead import."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(str(tmp_path))
    undo = tracing.install(tracer)
    try:
        for method, options in (("magi", {"n_warmup": 5, "n_samples": 5, "init_budget": 50}),
                                ("pinn", {"lam": 10.0, "epochs": 20})):
            experiments.run_single(tiny_regime(name="tiny-traced"), method, options,
                                   replicate=0, base_seed=1, out_dir=str(tmp_path / "out"))
    finally:
        tracing.uninstall(undo)
    names = {span.name for span in tracer.spans}
    for name in ("magi.fit_magi", "magi.run_inference", "pinn.train", "pinn.forward",
                 "experiments.metrics", "experiments.save"):
        assert name in names, name
