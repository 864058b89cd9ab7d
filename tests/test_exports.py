import importlib
import os
import pkgutil
import subprocess
import sys

import odebench


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
