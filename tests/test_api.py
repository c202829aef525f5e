"""Public API shape: numerical tolerances are module constants, not
arguments, and the package resolves its names lazily."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import effectrestore


def public_callables():
    """(qualified name, callable) for every exported function, every
    exported class's constructor and each of its public methods."""
    for name in effectrestore.__all__:
        obj = getattr(effectrestore, name)
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def is_tolerance_knob(param: str) -> bool:
    return param.startswith("tol_") or param in ("cond_cap", "cap")


def test_no_exported_callable_takes_a_tolerance_keyword():
    knobs = []
    for qualname, fn in public_callables():
        try:
            params = inspect.signature(fn).parameters
        except ValueError:  # builtin constructors, e.g. the exception classes'
            continue
        knobs += [f"{qualname}({p}=)" for p in params if is_tolerance_knob(p)]
    assert knobs == []


def run_probe(code: str, env: dict | None = None) -> dict:
    """Run ``code`` in a fresh interpreter that finds this package; its
    stdout is a JSON document."""
    src = str(Path(effectrestore.__file__).resolve().parents[1])
    base = {**os.environ, **(env or {})}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=base, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


class TestLazyPackage:
    """``import effectrestore`` loads nothing; names and submodules load on use."""

    def test_import_loads_neither_numpy_nor_a_submodule(self):
        loaded = run_probe(
            "import json, sys; import effectrestore; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith(('numpy.', 'effectrestore.')))))"
        )
        assert loaded == []

    def test_every_name_and_submodule_resolves(self):
        doc = run_probe("""
import importlib, json, pkgutil, types
import effectrestore
names = {n: getattr(effectrestore, n) is getattr(
    importlib.import_module(f"effectrestore.{effectrestore._ORIGIN[n]}"), n)
    for n in effectrestore.__all__}
on_disk = sorted(m.name for m in pkgutil.iter_modules(effectrestore.__path__))
subs = {m: isinstance(getattr(effectrestore, m), types.ModuleType) for m in on_disk}
star = {}
exec("from effectrestore import *", star)
try:
    effectrestore.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"names": names, "subs": subs, "listed": dir(effectrestore),
                  "star": sorted(k for k in star if k != "__builtins__"),
                  "unknown": unknown, "declared": sorted(effectrestore._SUBMODULES)}))
""")
        assert len(doc["names"]) == 58 and all(doc["names"].values())
        assert doc["declared"] == sorted(doc["subs"]) and all(doc["subs"].values())
        assert set(doc["names"]) | set(doc["subs"]) <= set(doc["listed"])
        assert doc["star"] == sorted(doc["names"])
        assert doc["unknown"] == "module 'effectrestore' has no attribute 'no_such_name'"
