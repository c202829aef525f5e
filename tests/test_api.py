"""Public API shape: numerical tolerances are module constants, not
arguments, and the package resolves its names lazily."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effectrestore
from effectrestore.errors import ValidationError
from effectrestore.io import dump_json


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


def json_examples() -> dict:
    """By class name, an instance of every exported class that reads JSON,
    in each of its JSON forms."""
    import numpy as np

    er = effectrestore
    rates = er.BinaryErrorParams(0.2, 0.1)
    dense = er.ErrorMatrix(entries=np.array([[0.9, 0.2], [0.1, 0.8]]))
    spec = er.binary_spec(0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], rates)
    return {
        "BinaryErrorParams": [rates],
        "CovStats": [er.CovStats(var_x=1.0, var_y=2.0, var_w=3.0, cov_xy=0.5, cov_xw=0.25,
                                 cov_yw=0.75, n=10)],
        "DiscreteModelSpec": [
            spec, er.DiscreteModelSpec(spec.p_z, spec.p_x_given_z, spec.p_y_given_xz, dense)],
        "ErrorMatrix": [dense, er.component_mechanism([rates, er.BinaryErrorParams(0.05, 0.3)])],
        "JointTable": [er.JointTable(np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0, "W")],
        "LinearSemSpec": [er.LinearSemSpec(c0=0.5, c1=0.9, c2=0.7, c3=1.1, var_z=1.0, var_ex=1.0,
                                           var_ey=1.0, var_ew=0.3, c_v=0.8, var_ev=0.4)],
    }


def number_paths(doc, path=()):
    """The path to every number in a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            if type(value) in (int, float):
                yield (*path, key)
            yield from number_paths(value, (*path, key))


def test_every_json_reader_refuses_what_is_not_a_number():
    # each reader loads its own written document back, and refuses a numeric
    # string or a boolean in place of any one of its numbers
    readers = {q.split(".")[0] for q, _ in public_callables() if q.endswith(".from_json_dict")}
    examples = json_examples()
    assert readers == set(examples)
    for name, instances in examples.items():
        cls = getattr(effectrestore, name)
        for obj in instances:
            text = dump_json(obj.to_json_dict(), None)
            assert dump_json(cls.from_json_dict(json.loads(text)).to_json_dict(), None) == text
            for path in number_paths(json.loads(text)):
                for bad in ("string", "boolean"):
                    doc = json.loads(text)
                    holder = doc
                    for key in path[:-1]:
                        holder = holder[key]
                    holder[path[-1]] = repr(holder[path[-1]]) if bad == "string" else True
                    with pytest.raises(ValidationError):
                        cls.from_json_dict(doc)


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
        assert len(doc["names"]) == 56 and all(doc["names"].values())
        assert doc["declared"] == sorted(doc["subs"]) and all(doc["subs"].values())
        assert set(doc["names"]) | set(doc["subs"]) <= set(doc["listed"])
        assert doc["star"] == sorted(doc["names"])
        assert doc["unknown"] == "module 'effectrestore' has no attribute 'no_such_name'"


def raised_names(tree):
    """Names of the exceptions a module's ``raise`` statements raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                yield exc.id if isinstance(exc, ast.Name) else exc.attr


def test_only_restore_decides_that_data_contradict_a_mechanism():
    # one rule for every consumer: ``restore._finalize``, nowhere else
    package = Path(effectrestore.__file__).parent
    raisers = sorted(
        path.name for path in package.glob("*.py")
        if "IncompatibleModelError" in raised_names(ast.parse(path.read_text()))
    )
    assert raisers == ["restore.py"]


def test_only_tables_decides_positivity():
    # one rule for the cell-level and the stratified adjustment:
    # ``tables._adjustment_weights``, nowhere else
    package = Path(effectrestore.__file__).parent
    raisers = sorted(
        path.name for path in package.glob("*.py")
        if "PositivityError" in raised_names(ast.parse(path.read_text()))
    )
    assert raisers == ["tables.py"]


def called_names(tree):
    """Names of the functions a module's calls call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            yield node.func.id if isinstance(node.func, ast.Name) else node.func.attr


def test_every_restoration_reaches_the_verdict_through_restore():
    # one 2x2 kernel: binary code restores through the operator path, and
    # only restore.py hands raw cells to ``restore._finalize``
    package = Path(effectrestore.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert sorted(name for name, tree in trees.items()
                  if "_finalize" in called_names(tree)) == ["restore.py"]
    assert not [node for node in ast.walk(trees["binary.py"])
                if isinstance(node, ast.Attribute) and node.attr == "determinant"]


def callers(tree, name):
    """Names of a module's top-level functions that call ``name``."""
    return sorted(node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and name in called_names(node))


def test_every_inverse_reaches_the_verdict():
    # one restoration kernel, ``restore._inverted``: it alone checks and
    # applies an inverse, every function that calls it hands what it returns
    # to the verdict, and one function of restore.py raises the refusal
    package = Path(effectrestore.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    functions = [((module, node.name), node) for module, tree in sorted(trees.items())
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def calling(name):
        return [(key, node) for key, node in functions if name in called_names(node)]

    for name in ("apply_inverse", "_check_invertible"):
        assert [key for key, _ in calling(name)] == [("restore.py", "_inverted")]
        ((_, kernel),) = calling(name)
        # and no call outside a function
        assert (sum(list(called_names(tree)).count(name) for tree in trees.values())
                == list(called_names(kernel)).count(name))
    users = calling("_inverted")
    assert [key for key, _ in users] == [("binary.py", "_restored"),
                                         ("restore.py", "restore_joint"),
                                         ("restore.py", "_restored_effects")]
    for key, node in users:
        assert {"_judged", "_finalize"} & set(called_names(node)), key
    assert [node.name for node in trees["restore.py"].body if isinstance(node, ast.FunctionDef)
            and "IncompatibleModelError" in raised_names(node)] == ["_judged"]


def test_one_resampling_driver():
    # both bootstraps draw through ``linear._resampled``: it alone makes the
    # resample streams and fills the count buffer
    tree = ast.parse((Path(effectrestore.__file__).parent / "linear.py").read_text())
    assert callers(tree, "make_rng") == callers(tree, "_fill_counts") == ["_resampled"]


def frozen_objects():
    """A table, a dense mechanism with its inverse cached, a factored one
    with its LU factors cached, a propensity profile and a discrete model,
    each with the read-only arrays that must stay read-only."""
    import numpy as np

    from effectrestore import DiscreteModelSpec, ErrorMatrix, JointTable, mechanism
    from effectrestore.restore import PropensityProfile

    table = JointTable(np.full((2, 2, 2), 1 / 8), "Z")
    dense = ErrorMatrix(entries=np.array([[0.9, 0.2], [0.1, 0.8]]))
    dense.condition()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanism, "_LU_MIN_SIDE", 2)
        factored = ErrorMatrix(factors=(dense, ErrorMatrix(entries=[[0.7, 0.4], [0.3, 0.6]])))
        factored.apply_inverse(np.ones(4))
    profile = PropensityProfile(
        scores=np.full(4, 0.5), labels=np.array([0, 1, 0, -1]), weights=np.array([0.6, 0.4])
    )
    spec = DiscreteModelSpec(p_z=[0.4, 0.6], p_x_given_z=[[0.7, 0.2], [0.3, 0.8]],
                             p_y_given_xz=np.full((2, 2, 2), 0.5), error=dense)
    return {
        "table": (table, lambda t: [t.cells]),
        "dense": (dense, lambda m: [m.entries]),
        "factored": (factored, lambda m: [f.entries for f in m.factors]),
        "profile": (profile, lambda p: [p.scores, p.labels, p.weights]),
        "spec": (spec, lambda s: [s.p_z, s.p_x_given_z, s.p_y_given_xz, s.error.entries]),
    }


@pytest.mark.parametrize("copier", ["pickle", "deepcopy"])
@pytest.mark.parametrize("kind", ["table", "dense", "factored", "profile", "spec"])
def test_copies_stay_frozen(kind, copier):
    import copy
    import pickle

    import numpy as np

    obj, arrays = frozen_objects()[kind]
    clone = copy.deepcopy(obj) if copier == "deepcopy" else pickle.loads(pickle.dumps(obj))
    assert type(clone) is type(obj)
    for got, want in zip(arrays(clone), arrays(obj), strict=True):
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    # caches are rebuilt from the entries, not carried over as writeable copies
    assert not {"_inverses", "_condition", "_inverse_blocks"} & set(vars(clone))
    if kind in ("dense", "factored"):
        # the clone, built outside the LU block, inverts its factors explicitly
        assert clone.condition() == pytest.approx(obj.condition(), rel=1e-12)
