"""Public API shape: numerical tolerances are module constants, not arguments."""

import inspect

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
