"""Public signatures of the package modules."""

import importlib
import inspect
import pkgutil

import groupiso


def _public_callables():
    """(qualified name, function) for each public function defined in a
    ``groupiso`` module, and the constructor and public methods of each
    public class."""
    for info in pkgutil.iter_modules(groupiso.__path__):
        module = importlib.import_module(f"groupiso.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for mname, method in vars(obj).items():
                    if (mname == "__init__" or not mname.startswith("_")) and inspect.isfunction(method):
                        yield f"{module.__name__}.{name}.{mname}", method


def test_no_public_function_takes_a_private_parameter():
    # a caller that shares work passes a public object, not a private
    # keyword that every other caller must leave alone
    found = [
        f"{qualname}({param})"
        for qualname, obj in _public_callables()
        for param in inspect.signature(obj).parameters
        if param.startswith("_")
    ]
    assert not found, found
    assert "groupiso.fields.FloatField.__init__" in dict(_public_callables())


def test_all_lists_every_public_name():
    # a name dropped from the package must leave ``__all__`` too, or the
    # star import below fails
    public = {
        name for name, obj in vars(groupiso).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert set(groupiso.__all__) == public
    namespace: dict = {}
    exec("from groupiso import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
