"""The package namespace: names resolve on first use, and `import quadflow` loads no submodule."""
import importlib
import os
import subprocess
import sys

import pytest

import quadflow

SRC = os.path.dirname(os.path.dirname(quadflow.__file__))


def test_every_exported_name_is_its_defining_module_object():
    listed = dir(quadflow)
    for name in quadflow.__all__:
        value = getattr(quadflow, name)
        assert name in listed
        if name == "__version__":
            continue
        if name == "models":
            assert value is importlib.import_module("quadflow.models")
            continue
        owner = importlib.import_module(f"quadflow.{quadflow._OWNER[name]}")
        assert value is getattr(owner, name)
        assert getattr(value, "__module__", owner.__name__) == owner.__name__
        assert vars(quadflow)[name] is value  # kept, so the next access is a plain lookup


def test_each_name_is_listed_once():
    names = [name for names in quadflow._EXPORTS.values() for name in names.split()]
    assert len(names) == len(set(names)) == len(quadflow.__all__) - 2  # besides models and __version__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from quadflow import *", namespace)
    assert set(quadflow.__all__) <= set(namespace)
    assert namespace["discretize"] is quadflow.oracle.discretize


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadflow.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from quadflow import no_such_name", {})
    assert not hasattr(quadflow, "no_such_name")


def test_import_loads_no_submodule():
    code = "import sys, quadflow; print(sorted(m for m in sys.modules if m.startswith('quadflow.')))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_first_access_loads_the_defining_module_and_what_it_imports():
    code = ("import sys, quadflow; quadflow.QuadraticForm; quadflow.errors; "
            "print(sorted(m for m in sys.modules if m.startswith('quadflow.')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['quadflow.config', 'quadflow.errors', 'quadflow.symplectic']"
