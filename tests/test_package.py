"""The lazy drt namespace: names resolve on first use to their home module."""

import importlib
import inspect
import subprocess
import sys

import pytest

import drt


def test_each_name_is_the_object_of_its_home_module():
    wrong = []
    for name in drt.__all__:
        home = importlib.import_module(f"drt.{drt._HOME[name]}")
        obj = getattr(drt, name)
        defined = (not (inspect.isclass(obj) or inspect.isfunction(obj))
                   or obj.__module__ == home.__name__)
        if obj is not getattr(home, name) or not defined:
            wrong.append(name)
    assert wrong == []


def test_dir_lists_every_public_name():
    assert len(set(drt.__all__)) == len(drt.__all__) == 106
    assert set(drt.__all__) <= set(dir(drt))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from drt import *", namespace)
    assert set(drt.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'drt' has no attribute 'no_such_name'$"):
        drt.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from drt import no_such_name", {})


def test_import_drt_loads_no_layer():
    code = ("import sys, drt; "
            "sys.exit(sorted(m for m in sys.modules if m.startswith('drt.')) "
            "or 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
