"""The benchmark reads the package by name: every per-layer metric of
perfbench/run.py counts calls of "layer.name" functions, and the tracer
hooks three of them.  A missing name reads as 0 calls there, so a rename
in the package is caught here instead."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

from liecodazzi.classify import Claim, PolySystem
from liecodazzi.connection import Connection

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _metric_names() -> set:
    """Every non-poly "layer.name" passed to calls(...) or incl(...)."""
    text = (_PERFBENCH / "run.py").read_text(encoding="utf-8")
    names = set()
    for args in re.findall(r"\b(?:calls|incl)\(([^()]*)\)", text):
        names.update(n for n in re.findall(r'"(\w+\.\w+)"', args)
                     if not n.startswith("poly."))
    return names


def _hook_names() -> set:
    text = (_PERFBENCH / "tracer.py").read_text(encoding="utf-8")
    return set(re.findall(r'"(\w+\.\w+)": self\._on_', text))


def test_names_are_found():
    assert len(_metric_names()) >= 15
    assert _hook_names() == {"connection.make_connection", "classify.build_system",
                             "classify.sample_necessity"}


@pytest.mark.parametrize("name", sorted(_metric_names() | _hook_names()))
def test_traced_name_is_a_package_function(name):
    # the tracer wraps a module's own functions: public ones and _rref
    layer, attr = name.split(".")
    module = importlib.import_module(f"liecodazzi.{layer}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    assert not attr.startswith("_") or attr == "_rref", name


def test_attributes_read_by_the_workloads():
    assert "recomputed_families" in Claim._fields
    assert "kind" in Connection._fields
    assert callable(Claim.branches)
    assert callable(PolySystem.to_json)
