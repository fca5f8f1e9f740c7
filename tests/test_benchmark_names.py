"""Every function the benchmark tracer spans or counts stays importable.

perfbench/run.py drops the metrics of a name that the tracer cannot import, so a
renamed or deleted function would leave the traced record short without an error.
SPANNED and COUNTED are read from perfbench/tracer.py as literals, without importing it.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """{"SPANNED": ..., "COUNTED": ...}: the (module, function) pairs of the tracer."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")}


NAMES = traced_names()


def test_both_lists_are_read():
    assert set(NAMES) == {"SPANNED", "COUNTED"}
    assert len(NAMES["SPANNED"]) > 10 and NAMES["COUNTED"]


@pytest.mark.parametrize("module, name", [*NAMES["SPANNED"], *NAMES["COUNTED"]],
                         ids=lambda v: v)
def test_every_traced_name_is_importable(module, name):
    assert callable(getattr(importlib.import_module(f"pqgamma.{module}"), name))
