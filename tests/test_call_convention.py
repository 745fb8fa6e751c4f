"""The step's call convention: every ufunc call passes its output
positionally.

numpy parses a keyword argument on every call, and a step makes about a
hundred ufunc calls, so ``np.add(a, b, c)`` in place of
``np.add(a, b, out=c)`` is part of the step's cost. The scan reads the
source of the modules a step runs through and flags each ``np.<ufunc>``
call whose only keyword is ``out=``. ``np.maximum`` and ``np.minimum`` are
exempt: numpy deprecates their positional output. A call with another
keyword (``where=``, ``dtype=``) is not flagged.
"""

import ast
import os

import numpy as np
import pytest

from numpy_calls import PACKAGE

STEP_MODULES = ("gradients", "control", "sim", "model", "fields")
EXEMPT = {"maximum", "minimum"}


def keyword_outputs(source: str) -> list[tuple[int, str]]:
    """(line, ufunc) of each call in ``source`` that gives ``out=`` as its
    only keyword to a ufunc named as ``np.<name>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            continue
        name = node.func.attr
        if (isinstance(getattr(np, name, None), np.ufunc)
                and name not in EXEMPT
                and [k.arg for k in node.keywords] == ["out"]):
            found.append((node.lineno, name))
    return sorted(found)


def _source(module):
    with open(os.path.join(PACKAGE, f"{module}.py")) as f:
        return f.read()


@pytest.mark.parametrize("module", STEP_MODULES)
def test_step_modules_pass_outputs_positionally(module):
    assert keyword_outputs(_source(module)) == []


def test_scan_catches_a_planted_keyword_output():
    source = _source("sim")
    planted = source + "\nnp.add(a, b, out=c)\n"
    line = planted.count("\n")
    assert keyword_outputs(planted) == keyword_outputs(source) + [
        (line, "add")]


@pytest.mark.parametrize("call", [
    "np.add(a, b, c)",
    "np.multiply(*w.first)",
    "np.maximum(a, b, out=c)",
    "np.divide(a, b, c, where=m)",
    "np.divide(a, b, out=c, where=m)",
    "np.multiply.reduceat(a, s, axis=-1, out=c)",
    "np.clip(a, lo, hi, out=c)",
    "turn_angles(a, out=c)",
])
def test_scan_passes_other_calls(call):
    assert keyword_outputs(call) == []


@pytest.mark.parametrize("call", [
    "np.add(*rows, out=c)",
    "np.sqrt(a, out=c)",
    "x = np.hypot(np.negative(a, b), b, out=c)",
])
def test_scan_flags_keyword_outputs(call):
    assert keyword_outputs(call) != []
