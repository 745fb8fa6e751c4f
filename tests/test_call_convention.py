"""The step's call convention: every ufunc call and every ``take``
passes its output positionally.

numpy parses a keyword argument on every call, and a step makes about a
hundred ufunc calls, so ``np.add(a, b, c)`` in place of
``np.add(a, b, out=c)`` is part of the step's cost; a ``take`` given
``out=`` and ``mode=`` by keyword costs about twice one given them by
position, ``a.take(i, None, o, "clip")``. The scan reads the source of the
modules a step runs through and flags each ``np.<ufunc>`` call whose only
keyword is ``out=``, and each ``.take(...)`` call given ``out=`` or
``mode=`` by keyword. ``np.maximum`` and ``np.minimum`` are exempt: numpy
deprecates their positional output. A ufunc call with another keyword
(``where=``, ``dtype=``) is not flagged.

A stage's bound calls (``gradients.bind``) are entries of a list, not calls
in the source, so a second check reads them off a built kernel: every ufunc
entry passes its output positionally, a ufunc method (``reduceat``) its
axis, dtype and output, and a ``take`` its axis, output and mode; and no
entry carries a keyword but the masked power's ``where=``, which only a
field exponent under 1 binds.
"""

import ast
import os
from functools import partial

import numpy as np
import pytest

from rendezsim import sim
from conftest import bound_calls
from numpy_calls import PACKAGE
from test_step_cost import SCENARIOS

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


def keyword_takes(source: str) -> list[int]:
    """Lines of the ``.take(...)`` calls in ``source`` that give ``out=``
    or ``mode=`` by keyword."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "take"
        and {k.arg for k in node.keywords} & {"out", "mode"})


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


@pytest.mark.parametrize("module", STEP_MODULES)
def test_step_modules_pass_take_outputs_positionally(module):
    assert keyword_takes(_source(module)) == []


def test_scan_catches_a_planted_keyword_take():
    source = _source("sim")
    planted = source + '\nw.poses.take(w.ends_at, out=w.pairs, mode="clip")\n'
    line = planted.count("\n")
    assert keyword_takes(planted) == keyword_takes(source) + [line]


@pytest.mark.parametrize("call", [
    'a.take(i, None, o, "clip")',
    "pts.take(first, 1)",
    "np.take(a, i, axis=0)",
])
def test_take_scan_passes_positional_takes(call):
    assert keyword_takes(call) == []


@pytest.mark.parametrize("call", [
    'a.take(i, out=o, mode="clip")',
    "a.take(i, None, out=o)",
    'x = w.pairs.take(i, None, o, mode="clip")',
    "np.take(a, i, out=o)",
])
def test_take_scan_flags_keyword_takes(call):
    assert keyword_takes(call) != []


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


def entry_faults(calls, alpha):
    """(callable's name, fault) of each bound (callable, args) pair in
    ``calls`` that breaks the convention, for a field exponent ``alpha``."""
    faults = []
    for call, args in calls:
        keywords = getattr(call, "keywords", {})
        func = getattr(call, "func", call)
        name = getattr(func, "__name__", repr(func))
        if isinstance(func, np.ufunc):
            positional = func.nin + func.nout
        elif isinstance(getattr(func, "__self__", None), np.ufunc):
            positional = 5  # array, indices, axis, dtype, out
        elif name == "take":
            positional = 4  # indices, axis, out, mode
        else:
            faults.append((name, "not a ufunc, ufunc method or take"))
            continue
        if len(args) != positional:
            faults.append((name, "output not positional"))
        if keywords and not (set(keywords) == {"where"}
                             and func is np.power and alpha < 1.0):
            faults.append((name, f"keywords {sorted(keywords)}"))
    return faults


def _kernel(name):
    cfg = SCENARIOS[name][0]()
    return cfg, sim.StepKernel(cfg, sim.initial_topology(cfg).adjacency)


@pytest.mark.parametrize("name", ["reference", "sparse48", "alpha_half"])
def test_bound_calls_pass_outputs_positionally(name):
    cfg, kernel = _kernel(name)
    calls = [(call, args) for _, call, args in bound_calls(kernel)]
    assert entry_faults(calls, cfg.field_exponent) == []
    # the masked power is the one where= entry, and only under 1
    masked = [call for call, _ in calls if getattr(call, "keywords", {})]
    assert len(masked) == (cfg.field_exponent < 1.0)


def test_bound_call_check_catches_planted_entries():
    cfg, kernel = _kernel("reference")
    calls = [(call, args) for _, call, args in bound_calls(kernel)]
    a, b, out = np.ones(3), np.ones(3), np.empty(3)
    mask = np.ones(3, dtype=bool)
    planted = [
        (partial(np.add, out=out), (a, b)),
        (np.add, (a, b)),
        (partial(np.multiply, where=mask), (a, b, out)),
        (partial(a.take, out=out, mode="clip"), (np.arange(3),)),
        (a.take, (np.arange(3), None, out)),
        (np.add.reduceat, (a, np.arange(1))),
        (np.copyto, (out, a)),
    ]
    positional = "output not positional"
    assert entry_faults(calls + planted, 1.2) == [
        ("add", positional), ("add", "keywords ['out']"), ("add", positional),
        ("multiply", "keywords ['where']"), ("take", positional),
        ("take", "keywords ['mode', 'out']"), ("take", positional),
        ("reduceat", positional),
        ("copyto", "not a ufunc, ufunc method or take")]
    # the masked power is a fault for a field exponent of 1 or more
    power = (partial(np.power, where=mask), (a, b, out))
    assert entry_faults([power], 0.5) == []
    assert entry_faults([power], 1.0) == [("power", "keywords ['where']")]
