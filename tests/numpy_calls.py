"""Count the numpy calls that rendezsim code makes, per calling function.

Inside ``counting()`` every array is a ``Counted`` array: the numpy
functions that make arrays without dispatching on their arguments return
one, and every ufunc, dispatched function and listed method called on one
returns one. A call is counted when the first frame outside this file
belongs to rendezsim, and it is attributed to that frame's function. Each
hook strips the subclass before it hands the call on to numpy, so the calls
numpy makes internally reach no hook: the counts depend on rendezsim's code
alone, not on numpy's internals or version.

A count is one of

* a ufunc call, ``add``, or a ufunc method, ``add.reduceat``, operators
  on arrays included, and ufunc calls on scalars;
* a function numpy dispatches on its array arguments (``sinc``, ``where``,
  ``copyto``, ``concatenate``, ...) or one of ``CREATION``;
* a method of ``METHODS`` called on an array.

Indexing, slicing, attribute access and arithmetic on numpy scalars are not
counted.
"""

import os
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np

import rendezsim

PACKAGE = os.path.dirname(os.path.abspath(rendezsim.__file__)) + os.sep
HERE = os.path.abspath(__file__)

# array makers that numpy does not dispatch on their arguments
CREATION = ("array", "asarray", "empty", "zeros", "ones", "full",
            "triu_indices")
UFUNC_METHODS = ("reduce", "accumulate", "reduceat", "outer", "at")
METHODS = ("all", "any", "max", "min", "sum", "take", "fill", "copy",
           "reshape", "tolist", "nonzero", "cumsum", "item")


class CallCounts:
    """Counts of one counting window, keyed by (function, numpy call).

    ``where`` holds the calls given a ``where=`` argument; ``helpers`` the
    dispatched functions (everything counted that is neither a ufunc nor a
    method). Of the ufunc calls (not their methods), ``scalar`` holds those
    given a scalar operand, a Python or numpy number, and ``broadcast``
    those whose array operands and ``out`` arrays are not all of one shape.
    """

    TALLIES = ("calls", "where", "helpers", "scalar", "broadcast")

    def __init__(self):
        for name in self.TALLIES:
            setattr(self, name, Counter())

    def __sub__(self, other):
        diff = CallCounts()
        for name in self.TALLIES:
            setattr(diff, name, getattr(self, name) - getattr(other, name))
        return diff

    def total(self) -> int:
        return sum(self.calls.values())

    def per_function(self) -> Counter:
        out = Counter()
        for (function, _), n in self.calls.items():
            out[function] += n
        return out


_active: list[CallCounts] = []


def _caller():
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename == HERE:
        frame = frame.f_back
    if frame is None or not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    code = frame.f_code
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"


def _record(name, kwargs, helper=False, operands=None):
    """Count one call; ``operands`` holds a ufunc call's inputs."""
    if not _active:
        return
    function = _caller()
    if function is None:
        return
    counts = _active[-1]
    counts.calls[function, name] += 1
    if kwargs.get("where") is not None:
        counts.where[function, name] += 1
    if helper:
        counts.helpers[function, name] += 1
    if operands is not None:
        if any(isinstance(x, (int, float, complex, np.generic))
               for x in operands):
            counts.scalar[function, name] += 1
        out = kwargs.get("out")
        arrays = [*operands, *(out if isinstance(out, tuple) else (out,))]
        if len({x.shape for x in arrays if isinstance(x, np.ndarray)}) > 1:
            counts.broadcast[function, name] += 1


def _plain(x):
    if isinstance(x, Counted):
        return x.view(np.ndarray)
    if isinstance(x, (tuple, list)):
        return type(x)(_plain(item) for item in x)
    return x


def _counted(x):
    if type(x) is np.ndarray:
        return x.view(Counted)
    if isinstance(x, tuple):
        return tuple(_counted(item) for item in x)
    return x


def _call(fn, args, kwargs):
    out = kwargs.get("out")
    result = fn(*_plain(args), **{k: _plain(v) for k, v in kwargs.items()})
    if out is not None:
        return out[0] if isinstance(out, tuple) and len(out) == 1 else out
    return _counted(result)


class Counted(np.ndarray):
    """An ndarray whose numpy calls are counted (see the module docstring)."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__":
            _record(ufunc.__name__, kwargs, operands=inputs)
        else:
            _record(f"{ufunc.__name__}.{method}", kwargs)
        return _call(getattr(ufunc, method), inputs, kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _record(func.__name__, kwargs, helper=True)
        return _call(func, args, kwargs)


def _method(name):
    def method(self, *args, **kwargs):
        _record(f"ndarray.{name}", kwargs)
        return _call(getattr(np.ndarray, name),
                     (self.view(np.ndarray), *args), kwargs)
    method.__name__ = name
    return method


for _name in METHODS:
    setattr(Counted, _name, _method(_name))


class _CountedUfunc:
    """A ufunc that counts its calls and method calls."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        _record(self._ufunc.__name__, kwargs, operands=args)
        return _call(self._ufunc, args, kwargs)

    def __getattr__(self, name):
        attr = getattr(self._ufunc, name)
        if name not in UFUNC_METHODS:
            return attr

        def method(*args, **kwargs):
            _record(f"{self._ufunc.__name__}.{name}", kwargs)
            return _call(attr, args, kwargs)
        return method


def _maker(name, fn):
    def maker(*args, **kwargs):
        _record(name, kwargs, helper=True)
        return _counted(fn(*_plain(args), **{k: _plain(v)
                                             for k, v in kwargs.items()}))
    return maker


@contextmanager
def counting():
    """Count rendezsim's numpy calls made inside the block.

    Yields the ``CallCounts`` that the block fills. The array makers of
    ``CREATION`` and every ufunc are replaced on the numpy module for the
    duration, so a ufunc called on scalars counts too.
    """
    ufuncs = [name for name, value in vars(np).items()
              if isinstance(value, np.ufunc)]
    originals = {name: getattr(np, name) for name in (*CREATION, *ufuncs)}
    counts = CallCounts()
    for name in CREATION:
        setattr(np, name, _maker(name, originals[name]))
    for name in ufuncs:
        setattr(np, name, _CountedUfunc(originals[name]))
    _active.append(counts)
    try:
        yield counts
    finally:
        _active.pop()
        for name, fn in originals.items():
            setattr(np, name, fn)
