"""Committed export digests, keyed by the float kernels numpy dispatches to.

Each digest is the sha256 of ``trajectory.csv`` followed by
``distances.csv``, the bytes of every logged number. numpy picks its
``exp``, ``power`` and ``arctan2`` kernels by CPU feature, and those
differ in the last bit on some inputs between dispatch levels, so one
numpy version on one code exports other bytes on an AVX2 host than on an
AVX-512 one. The digests below were recorded with numpy 2.4.6 on CPython
3.11 on one AVX512_SPR host, each lower level in a process started with
``NPY_DISABLE_CPU_FEATURES`` set to the levels above it
(``"AVX512_SPR"`` for AVX512_ICL, ``"AVX512_SPR AVX512_ICL"`` for
AVX512_SKX, ``"AVX512_SPR AVX512_ICL X86_V4"`` for AVX2 and
``"AVX512_SPR AVX512_ICL X86_V4 X86_V3"`` for baseline, numpy's kernels
without dispatch), which makes numpy take that level's kernels. A host
whose level has no entry fails, naming its level, its numpy version and
the digest it got; so does one whose digest differs from its level's.

Run as a script, ``python tests/digests.py reference`` prints the digest
this host's level expects, or fails naming the level.
"""

import sys

import numpy as np

from numpy._core._multiarray_umath import __cpu_features__

# the dispatch levels of numpy's float kernels, lowest first
LEVELS = ("AVX2", "AVX512_SKX", "AVX512_ICL", "AVX512_SPR")
# the group that numpy 2.4 dispatches a level's kernels by: disabling the
# group leaves the level's own flag set, so a level counts only when its
# group is enabled too, where numpy reports the group at all
GROUPS = {"AVX2": "X86_V3", "AVX512_SKX": "X86_V4"}

DIGESTS = {
    # the reference run, 11,414 steps
    "reference": {
        "AVX512_SPR":
            "590563d69e90ea1ec7f6b191aebda73618fa5e402a14cf6aeff108137664379a",
        "AVX512_ICL":
            "590563d69e90ea1ec7f6b191aebda73618fa5e402a14cf6aeff108137664379a",
        "AVX512_SKX":
            "590563d69e90ea1ec7f6b191aebda73618fa5e402a14cf6aeff108137664379a",
        "AVX2":
            "777181e35d8bbb5139f0df5793a1bdc8cfffd5bc2a3535e57616979561711f9d",
        "baseline":
            "777181e35d8bbb5139f0df5793a1bdc8cfffd5bc2a3535e57616979561711f9d",
    },
    # the 48-robot sparse scenario of test_step_cost (seed 1, 201 steps),
    # whose bytes every level shares
    "sparse48": {
        "AVX512_SPR":
            "d91efa8095c339aca32dbf9f0d756c0ee1adff4e9de0551fb5d450d9cc30bd19",
        "AVX512_ICL":
            "d91efa8095c339aca32dbf9f0d756c0ee1adff4e9de0551fb5d450d9cc30bd19",
        "AVX512_SKX":
            "d91efa8095c339aca32dbf9f0d756c0ee1adff4e9de0551fb5d450d9cc30bd19",
        "AVX2":
            "d91efa8095c339aca32dbf9f0d756c0ee1adff4e9de0551fb5d450d9cc30bd19",
        "baseline":
            "d91efa8095c339aca32dbf9f0d756c0ee1adff4e9de0551fb5d450d9cc30bd19",
    },
}


def dispatch_level() -> str:
    """The highest of ``LEVELS`` that numpy reports enabled, with its group
    of ``GROUPS`` where numpy has that key, or "baseline"."""
    enabled = [level for level in LEVELS if __cpu_features__.get(level)
               and __cpu_features__.get(GROUPS.get(level), True)]
    return enabled[-1] if enabled else "baseline"


def missing(name: str, got: str | None = None) -> str:
    """Why export ``name`` has no committed digest on this host, with the
    digest ``got`` that it exports there, when given."""
    message = (f"no committed {name} digest for dispatch level "
               f"{dispatch_level()} with numpy {np.__version__}")
    return message if got is None else f"{message}; this host exports {got}"


def expected_digest(name: str) -> str | None:
    """The committed digest of export ``name`` at this host's level."""
    return DIGESTS[name].get(dispatch_level())


if __name__ == "__main__":
    digest = expected_digest(sys.argv[1])
    if digest is None:
        sys.exit(missing(sys.argv[1]))
    print(digest)
