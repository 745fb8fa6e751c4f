"""Scenario files, trajectory/distance exports, and plot-script emission.

Scenario files are flat ``key = value`` text with one optional nested block::

    # units: meters, radians, seconds
    format_version = 1
    n_robots = 6
    ...
    [deployment]
    mode = seeded
    seed = 11
    center = -5.0 -3.0
    spread = 2.2
    min_separation = 0.6

``#`` starts a comment, blank lines are ignored, unknown keys are rejected.
An explicit deployment lists ``pose_<id> = x y theta`` lines instead of the
seed block. Exports are comma-separated text with a fixed header and fixed
9-decimal precision, plus ``# key = value`` metadata comment lines.
"""

import functools
import math
import os
import warnings
from dataclasses import MISSING, fields

import numpy as np

from .graph import has_rooted_spanning_tree
from .model import (RobotState, ScenarioConfig, ScenarioError, check_keys,
                    outside_workspace, planar_norm, validate_keys,
                    validate_poses)
from .sim import AssumptionError, TrajectoryLog
# not called here: rendezbench/tracing.py wraps this name
from .graph import build_topology  # noqa: F401

FORMAT_VERSION = 1

# a scenario file's main keys -> (type, required): format_version, then
# those read off ScenarioConfig, where a field without a default is a
# required key; np.ndarray is a 2-vector, list[float] a list of numbers
_CONFIG_KEYS = {"format_version": (int, True),
                **{f.name: (f.type, f.default is MISSING)
                   for f in fields(ScenarioConfig)
                   if f.name != "initial_states"}}

_SEEDED_KEYS = {"seed": (int, True), "center": (np.ndarray, True),
                "spread": (float, True), "min_separation": (float, True)}


class ParseError(ScenarioError):
    """Scenario text could not be parsed; message carries file and line."""


def _convert(kind, raw, lineno, path):
    try:
        # np.loadtxt reads the rows and takes no '_'; int() and float() do
        if kind is not str and "_" in raw:
            raise ValueError("'_' in a number")
        if kind is np.ndarray:
            parts = [float(x) for x in raw.split()]
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return np.array(parts)
        if kind == list[float]:
            return [float(x) for x in raw.split()]
        return kind(raw)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad value {raw!r} ({exc})") from None


def _read_sections(path):
    """Split the file into (main, deployment) key -> (value, lineno) maps."""
    main: dict = {}
    deploy: dict = {}
    section = main
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text == "[deployment]":
                section = deploy
                continue
            if text.startswith("["):
                raise ParseError(f"{path}:{lineno}: unknown section {text}")
            if "=" not in text:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key in section:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            section[key] = (raw, lineno)
    return main, deploy


def _read_keys(section, keys, path, unknown="key", missing="required key"):
    """Convert one section's values; ``keys`` maps name -> (type, required).

    Rejects a key not in ``keys`` and names a required key that is absent.
    A format_version must be FORMAT_VERSION, and is not returned.
    """
    for key, (_, lineno) in section.items():
        if key not in keys:
            raise ParseError(f"{path}:{lineno}: unknown {unknown} {key!r}")
    values = {}
    for key, (kind, required) in keys.items():
        if key in section:
            values[key] = _convert(kind, *section[key], path)
        elif required:
            raise ParseError(f"{path}: missing {missing} {key!r}")
    version = values.pop("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {version}")
    return values


# pair distances (or positions, for fewer than three robots) checked per
# block of draws: enough that numpy's per-call cost is shared by hundreds of
# small draws, few enough that a 48-robot draw is not drawn far past the
# first one that passes
_DRAW_BLOCK = 4096
# one draw's stream order: count radii fractions, count angles, count headings
_DRAW_LOW = np.array([[0.0], [-math.pi], [-math.pi]])
_DRAW_HIGH = np.array([[1.0], [math.pi], [math.pi]])


def seeded_deployment(seed: int, count: int, center: np.ndarray, spread: float,
                      min_separation: float, sensing_radius: float,
                      workspace_radius: float,
                      max_attempts: int = 1000) -> list[RobotState]:
    """Draw poses in a disk until the initial-graph assumption holds.

    Robot 1 is the informed one. Each attempt draws ``count`` positions
    uniformly in the disk and uniform headings; an attempt is accepted when
    all robots are inside the workspace, pairwise separations respect
    ``min_separation``, and the sensing graph has a spanning tree rooted at
    robot 1. The accepted attempt is a pure function of the arguments.

    Attempts are drawn and screened a block at a time, in one array pass,
    and the first in draw order that passes is returned: the same poses as
    drawing and checking one attempt after another.
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    first, second = np.triu_indices(count, k=1)
    per_block = max(1, _DRAW_BLOCK // max(first.size, count))
    for drawn in range(0, max_attempts, per_block):
        k = min(per_block, max_attempts - drawn)
        fractions, angles, headings = rng.uniform(
            _DRAW_LOW, _DRAW_HIGH, (k, 3, count)).transpose(1, 0, 2)
        radii = spread * np.sqrt(fractions)
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)],
                       axis=2)
        pts += center
        dists = planar_norm(pts.take(first, 1) - pts.take(second, 1))
        # separations first: the workspace test is needed only where they pass
        ok = np.flatnonzero(~(dists < min_separation).any(axis=1))
        ok = ok[~outside_workspace(pts[ok], workspace_radius).any(axis=1)]
        for j in ok.tolist():
            near = np.zeros((count, count), dtype=bool)
            near[first, second] = dists[j] < sensing_radius
            near |= near.T
            if has_rooted_spanning_tree(near, root=1):
                return [RobotState(i, p, h) for i, (p, h) in enumerate(
                    zip(pts[j].copy(), headings[j].tolist()), start=1)]
    raise AssumptionError(
        f"seeded deployment: no connected draw in {max_attempts} attempts")


def parse_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file, expanding its deployment block.

    Every error names the file: a ``ParseError`` with its line, any other
    ``ScenarioError`` or ``AssumptionError`` as ``<path>: <message>``.
    """
    try:
        return _parse_scenario(path)
    except ParseError:
        raise
    except (ScenarioError, AssumptionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_scenario(path: str) -> ScenarioConfig:
    main, deploy = _read_sections(path)
    # the key rules before the deployment block lists or draws n poses
    cfg = validate_keys(ScenarioConfig(**_read_keys(main, _CONFIG_KEYS, path)))

    if not deploy:
        raise ParseError(f"{path}: missing [deployment] block")
    if "mode" not in deploy:
        raise ParseError(f"{path}: missing deployment key 'mode'")
    mode = deploy["mode"][0]
    if mode == "seeded":
        keys = _SEEDED_KEYS
    elif mode == "explicit":
        keys = {f"pose_{i}": (list[float], True)
                for i in range(1, cfg.n_robots + 1)}
    else:
        raise ParseError(f"{path}: deployment mode must be "
                         f"'seeded' or 'explicit', got {mode!r}")
    placed = _read_keys(deploy, {"mode": (str, True), **keys}, path,
                        "deployment key", "deployment key")
    del placed["mode"]

    if mode == "seeded":
        check_keys(placed)
        states = seeded_deployment(
            count=cfg.n_robots, sensing_radius=cfg.sensing_radius,
            workspace_radius=cfg.workspace_radius, **placed)
    else:
        states = []
        for i, (key, pose) in enumerate(placed.items(), start=1):
            if len(pose) != 3:
                raise ParseError(
                    f"{path}:{deploy[key][1]}: pose needs 'x y theta'")
            if not all(map(math.isfinite, pose)):
                raise ScenarioError(f"{key} must be finite")
            states.append(RobotState(i, np.array(pose[:2]), pose[2]))

    cfg.initial_states = states
    return validate_poses(cfg)


TRAJECTORY_FILE = "trajectory.csv"
DISTANCES_FILE = "distances.csv"

_TRAJ_HEADER = "t,id,x,y,theta,v,omega,theta_d,theta_tilde,theta_d_dot,phi,region"
_DIST_HEADER = "t,i,j,d,monitored"
# one record per data row of each file: floats as float() reads them, ids,
# pairs, region and monitored as narrow integers
_TRAJ_ROW = np.dtype([("t", "f8"), ("id", "i4"), ("pose", "f8", 3),
                      ("control", "f8", 5), ("phi", "f8"), ("region", "i1")])
_DIST_ROW = np.dtype([("t", "f8"), ("i", "i4"), ("j", "i4"), ("d", "f8"),
                      ("monitored", "i1")])


# the header keys, in the order a run writes them: load_trajectory reads
# these, typed and checked as the scenario keys of the same names, and
# ignores any other line, such as the roles
_HEADER_KEYS = ("format_version", "n_robots", "goal_position",
                "goal_heading", "time_step", "sensing_radius")


def _meta_lines(log: TrajectoryLog) -> list[str]:
    lines = []
    for key in _HEADER_KEYS:
        # format_version is the one header key that a log does not hold
        value = getattr(log, key, FORMAT_VERSION)
        if _CONFIG_KEYS[key][0] is not int:
            value = " ".join(f"{x:.9f}" for x in np.ravel(value).tolist())
        lines.append(f"# {key} = {value}")
    roles = ["informed"] + ["follower"] * (log.n_robots - 1)  # robot 1 first
    return lines + [f"# roles = {' '.join(roles)}"]


# bytes a block of either file may take, in whole steps: a row's text, and
# 15 (a '%.9f,' field) and _WORK_BYTES a field; enough that numpy's call
# cost vanishes, few enough that buffer, work rows and text stay near 1 MB
_WRITE_BYTES = 512 * 1024


def _text(strings):
    """One NUL-padded uint8 row per string, as wide as the longest."""
    width = max([1, *map(len, strings)])
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(
        len(strings), width)


# the texts of regions 0 and 1, the only regions a log holds
_REGION_TEXT = _text(["0\n", "1\n"])


def _digits(places):
    """Every number below 10**places as ``places`` zero-padded ASCII
    digits, one uint8 row each. Column p is the ten digits, each repeated
    10**(places - 1 - p) times, tiled 10**p times: uint8 rows, which leave
    the heap as they found it, where Python strings, one a number, grew it
    by 0.06 MB (1,000 strings) to 0.74 MB (10,000) a table."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    rows = np.empty((10 ** places, places), np.uint8)
    for p in range(places):
        rows[:, p] = np.tile(np.repeat(digits, 10 ** (places - 1 - p)),
                             10 ** p)
    return rows


# '%.9f' from digit tables: the sign and the integer part in one NUL-padded
# word, then '.ddd', 'dddd' and 'dd'
_INT_LIMIT = 1000  # integer parts 0..999: '-999' fills the word


def _int_words():
    """'k', then '-k', for k = 0.._INT_LIMIT - 1, each NUL-padded to one
    u4 word: k's three digits shifted left past its leading zeros."""
    k = np.arange(_INT_LIMIT)
    zeros = 2 - (k >= 10) - (k >= 100)  # '0' keeps its last digit
    cols = np.arange(4) + zeros[:, None]
    words = np.zeros((2, _INT_LIMIT, 4), np.uint8)
    words[0] = np.where(cols < 3, np.take_along_axis(
        _digits(3), np.minimum(cols, 2), 1), 0)
    words[1, :, 0] = ord("-")
    words[1, :, 1:] = words[0, :, :3]
    return words.reshape(-1, 4).view("u4").ravel()


_INT_WORDS = _int_words()
_MILLIS = np.insert(_digits(3), 0, ord("."), 1).view("u4").ravel()
_TEN_THOUSANDS = _digits(4).view("u4").ravel()
_HUNDREDS = _digits(2).view("u2").ravel()
# each u4 word's table, the unit of its digit group and its field; the
# hundreds, a u2 word, end the field
_GROUPS = ((_INT_WORDS, 10 ** 9, "int"), (_MILLIS, 10 ** 6, "d3"),
           (_TEN_THOUSANDS, 100, "d4"))


def _field_dtype(width):
    """A ``'%.9f,'`` field of ``width`` bytes and its comma: the whole text,
    and the table words that end it."""
    return np.dtype({
        "names": ["text", "int", "d3", "d4", "d2", "sep"],
        "formats": [f"S{width}", "u4", "u4", "u4", "u2", "u1"],
        "offsets": [0, width - 14, width - 10, width - 6, width - 2, width],
        "itemsize": width + 1})


# bytes of _fixed9's work rows per value: x, y and n (8 bytes each), a
# table word (4) and two flags, carved from one allocation, which the C
# allocator maps and unmaps whole; as separate rows, their freed space
# stayed resident in its heap and raised the peak RSS
_WORK_BYTES = 30


def _fixed9(x, fields=None, work=None):
    """``'%.9f,' % v`` for every value of ``x``, as NUL-padded bytes.

    ``x`` is an array, or a tuple of ``(r, c_i)`` arrays whose columns
    stand side by side as ``r`` records of ``c = sum(c_i)`` fields. Each
    field is ``width`` bytes and a comma, ``width`` the longest entry and
    at least 14. A value that is not finite, whose integer part rounds past
    the table or whose y = |x| * 1e9 is exactly a half-integer is formatted
    with ``'%.9f'`` on its own.

    Without ``fields``, returns a ``(x.size, width + 1)`` uint8 array. With
    it, writes into ``fields(width)[:r]``, ``(r, c)`` records of
    ``_field_dtype(width)`` with their commas in place, and returns
    ``width``. The arithmetic runs in rows carved from ``work``, a uint8
    array of at least ``_WORK_BYTES`` bytes a value (by default, a fresh
    one).
    """
    parts = x if isinstance(x, tuple) else (np.reshape(x, (-1, 1)),)
    r = len(parts[0])
    c = sum(p.shape[1] for p in parts)
    size = r * c
    if work is None:
        work = np.empty(_WORK_BYTES * size, np.uint8)
    x, y, n = work[:24 * size].view(float).reshape(3, size)
    words = work[24 * size:28 * size].view(np.uint32)
    fast, flag = work[28 * size:30 * size].view(bool).reshape(2, size)
    at = 0
    for p in parts:
        np.copyto(x.reshape(r, c)[:, at:at + p.shape[1]], p)
        at += p.shape[1]
    np.abs(x, y)
    np.minimum(y, _INT_LIMIT, out=y)  # nan stays nan
    np.multiply(y, 1e9, y)
    np.rint(y, n)
    # y < 2**52, where every half-integer is a double: the rounded product
    # of a value that is no tie never crosses one, so rint(y) is the
    # rounding '%.9f' makes unless y is exactly k + 1/2
    np.subtract(y, n, y)
    np.abs(y, y)
    np.not_equal(y, 0.5, fast)
    # nan passes the test above; the limit sends nan and +-inf to '%.9f'
    np.less(n, _INT_LIMIT * 1e9, flag)
    np.logical_and(fast, flag, fast)
    texts = []
    if not fast.all():
        slow = np.flatnonzero(np.logical_not(fast, fast))
        texts = ["%.9f" % v for v in x[slow].tolist()]
        n[slow] = 0.0
    # a negative value's words are the table's second half: its sign adds
    # 10**12 to n, exactly, as n < 10**12
    np.copysign(5e11, x, y)
    np.subtract(5e11, y, y)
    np.add(n, y, n)

    width = max([14, *map(len, texts)])
    out = None
    if fields is None:
        out = np.zeros((size, width + 1), np.uint8)
        out[:, width] = ord(",")
        dest = out.view(_field_dtype(width)).reshape(r, c)
    else:
        dest = fields(width)[:r]
        if width > 14:  # clear an earlier block's text left of the digits
            dest["text"] = b""
    # x and y are spent: their bytes hold n, then what is left of it after
    # each digit group, and the group
    rest, group = x.view(np.int64), y.view(np.int64)
    np.copyto(rest, n, "unsafe")
    for table, scale, name in _GROUPS:
        np.floor_divide(rest, scale, group)
        table.take(group, None, words, "clip")
        dest[name] = words.reshape(r, c)
        np.multiply(group, scale, group)
        np.subtract(rest, group, rest)
    hundreds = words.view(np.uint16)[:size]
    _HUNDREDS.take(rest, None, hundreds, "clip")
    dest["d2"] = hundreds.reshape(r, c)
    if texts:
        dest["text"][slow // c, slow % c] = texts
    return width if out is None else out


# steps whose texts _write_steps formats in one call, and the most a block
# holds: a call costs some 40 numpy calls, and 2,048 stamps with their work
# rows about 100 KB
_STEP_TEXT_STEPS = 2048


def _write_steps(path, head, shape, before, blocks, after):
    """Write ``head``, then one row per (step, slot) of ``shape``, (steps,
    slots, c).

    A row is the text of ``before``, c ``'%.9f,'`` fields and the text of
    ``after``. Text is NUL-padded uint8: one row per slot, ``(slots, w)``,
    or a function that formats the steps k0 to k0 + k, ``(k0, k) -> (k, 1,
    w)``, called for a group of whole blocks, up to ``_STEP_TEXT_STEPS``
    steps, at a time; the first ``_STEP_TEXT_STEPS`` steps' widths size the
    blocks. ``blocks(m)`` yields the fields' float columns m steps at a
    time, as (k0, tuple of ``(k, slots, c_i)`` arrays) pairs.

    The rows pass through one buffer that holds a block of whole steps:
    each slot's text is laid into it once, each step's once per block, and
    ``_fixed9`` writes the block's fields into it in place. A block whose
    fields or step texts take other widths gets its own buffer, laid out
    the same way. Each block is written once, NUL bytes removed, so the
    rows a last, shorter block lacks are cleared, not cut off by a copy.
    """
    steps, slots, c = shape
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        if not slots:
            return
        row_texts = [*before, None, *after]  # None: the fields

        def step_texts(k0, k):
            """The row's texts, each step's for steps k0 to k0 + k, and
            their widths."""
            texts = [t(k0, k) if callable(t) else t for t in row_texts]
            return texts, tuple(t.shape[-1] for t in texts if t is not None)

        first = min(steps, _STEP_TEXT_STEPS)
        grouped, widths = step_texts(0, first)
        per_block = min(first, max(1, _WRITE_BYTES // (
            slots * (sum(widths) + c * (15 + _WORK_BYTES)))))
        group = _STEP_TEXT_STEPS - _STEP_TEXT_STEPS % per_block
        work = np.empty(_WORK_BYTES * per_block * slots * c, np.uint8)
        # (field width, text widths) -> (buffer, its rows, fields, and each
        # step text's cells and place in the row)
        buffers = {}

        def buffer(width):  # laid out for the texts of the current group
            key = width, widths
            if key not in buffers:
                row = c * (width + 1) + sum(widths)
                buf = bytearray(per_block * slots * row)
                cells = np.frombuffer(buf, np.uint8).reshape(
                    per_block, slots, row)
                per_step = []
                at = 0
                for i, t in enumerate(grouped):
                    if t is None:
                        fields = np.ndarray(
                            (per_block * slots, c), _field_dtype(width),
                            buffer=buf, offset=at, strides=(row, width + 1))
                        fields["sep"] = ord(",")
                        at += c * (width + 1)
                        continue
                    cell = cells[:, :, at:at + t.shape[-1]]
                    at += t.shape[-1]
                    if t.ndim == 2:
                        cell[...] = t
                    else:
                        per_step.append((cell, i))
                buffers[key] = buf, cells, fields, per_step
            return buffers[key]

        for k0, columns in blocks(per_block):
            k = len(columns[0])
            at = k0 % group
            if k0 and not at:  # the step texts of the next group of blocks
                grouped, widths = step_texts(k0, min(group, steps - k0))
            width = _fixed9(tuple(np.reshape(col, (k * slots, -1))
                                  for col in columns),
                            lambda w: buffer(w)[2], work)
            buf, cells, _, per_step = buffer(width)
            for cell, i in per_step:
                cell[:k] = grouped[i][at:at + k]
            cells[k:] = 0  # the last block clears the steps it lacks
            fh.write(buf.translate(None, b"\0"))


def export_trajectory(log: TrajectoryLog, out_dir: str) -> tuple[str, str]:
    """Write trajectory and pair-distance files; returns their paths.

    One trajectory row per (step, robot) and one distance row per
    (step, pair). All numbers use fixed 9-decimal precision so repeated runs
    diff cleanly; the bytes are those of ``'%.9f'``. Ids, pairs,
    ``monitored`` and region are template text; each time and region is
    formatted once per step, a group of write blocks at a time, and the
    distances are read a block at a time (``TrajectoryLog.distance_blocks``),
    so that what the export holds does not grow with the run.
    """
    if log.n_steps == 0:
        raise ValueError("cannot export an empty log")
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, TRAJECTORY_FILE)
    dist_path = os.path.join(out_dir, DISTANCES_FILE)
    meta = "\n".join(_meta_lines(log)) + "\n"
    steps, n = log.n_steps, log.n_robots

    @functools.lru_cache(maxsize=1)  # both files start with one group
    def stamps(k0, k):
        return _fixed9(log.times[k0:k0 + k])[:, None]

    def region(k0, k):
        return _REGION_TEXT[log.region[k0:k0 + k]][:, None]

    def trajectory_blocks(m):
        for k0 in range(0, steps, m):
            yield k0, (log.poses[k0:k0 + m], log.controls[k0:k0 + m],
                       log.phi[k0:k0 + m, :, None])

    ids = _text([f"{i}," for i in range(1, n + 1)])
    _write_steps(traj_path, meta + _TRAJ_HEADER + "\n", (steps, n, 9),
                 [stamps, ids], trajectory_blocks, [region])

    pairs = _text([f"{i},{j}," for i in range(1, n)
                   for j in range(i + 1, n + 1)])
    _write_steps(dist_path, meta + _DIST_HEADER + "\n",
                 (steps, len(pairs), 1), [stamps, pairs],
                 lambda m: ((k0, (d[:, :, None],))
                            for k0, d in log.distance_blocks(m)),
                 [_text([f"{int(m)}\n" for m in log.monitored.tolist()])])
    return traj_path, dist_path


def _read_head(path, header) -> dict:
    """The ``# key = value`` lines that open an exported file, as key ->
    (value, lineno), the pairs ``_read_sections`` makes.

    A repeated key, or a line below them other than the column names
    ``header``, is a ValueError naming the file: the data rows start one
    line per key below the top, in the columns of ``header``.
    """
    meta = {}
    columns = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                columns = line.rstrip("\r\n")
                break
            key, _, raw = line[1:].partition("=")
            key = key.strip()
            if key in meta:
                raise ValueError(f"{path}: repeated metadata key '{key}'")
            meta[key] = raw.strip(), lineno
    if columns != header:
        raise ValueError(f"{path}: column names {columns!r}, expected "
                         f"{header!r}")
    return meta


def _read_table(path, meta, row, per_step, unit, steps=None):
    """The rows below a file's metadata ``meta`` and column names, as
    ``(steps, per_step)`` records of ``row``.

    ``steps`` defaults to as many as the rows begin. A ValueError names the
    file when it has no data row, a field does not parse as its column's
    type (an integer column takes no ``1.0``), a row has another column
    count (loadtxt counts them), or the file has another row count.
    """
    with warnings.catch_warnings():
        # an older numpy parses an integer field such as 1.0 through a
        # float, with this warning; as an error, loadtxt rejects the field
        warnings.filterwarnings("error", ".*integer via a float",
                                DeprecationWarning)
        # an empty table is reported below, with the file's name
        warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
        try:
            data = np.loadtxt(path, dtype=row, delimiter=",", comments="#",
                              skiprows=len(meta) + 1, ndmin=1)
        except ValueError as exc:  # a malformed row: name the file
            raise ValueError(f"{path}: {exc}") from None
    if not len(data):
        raise ValueError(f"{path}: no data rows")
    if steps is None:
        steps = -(-len(data) // per_step)
    if len(data) != steps * per_step:
        raise ValueError(f"{path}: {len(data)} data rows, expected "
                         f"{steps * per_step} ({steps} steps x {per_step} "
                         f"{unit})")
    return data.reshape(steps, per_step)


def _check_steps(path, bad, what):
    """A ValueError naming the file and the first step where the
    ``(steps, k)`` mask ``bad`` holds, followed by ``what``."""
    if bad.any():
        step = int(bad.any(axis=1).argmax())
        raise ValueError(f"{path}: step {step} {what}")


def load_trajectory(log_dir: str) -> TrajectoryLog:
    """Rebuild a TrajectoryLog from exported files (events are not exported).

    Each step must repeat the first one's layout: ids 1..n with one ``t``
    and one region in ``trajectory.csv``, and the pairs (1, 2), (1, 3), ...,
    (n - 1, n) in order with step 0's ``monitored`` flags at that step's
    ``t`` in ``distances.csv``. Regions and flags are 0 or 1, and the
    region, once 1, stays 1. Step k's ``t`` is k * time_step, as a run
    writes it, to within (k + 1) 1e-9: the 9-decimal rounding of t and,
    k times over, of time_step. A ValueError names the file and the first
    step that breaks a rule.
    """
    traj_path = os.path.join(log_dir, TRAJECTORY_FILE)
    dist_path = os.path.join(log_dir, DISTANCES_FILE)
    meta = _read_head(traj_path, _TRAJ_HEADER)
    values = _read_keys({k: meta[k] for k in _HEADER_KEYS if k in meta},
                        {k: _CONFIG_KEYS[k] for k in _HEADER_KEYS},
                        traj_path, missing="metadata key")
    try:
        check_keys(values)
    except ScenarioError as exc:
        raise ScenarioError(f"{traj_path}: {exc}") from None
    n = values["n_robots"]

    traj = _read_table(traj_path, meta, _TRAJ_ROW, n, "robots")
    times = traj["t"][:, 0]
    region = traj["region"][:, 0]
    _check_steps(traj_path, traj["id"] != np.arange(1, n + 1, dtype=np.int32),
                 f"does not list ids 1..{n} in order")
    _check_steps(traj_path, traj["t"] != times[:, None], "has more than one t")
    _check_steps(traj_path, traj["region"] != region[:, None],
                 "has more than one region")
    _check_steps(traj_path, ((region != 0) & (region != 1))[:, None],
                 "has a region other than 0 or 1")
    # the switch is latched: once 1, the region stays 1
    _check_steps(traj_path, (np.maximum.accumulate(region) != region)[:, None],
                 "returns to region 0 after the switch")
    steps = np.arange(len(times))
    _check_steps(traj_path, (np.abs(times - steps * values["time_step"])
                             > (steps + 1) * 1e-9)[:, None],
                 "has a t other than step x time_step")

    n_pairs = n * (n - 1) // 2
    if n_pairs:
        dmeta = _read_head(dist_path, _DIST_HEADER)
        dist = _read_table(dist_path, dmeta, _DIST_ROW, n_pairs, "pairs",
                           len(times))
        for key in _HEADER_KEYS:
            theirs, ours = dmeta.get(key, (None,))[0], meta[key][0]
            if theirs != ours:
                raise ValueError(f"{dist_path}: metadata '{key}' is "
                                 f"{theirs!r}, {TRAJECTORY_FILE} has {ours!r}")
        upper = np.triu_indices(n, 1)
        _check_steps(dist_path, (dist["i"] != upper[0] + 1)
                     | (dist["j"] != upper[1] + 1),
                     f"does not list the pairs i < j of ids 1..{n} in order")
        first = dist[0]
        flag = first["monitored"]
        _check_steps(dist_path, ((flag != 0) & (flag != 1))[None],
                     "has a monitored flag other than 0 or 1")
        _check_steps(dist_path, dist["monitored"] != flag,
                     "lists other monitored flags than step 0")
        _check_steps(dist_path, dist["t"] != times[:, None],
                     f"has another t than {TRAJECTORY_FILE}")
        distances = dist["d"]
        monitored = flag.astype(bool)
    else:
        distances = np.zeros((len(times), 0))
        monitored = np.zeros(0, dtype=bool)

    switch = np.flatnonzero(region == 1)
    switch_step = int(switch[0]) if switch.size else None
    log = TrajectoryLog(
        times=times, poses=traj["pose"], controls=traj["control"],
        phi=traj["phi"], monitored=monitored, events=[],
        switch_step=switch_step, goal_position=values["goal_position"],
        goal_heading=values["goal_heading"], time_step=values["time_step"],
        sensing_radius=values["sensing_radius"])
    # the file's distances, closer to the run's than those of its
    # 9-decimal poses
    log.distances = distances
    return log


_PLOT_SCRIPT = '''\
"""Plots for one exported run: trajectories, distances, heading decay.

Run from the directory holding {traj} and {dist}; writes PNGs next to them.
"""
import numpy as np
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

TRAJ = {traj!r}
DIST = {dist!r}

# both files open with the same `# key = value` header, then column names
with open(TRAJ, encoding="utf-8") as fh:
    head = [line[1:].split("=") for line in fh if line.startswith("#")]
meta = {{key.strip(): value.strip() for key, value in head}}

rows = np.loadtxt(TRAJ, delimiter=",", skiprows=len(head) + 1, ndmin=2)
n = int(rows[:, 1].max())
rows = rows.reshape(-1, n, 12)
t = rows[:, 0, 0]

fig, ax = plt.subplots(figsize=(7, 7))
for i in range(n):
    x, y, th = rows[:, i, 2], rows[:, i, 3], rows[:, i, 4]
    style = "-" if i == 0 else "-."
    label = "informed" if i == 0 else f"follower {{i + 1}}"
    ax.plot(x, y, style, label=label)
    for k in (0, len(t) - 1):
        ax.annotate("", xy=(x[k] + 0.4 * np.cos(th[k]), y[k] + 0.4 * np.sin(th[k])),
                    xytext=(x[k], y[k]), arrowprops=dict(arrowstyle="->"))
ax.plot(*map(float, meta["goal_position"].split()), "k*", markersize=12)
ax.set_xlabel("x [m]"); ax.set_ylabel("y [m]")
ax.set_title("Robot trajectories (arrows: start/end headings)")
ax.axis("equal"); ax.legend(fontsize=8)
fig.savefig("trajectory.png", dpi=150)
written = ["trajectory.png"]

if n > 1:  # a lone robot has no pairs and {dist} has no rows
    drows = np.loadtxt(DIST, delimiter=",", skiprows=len(head) + 1, ndmin=2)
    p = len(drows) // len(t)
    drows = drows.reshape(-1, p, 5)
    fig, ax = plt.subplots(figsize=(8, 5))
    for c in range(p):
        i, j = int(drows[0, c, 1]), int(drows[0, c, 2])
        ax.plot(t, drows[:, c, 3], label=f"d({{i}},{{j}})",
                lw=1.5 if drows[0, c, 4] else 0.7)
    ax.axhline(float(meta["sensing_radius"]), color="k", ls="--")
    ax.set_xlabel("t [s]"); ax.set_ylabel("inter-robot distance [m]")
    ax.set_title("Evolution of inter-robot distances")
    ax.legend(fontsize=7, ncol=3)
    fig.savefig("distances.png", dpi=150)
    written.append("distances.png")

fig, ax = plt.subplots(figsize=(8, 5))
for i in range(n):
    ax.semilogy(t, np.maximum(np.abs(rows[:, i, 8]), 1e-16),
                label=f"robot {{i + 1}}")
ax.set_xlabel("t [s]"); ax.set_ylabel("|heading error| [rad]")
ax.set_title("Heading tracking error")
ax.legend(fontsize=8)
fig.savefig("heading_decay.png", dpi=150)
written.append("heading_decay.png")
print("wrote " + ", ".join(written))
'''


def emit_plot_script(log_dir: str, out_dir: str | None = None) -> str:
    """Write a self-contained plotting script next to the exported files."""
    traj_path = os.path.join(log_dir, TRAJECTORY_FILE)
    dist_path = os.path.join(log_dir, DISTANCES_FILE)
    for p in (traj_path, dist_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing exported file {p}")
    target_dir = out_dir if out_dir is not None else log_dir
    os.makedirs(target_dir, exist_ok=True)
    rel = os.path.relpath(log_dir, target_dir)
    traj_rel = os.path.normpath(os.path.join(rel, TRAJECTORY_FILE))
    dist_rel = os.path.normpath(os.path.join(rel, DISTANCES_FILE))
    script = _PLOT_SCRIPT.format(traj=traj_rel, dist=dist_rel)
    out_path = os.path.join(target_dir, "plots.py")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(script)
    return out_path
