"""Per-layer tracing of rendezsim from outside the package.

The tracer replaces library functions with wrappers under the names they are
looked up by (``sim`` imports ``compute_control`` by name, so the wrapper goes
on ``rendezsim.sim.compute_control``) and puts the originals back afterwards.

* Span wrappers record (name, start, end, parent) in memory. A span's self
  time is its duration minus the durations of its child spans.
* Count wrappers only count calls. They go on the leaf functions that run
  hundreds of thousands of times per run (the sigmoids, ``normalize_angle``,
  robot-state construction), where a timer would cost more than the call.
* The ``navfunc_*`` wrappers count calls and add their duration to a bare
  accumulator, without recording a span each.

Every layer runs on one thread with no queue in front of it, so no work ever
waits for a layer; the tracer records no waiting time.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

# (module, attribute, span name)
SPANS = (
    ("scenario_io", "parse_scenario", "scenario_io.parse_scenario"),
    ("scenario_io", "seeded_deployment", "scenario_io.seeded_deployment"),
    ("scenario_io", "build_topology", "graph.build_topology"),
    ("scenario_io", "export_trajectory", "scenario_io.export_trajectory"),
    ("scenario_io", "load_trajectory", "scenario_io.load_trajectory"),
    ("sim", "run", "sim.run"),
    ("sim", "build_topology", "graph.build_topology"),
    ("sim", "step", "sim.step"),
    ("sim", "monitor_invariants", "sim.monitor_invariants"),
    ("sim", "region_of", "fields.region_of"),
    ("sim", "_integrate_all", "sim.integrate"),
    ("sim", "compute_control", "control.compute_control"),
    ("sim", "compute_metrics", "sim.compute_metrics"),
    ("control", "follower_field_eval", "gradients.field_eval"),
    ("control", "leader_field_eval", "gradients.field_eval"),
    ("gradients", "fd_hessian", "gradients.fd_hessian"),
    ("gradients", "grad_navfunc_follower", "gradients.grad_navfunc_follower"),
)

COUNTS = (
    ("fields", "sigmoid_connectivity", "fields.sigmoid"),
    ("fields", "sigmoid_collision", "fields.sigmoid"),
    ("gradients", "sigmoid_connectivity", "fields.sigmoid"),
    ("gradients", "sigmoid_collision", "fields.sigmoid"),
    ("model", "normalize_angle", "model.normalize_angle"),
    ("sim", "normalize_angle", "model.normalize_angle"),
    ("control", "normalize_angle", "model.normalize_angle"),
    ("RobotState", "__post_init__", "model.RobotState"),
)

TIMED_COUNTS = (
    ("fields", "navfunc_follower", "fields.navfunc"),
    ("fields", "navfunc_leader", "fields.navfunc"),
    ("gradients", "navfunc_follower", "fields.navfunc"),
    ("gradients", "navfunc_leader", "fields.navfunc"),
)


class Tracer:
    """Spans, counts and bare timers for one traced process."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.phase_counts = defaultdict(Counter)
        self.phase_seconds = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_count(self, name, fn):
        counts, seconds = self.counts, self.seconds

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += _perf() - start
        return wrapper

    @contextmanager
    def phase(self, name):
        """A top-level span around one benchmark phase (setup, run, ...).

        Calls counted inside it are added to ``phase_counts[name]``.
        """
        before, before_s = Counter(self.counts), dict(self.seconds)
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            self._stack.pop()
            self.spans[idx] = (name, start, end, -1)
            self.phase_counts[name].update(self.counts - before)
            for key, value in self.seconds.items():
                self.phase_seconds[name][key] += value - before_s.get(key, 0.0)

    def install(self, owners: dict) -> None:
        """Wrap every listed function; ``owners`` maps short names to objects."""
        for table, make in ((SPANS, self._span), (COUNTS, self._count),
                            (TIMED_COUNTS, self._timed_count)):
            for owner_name, attr, name in table:
                owner = owners[owner_name]
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """(phase, name) -> {calls, total_s, self_s, parents: Counter}.

        The phase is the name of a span's outermost ancestor.
        """
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        out = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[idx] = root[parent]
            else:
                root[idx] = idx
        for idx, (name, start, end, parent) in enumerate(self.spans):
            key = (self.spans[root[idx]][0], name)
            row = out.setdefault(key, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "parents": Counter()})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
            row["parents"][self.spans[parent][0] if parent >= 0 else ""] += 1
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
