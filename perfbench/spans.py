"""In-memory span recorder that times the package from outside.

`install` replaces the public entry points of each module (`metric`,
`landmark`, `sweep`, `evaluation`, `generate`, `cli`) with thin wrappers,
wherever a module of the package holds a reference to them, including the
names `cli` and `sweep` import from their siblings.  Entry points that a
version of the package does not have are skipped, so removing one from the
package never breaks the benchmark.  No file of the package changes.

A span is (name, start_ns, end_ns, parent index, op id, counts).  Spans stay
in memory; the caller writes them out once the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

PACKAGE = "landmark_minsum"


def _pairs(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    ids = args[1] if len(args) > 1 else kwargs["landmark_ids"]
    return {"pairs": len(ids) * int(source.n)}


def _remainder_points(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    return {"points": len(c.unassigned)}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _candidates(args, kwargs, result):
    values = getattr(result, "values", result)
    return {"candidates": len(values), "bytes": int(values.nbytes)}


def _runs(args, kwargs, result):
    return {"runs": int(result.runs_executed)}


def partitions_upto(n: int, k: int) -> int:
    """Number of partitions of n points into at most k blocks."""
    return sum(
        sum((-1) ** (j - i) * math.comb(j, i) * i ** n for i in range(j + 1))
        // math.factorial(j)
        for j in range(1, min(n, k) + 1)
    )


def _partitions(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    k = args[2] if len(args) > 2 else kwargs["k"]
    return {"partitions": partitions_upto(int(m.n), int(k))}


# (module, attribute path, span name, counts taken from args and result)
ENTRY_POINTS = (
    ("metric", "DistanceSource.query_one_vs_all", "metric.query", None),
    ("metric", "MetricMatrix.to_csv", "metric.csv_write", _csv_bytes),
    ("metric", "MetricMatrix.from_csv", "metric.csv_read", None),
    ("metric", "check_metric", "metric.check_metric", None),
    ("landmark", "sample_landmarks", "landmark.sample", None),
    ("landmark", "build_landmark_table", "landmark.table", _pairs),
    ("landmark", "cluster_min_sum", "landmark.cluster", None),
    ("landmark", "assign_remainder", "landmark.remainder", _remainder_points),
    ("sweep", "enumerate_thresholds", "sweep.enumerate", _candidates),
    ("sweep", "sweep", "sweep", _runs),
    ("evaluation", "min_sum", "evaluation.objectives", None),
    ("evaluation", "balanced_k_median", "evaluation.objectives", None),
    ("evaluation", "clustering_distance", "evaluation.distance", None),
    ("evaluation", "classify_points", "evaluation.classify", None),
    ("evaluation", "verify_structure", "evaluation.classify", None),
    ("evaluation", "verify_stability", "evaluation.stability", _partitions),
    ("generate", "generate", "generate.instance", None),
    ("generate", "generate_adversarial", "generate.instance", None),
    ("generate", "save_bundle", "generate.bundle", None),
    ("generate", "load_bundle", "generate.load", None),
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_cluster", "cli.cluster", None),
    ("cli", "cmd_sweep", "cli.sweep", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
    ("cli", "cmd_verify", "cli.verify", None),
)


class Recorder:
    """Spans of one process, kept in memory until the run ends.

    Only calls made while `op` is set are recorded.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    def begin(self, name: str, parent: int | None = None) -> int:
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if counts:
            span[5] = counts
        self._open.pop()

    def add(self, spans: list, parent: int) -> None:
        """Adopt spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, sub_parent, _op, counts in spans:
            where = parent if sub_parent is None else base + sub_parent
            self.spans.append([name, start, end, where, self.op, counts])

    def wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:  # outside an op: the benchmark's own checks
                return fn(*args, **kwargs)
            index = self.begin(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                self.end(index, counts)

        return traced


def install(recorder: Recorder) -> list:
    """Wrap every entry point that exists; return what `uninstall` restores."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    undo = []
    for module_name, path, name, count in ENTRY_POINTS:
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        *outer, leaf = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            continue
        raw = vars(owner)[leaf]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                replacement = classmethod(recorder.wrap(raw.__func__, name, count))
            else:
                replacement = recorder.wrap(raw, name, count)
            undo.append((owner, leaf, raw))
            setattr(owner, leaf, replacement)
            continue
        replacement = recorder.wrap(raw, name, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is raw:
                    undo.append((module, attr, raw))
                    setattr(module, attr, replacement)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
