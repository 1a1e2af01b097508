"""In-memory span tracing of pcac from the outside.

Public functions are wrapped at the names their callers look up (for
example ``pcac.controller.rls_update``, which ``pcac_step`` calls), so no
source file changes.  Each call records a span: name, start, end and the
span open when it began (its parent).  ``Patches`` puts every original
back, last in first out.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name).  "Class.method" patches the class.
SPANS = (
    ("pcac.harness", "run_experiment", "harness.run_experiment"),
    ("pcac.harness", "experiment_metrics", "harness.metrics"),
    ("pcac.harness", "write_record", "harness.write_record"),
    ("pcac.harness", "plant_zoh_step", "plant.step"),
    ("pcac.harness", "plant_output", "plant.output"),
    ("pcac.harness", "pcac_step", "controller.step"),
    ("pcac.controller", "build_regressor", "arx.regressor"),
    ("pcac.controller", "rls_update", "rls.update"),
    ("pcac.rls", "forgetting_statistic_scalar", "rls.ftest"),
    ("pcac.controller", "assemble_bocf", "arx.bocf"),
    ("pcac.controller", "compute_bocf_state", "arx.state"),
    ("pcac.arx", "IoHistory.push", "arx.history_push"),
    ("pcac.controller", "riccati_backward", "riccati.sweep"),
    ("pcac.controller", "control_gain", "riccati.gain"),
    ("pcac.controller", "saturate", "riccati.saturate"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)


def resolve(module: str, attr: str):
    """(owner, attribute name) for a dotted target."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Attribute replacements that can be undone, last in first out."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make):
        """Set ``owner.attr`` to ``make(original)``."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Span and counter recorder; spans stay in flat arrays until the end."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def span(self, name: str, original):
        """Wrap ``original`` so each call records a span named ``name``."""
        nid = SPAN_NAMES.index(name)
        name_id, parent, start, end, opened = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(opened[-1])
            end.append(0)
            opened.append(idx)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every target in SPANS, plus a counter of forgetting steps."""
        for module, attr, name in SPANS:
            owner, attr = resolve(module, attr)
            patches.replace(owner, attr, lambda f, n=name: self.span(n, f))
        owner, attr = resolve("pcac.rls", "compute_beta")

        def counting(compute_beta):
            @functools.wraps(compute_beta)
            def wrapper(*args, **kwargs):
                beta = compute_beta(*args, **kwargs)
                if beta > 1.0:
                    self.count("rls.forgetting_steps")
                return beta

            return wrapper

        patches.replace(owner, attr, counting)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def summarize(tracer: Tracer, rep_bounds: list[tuple[int, int]]) -> dict:
    """Per-span statistics over the traced repetitions.

    ``rep_bounds`` lists the [first, last) span index of each repetition.
    Returns {span: {"calls", "self_ms", "p50_us", "p99_us"}} where calls and
    self time are per repetition (median over repetitions) and the
    percentiles are of the inclusive call duration pooled over all of them.
    A span's self time is its duration minus that of its direct children.
    """
    a = tracer.arrays()
    dur = (a["end_ns"] - a["start_ns"]).astype(float)
    has_parent = a["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_ns = dur - child
    name_id = a["name_id"]
    out = {}
    for nid, name in enumerate(SPAN_NAMES):
        calls, self_ms = [], []
        durations = []
        for lo, hi in rep_bounds:
            sel = name_id[lo:hi] == nid
            calls.append(int(np.count_nonzero(sel)))
            self_ms.append(float(np.sum(self_ns[lo:hi][sel])) / 1e6)
            durations.append(dur[lo:hi][sel])
        d = np.concatenate(durations)
        out[name] = {
            "calls": float(np.median(calls)),
            "self_ms": float(np.median(self_ms)),
            "p50_us": float(np.percentile(d, 50)) / 1e3 if d.size else 0.0,
            "p99_us": float(np.percentile(d, 99)) / 1e3 if d.size else 0.0,
        }
    return out
