"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` wraps each named public function of `atombell` in every
module that binds it (the package namespace and each submodule that imported
it), so nested calls such as gamma -> joint_q -> coherent_state ->
rotation_operator are all seen.  The program itself is not edited; `remove`
puts the original functions back.

Every op gets a root span.  A span's self time is its duration minus the
durations of its direct child spans, so within one op the self times of all
spans, the root included, add up exactly to the root's duration.  Spans are
kept in a flat integer array while the run lasts and handed out at the end.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter_ns

import numpy as np

ROOT = "op"

# one record per span: name index, op index, nesting depth (the op's root is
# 0, so a span's parent is the enclosing span one level up), start ns, end ns,
# self ns
_FIELDS = ("name", "op", "depth", "start_ns", "end_ns", "self_ns")


class Tracer:
    def __init__(self, targets):
        """targets: (label, module, attribute) triples naming the functions to wrap."""
        self.targets = list(targets)
        self.names = [ROOT] + [label for label, _, _ in self.targets]
        self.records = array("q")
        self.op = -1  # index of the op being traced; -1 records nothing
        self._child = []  # per open span: nanoseconds covered by its direct children
        self._root_start = 0
        self._pending_out = None
        self._patched = []  # (module, attribute, original) to restore
        self.seen_kets = set()
        self.ket_calls = 0
        self.ket_repeats = 0
        self.shots = 0
        self.out_bytes = 0

    # -- installing and removing the wrappers ---------------------------------

    def install(self, modules) -> None:
        for index, (_label, module, attr) in enumerate(self.targets, start=1):
            original = getattr(module, attr)
            wrapper = self._wrap(index, original, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, index: int, fn, attr: str):
        count = self._counter(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs)
            self._child.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                dur = end - start
                depth = len(self._child) - 1
                child = self._child.pop()
                self._child[-1] += dur
                self.records.extend((index, self.op, depth, start, end, dur - child))

        return wrapper

    # -- counters recorded at the same boundaries as the spans ----------------

    def _counter(self, attr: str):
        if attr == "coherent_state":
            return self._count_ket
        if attr == "simulate_shots":
            return self._count_shots
        if attr == "main":
            return self._count_out
        return None

    def _count_ket(self, args, kwargs):
        j = args[0] if args else kwargs["j"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        key = (float(j), n.theta, n.phi)
        self.ket_calls += 1
        if key in self.seen_kets:
            self.ket_repeats += 1
        else:
            self.seen_kets.add(key)

    def _count_shots(self, args, kwargs):
        plan = args[3] if len(args) > 3 else kwargs["plan"]
        self.shots += plan.shots

    def _count_out(self, args, kwargs):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        # the file named by --out is written during the call; measure it after
        if "--out" in argv:
            self._pending_out = argv[argv.index("--out") + 1]

    # -- ops --------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.seen_kets.clear()
        self._pending_out = None
        self.op = op
        self._child = [0]
        self._root_start = perf_counter_ns()

    def end_op(self) -> None:
        end = perf_counter_ns()
        dur = end - self._root_start
        self.records.extend((0, self.op, 0, self._root_start, end, dur - self._child[0]))
        self.op = -1
        if self._pending_out and os.path.exists(self._pending_out):
            self.out_bytes += os.path.getsize(self._pending_out)
        self._pending_out = None

    def spans(self) -> np.ndarray:
        """All recorded spans as a structured array, in completion order."""
        flat = np.frombuffer(self.records, dtype=np.int64).reshape(-1, len(_FIELDS))
        out = np.empty(len(flat), dtype=[(f, np.int64) for f in _FIELDS])
        for i, field in enumerate(_FIELDS):
            out[field] = flat[:, i]
        return out


def layer_table(tracer: Tracer, spans: np.ndarray, ops: int) -> dict:
    """Per name: calls, calls per op, self and inclusive time per op and per call (microseconds)."""
    dur = spans["end_ns"] - spans["start_ns"]
    table = {}
    for index, name in enumerate(tracer.names):
        mine = spans["name"] == index
        calls = int(mine.sum())
        self_ns = int(spans["self_ns"][mine].sum())
        incl_ns = int(dur[mine].sum())
        table[name] = {
            "calls": calls,
            "calls_per_op": calls / ops,
            "self_us_per_op": self_ns / ops / 1e3,
            "incl_us_per_call": incl_ns / calls / 1e3 if calls else 0.0,
            "self_us_per_call": self_ns / calls / 1e3 if calls else 0.0,
        }
    return table


def self_time_residual_ns(spans: np.ndarray) -> int:
    """Largest |sum of self times - root duration| over the ops; 0 when the spans nest exactly."""
    ops = spans["op"]
    first = int(ops.min())
    span_sum = np.bincount(ops - first, weights=spans["self_ns"].astype(float))
    root = spans[spans["name"] == 0]
    root_dur = np.zeros_like(span_sum)
    root_dur[root["op"] - first] = root["end_ns"] - root["start_ns"]
    return int(np.max(np.abs(span_sum - root_dur)))
