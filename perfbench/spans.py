"""In-memory span recorder for the benchmark.

A span is (name, start, end, parent, op).  Spans nest through a stack, so
a span opened inside another records it as its parent; `op` is the id of
the benchmark operation that was running, or -1 outside operations
(set-up, per-profile probes).  Nothing is written until `dump` is called
at the end of the run.

The benchmark always times its own calls into the package with spans.
The traced run additionally installs `traced_imports`, which wraps the
names that `lr_engine` and `checker` import from other layers, so the
time those layers spend in each other shows as child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [self.ends[i] - self.starts[i] for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i],
                }) + "\n")


@contextmanager
def traced_imports(rec: Recorder, counts: dict):
    """Wrap the cross-layer names lr_engine and checker call; restore on exit."""
    from ggtkit import checker, lr_engine

    def count_conflict(result):
        # only propagation inside benchmark operations, not inside probes
        if result.conflict is not None and rec.op >= 0:
            counts["propagation.conflicts"] += 1

    patches = [
        (lr_engine, "build_ppi_dag", "gtproofs.build_ppi_dag", None),
        (lr_engine, "associated_bpo", "bpo.associated_bpo", None),
        (checker, "unit_propagate", "propagation.unit_propagate", count_conflict),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
    try:
        for mod, attr, name, hook in patches:
            setattr(mod, attr, rec.wrap(getattr(mod, attr), name, hook))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
