"""Wrapping and span tracing of secpmsim, in the benchmark process only.

``Patcher`` swaps a function for a wrapper where its caller looks it up (a
module global such as ``controller.encrypt_line``, or a class attribute
such as ``CounterCache.lookup``) and puts every original back on exit.

``Tracer`` records a span for each wrapped call: name, start, end, parent
span and request id.  The hot functions run millions of times per run, so
spans are folded online into per-(name, parent) call counts, total time and
self time (a span's duration minus the part its child spans cover).  Full
spans are kept only for transactions, crash points, ``recover`` and
``fresh``; ``write`` saves them when the run ends.  Because every span's
duration is subtracted from exactly one parent, the self times of all spans
plus the harness's own time (the root span's self time) sum to the traced
wall time; ``consistency`` checks that identity.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from typing import Any, Callable

KEPT = frozenset({"txn", "crash.point", "txn.recover", "crash.fresh"})
ROOT = "bench"


class Patcher:
    """Replaces attributes of modules and classes; ``restore`` undoes all."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    def __init__(self) -> None:
        self.folded: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {
            "flush_sim_cycles": [], "txn_host_s": [], "snapshot_lines": []}
        self.request: str | None = None
        self._ids = itertools.count(1)
        self._stack: list[list] = []
        self._point: tuple | None = None
        self.wall_s = 0.0
        self.root_self_s = 0.0

    # -- spans ---------------------------------------------------------

    def start(self) -> None:
        self._stack.append([ROOT, time.perf_counter(), 0.0, 0])

    def stop(self) -> None:
        self.end_point()
        end = time.perf_counter()
        if len(self._stack) != 1:
            raise RuntimeError(f"unbalanced span stack: {len(self._stack)} open")
        _, start, child, _ = self._stack.pop()
        self.wall_s = end - start
        self.root_self_s = self.wall_s - child

    def _close(self, frame: list, end: float) -> None:
        name, start, child, sid = frame
        parent = self._stack[-1]
        dur = end - start
        parent[2] += dur
        rec = self.folded.get((name, parent[0]))
        if rec is None:
            rec = self.folded[(name, parent[0])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if name in KEPT:
            self.spans.append((sid, name, start, end, parent[3], self.request))

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        stack, ids, clock, close = self._stack, self._ids, time.perf_counter, self._close

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                frame = [name, clock(), 0.0, next(ids)]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    close(frame, clock())
            return traced
        return make

    def wrap_txn(self, record: bool) -> Callable[[Callable], Callable]:
        """Wrap the ``run_transaction`` generator: one span per step.  With
        ``record``, steps share the transaction's request id, their summed
        time is a transaction's host time, and a full ``txn`` span is kept."""
        tracer, stack, ids, clock = self, self._stack, self._ids, time.perf_counter

        def make(fn: Callable) -> Callable:
            def run_transaction(controller, txn):
                gen = fn(controller, txn)
                sid, parent, first, busy, end = next(ids), None, None, 0.0, 0.0
                request = f"txn:{txn.core}:{txn.txn_id}" if record else tracer.request
                while True:
                    saved = tracer.request
                    tracer.request = request
                    start = clock()
                    if first is None:
                        first, parent = start, stack[-1][3]
                    frame = ["txn.run_transaction", start, 0.0, next(ids)]
                    stack.append(frame)
                    try:
                        step = next(gen)
                    except StopIteration:
                        step = None
                    finally:
                        stack.pop()
                        end = clock()
                        tracer._close(frame, end)
                        tracer.request = saved
                    busy += end - start
                    if step is None:
                        break
                    yield step
                if record:
                    tracer.samples["txn_host_s"].append(busy)
                    tracer.spans.append((sid, "txn", first, end, parent, request))
            return run_transaction
        return make

    def begin_point(self, request: str) -> None:
        """Start a crash-point span; it ends where the next one begins."""
        self.end_point()
        self.request = request
        self._point = (next(self._ids), time.perf_counter(), self._stack[-1][3])

    def end_point(self) -> None:
        if self._point is not None:
            sid, start, parent = self._point
            self.spans.append(
                (sid, "crash.point", start, time.perf_counter(), parent, self.request))
            self._point = None
            self.request = None

    # -- results -------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for (name, _), (calls, total, self_s) in self.folded.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def consistency(self) -> dict:
        summed = sum(rec[2] for rec in self.folded.values()) + self.root_self_s
        return {
            "self_sum_s": summed,
            "bench_self_s": self.root_self_s,
            "wall_s": self.wall_s,
            "ok": abs(summed - self.wall_s) <= 1e-6 * max(self.wall_s, 1e-3),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
            for (name, parent), (calls, total, self_s) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "parent": parent,
                                     "calls": calls, "total_s": total,
                                     "self_s": self_s}) + "\n")
