"""Per-layer attribution from the benchmark's own files.

The traced run wraps public functions of each layer (see ``TARGETS`` in
:mod:`perfbench.workloads`) and records, per wrapper:

* calls, inclusive time and **self time** — the wrapper's time minus the
  time of wrapped calls nested inside it, so self times of all layers add
  up to the time the wrappers cover without double counting;
* spans ``(name, start, end, parent, request id, thread)`` kept in memory
  and written out as JSON lines when the run ends.  Hot functions are
  timed but never spanned (``aggregate`` mode) or only counted (``count``
  mode, the ``leq`` hot path); any other function stops producing spans
  after ``SPAN_CAP`` of them.

Nothing inside ``src/`` is changed: wrappers are installed by replacing
attributes on classes and modules and are removed by :meth:`restore`.
Each thread keeps its own stack and tallies, merged at report time, so the
gateway's server thread and the HTTP load generator never share mutable state.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: a function recorded this many times stops producing spans
SPAN_CAP = 100_000


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` reported under ``metric``.

    ``mode`` is ``"time"`` (timed, spanned up to the cap), ``"aggregate"``
    (timed, never spanned: for functions called ~10^5+ times a run) or
    ``"count"`` (calls only).  ``rid`` computes a span's request id from the call's
    arguments and result when the id is only known at the wrapped layer
    (a shard frame's qid); otherwise the tracer's current id is used.
    ``container`` marks a wrapper around a whole phase (the coordinator's
    serve loop): its self time is loop overhead and waiting, not a layer,
    so it does not count towards attributed time.
    """

    owner: Any
    attr: str
    metric: str
    mode: str = "time"
    rid: Optional[Callable[[tuple, Any], Any]] = None
    measure: Optional[Callable[[tuple, Any], int]] = None
    container: bool = False


class _Tally:
    __slots__ = ("calls", "inclusive", "self_time", "child", "amount")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.child = 0.0  # inclusive time of wrapped calls directly inside
        self.amount = 0  # what ``Target.measure`` returned (bytes)


class _Thread:
    """One thread's open-frame stack, tallies and spans."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[list] = []
        self.tallies: Dict[str, _Tally] = {}
        self.spans: List[tuple] = []
        self.spanned: Dict[str, int] = {}


class LayerTracer:
    """Wrapper-based tracer: install targets, run, read tallies and spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = SPAN_CAP) -> None:
        self.clock = clock
        self.span_cap = span_cap
        #: request id stamped on spans opened from now on (the HTTP load
        #: generator sets it before each request; one request is in flight at a time)
        self.request_id: Any = None
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._register = threading.Lock()
        self._counters: Dict[str, List[int]] = {}
        self._containers: set = set()
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._span_ids = itertools.count()

    # ------------------------------------------------------------ recording

    def _state(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _Thread(threading.current_thread().name)
            self._local.state = state
            with self._register:
                self._threads.append(state)
        return state

    def enter(self, name: str, count_call: bool = True, spanned: bool = True) -> list:
        """Open a frame; returns the handle :meth:`exit` closes."""
        state = self._state()
        tally = state.tallies.get(name)
        if tally is None:
            tally = state.tallies[name] = _Tally()
        if count_call:
            tally.calls += 1
        span_id = None
        parent = None
        if spanned and state.spanned.get(name, 0) < self.span_cap:
            state.spanned[name] = state.spanned.get(name, 0) + 1
            span_id = next(self._span_ids)
            for frame in reversed(state.stack):
                if frame[4] is not None:
                    parent = frame[4]
                    break
        frame = [name, tally, self.clock(), 0.0, span_id, parent, self.request_id]
        state.stack.append(frame)
        return frame

    def exit(self, frame: list, rid: Any = None, end: Optional[float] = None) -> float:
        """Close ``frame`` (at ``end``, default now); returns its inclusive time."""
        if end is None:
            end = self.clock()
        state = self._state()
        state.stack.pop()
        name, tally, start, child, span_id, parent, request_id = frame
        elapsed = end - start
        tally.inclusive += elapsed
        tally.self_time += elapsed - child
        tally.child += child
        if state.stack:
            state.stack[-1][3] += elapsed
        if span_id is not None:
            state.spans.append((
                span_id, name, start, end, parent,
                request_id if rid is None else rid, state.name,
            ))
        return elapsed

    def bookkeeping(self, seconds: float) -> None:
        """Charge the tracer's own work to the enclosing frame's children,
        so it is not mistaken for that layer's self time."""
        state = self._state()
        if state.stack:
            state.stack[-1][3] += seconds
        tally = state.tallies.setdefault("trace.bookkeeping", _Tally())
        tally.self_time += seconds
        tally.inclusive += seconds

    # ----------------------------------------------------------- installing

    def install(self, targets: List[Target]) -> int:
        """Wrap ``targets``; returns the mark :meth:`restore` can stop at."""
        mark = len(self._restore)
        for target in targets:
            original = _raw(target.owner, target.attr)
            if target.container:
                self._containers.add(target.metric)
            if target.mode == "count":
                wrapper = self._counting(target, original)
            elif inspect.isgeneratorfunction(original):
                wrapper = self._timing_generator(target, original)
            else:
                wrapper = self._timing(target, original)
            owned = not inspect.isclass(target.owner) or (
                target.attr in target.owner.__dict__
            )
            self._restore.append((target.owner, target.attr, original, owned))
            setattr(target.owner, target.attr, wrapper)
        return mark

    def restore(self, mark: int = 0) -> None:
        """Unwrap, last installed first, down to ``mark`` (0 = everything)."""
        while len(self._restore) > mark:
            owner, attr, original, owned = self._restore.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # it was inherited: unshadow the base

    def _counting(self, target: Target, original: Callable) -> Callable:
        cell = self._counters.setdefault(target.metric, [0])

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return original(*args, **kwargs)

        return wrapper

    def _timing(self, target: Target, original: Callable) -> Callable:
        metric, rid_of, measure = target.metric, target.rid, target.measure
        spanned = target.mode != "aggregate"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(metric, spanned=spanned)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if rid_of is None and measure is None:
                    self.exit(frame)
                else:
                    # the request id and the size are the tracer's work:
                    # close the frame at ``end``, charge the rest aside
                    end = self.clock()
                    rid = rid_of(args, result) if rid_of is not None else None
                    if measure is not None:
                        frame[1].amount += measure(args, result)
                    self.exit(frame, rid, end)
                    self.bookkeeping(self.clock() - end)

        return wrapper

    def _timing_generator(self, target: Target, original: Callable) -> Callable:
        """Time only the generator's own steps, not its consumer's work."""
        metric = target.metric

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            generator = original(*args, **kwargs)
            first = True
            while True:
                frame = self.enter(metric, count_call=first)
                first = False
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                yield item

        return wrapper

    # -------------------------------------------------------------- reading

    def tally(self, metric: str) -> Tuple[int, float, float, int]:
        """(calls, self seconds, child seconds, measured amount) summed
        over threads; count-mode metrics report calls only."""
        calls, self_time, child, amount = 0, 0.0, 0.0, 0
        for state in self._threads:
            tally = state.tallies.get(metric)
            if tally is not None:
                calls += tally.calls
                self_time += tally.self_time
                child += tally.child
                amount += tally.amount
        calls += self._counters.get(metric, [0])[0]
        return calls, self_time, child, amount

    def calls(self, metric: str) -> int:
        return self.tally(metric)[0]

    def self_seconds(self, metric: str) -> float:
        return self.tally(metric)[1]

    def attributed_seconds(self) -> float:
        """Self time of every non-container wrapper, all threads."""
        return sum(
            tally.self_time
            for state in self._threads
            for name, tally in state.tallies.items()
            if name not in self._containers
        )

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._threads)

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON object per line; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._threads:
                for span_id, name, start, end, parent, rid, thread in state.spans:
                    handle.write(json.dumps({
                        "id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "request": rid, "thread": thread,
                    }, default=str))
                    handle.write("\n")
                    written += 1
        return written


def _raw(owner: Any, attr: str) -> Any:
    """The attribute as stored (not a bound method), looked up on the MRO."""
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return klass.__dict__[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return getattr(owner, attr)
