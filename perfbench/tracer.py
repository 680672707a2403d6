"""Span recording from outside the program: wrappers, per-thread stacks, self time.

A :class:`Recorder` keeps one stack of open spans per thread.  Every wrapped
call pushes a frame on entry and pops it on exit; the popped span's *self*
time is its duration minus the time its child spans took, and its whole
duration is charged to the parent frame as child time.  Spans are kept in
memory and written out when the run ends (:meth:`Recorder.dump`).

Only span trees that start at a *root* (a facade call in the generator, a
``RequestDispatcher.dispatch`` in the server child) are recorded.  A wrapped
call that starts on an empty stack without being a root runs on a helper
thread (a storage node's workers, the cluster's fan-out pool), overlaps its
caller in time and would be counted twice, so it and everything under it is
only counted as ``detached``.

Per-point helpers are wrapped as *tallies* (:func:`tally`): a bare timer
that adds to one aggregate per ``(layer, name)`` and to a running total,
which every enclosing span subtracts from its self time.  A tally must be a
leaf (it calls nothing wrapped) and run on one thread only; the facade's
per-point calls in the generator's main thread are.

A :class:`Patcher` installs wrappers and restores every patched attribute to
the identical object afterwards.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span record fields, in the order they are stored and written out.
SPAN_FIELDS = ("layer", "name", "parent_layer", "parent_name", "root", "thread", "start_ns", "dur_ns", "self_ns")


class _Frame:
    __slots__ = ("layer", "name", "root", "start", "child_ns", "tally_start", "child_tally_ns",
                 "detached", "parent")

    def __init__(self, layer, name, root, detached, parent) -> None:
        self.layer = layer
        self.name = name
        self.root = root
        self.start = 0
        self.child_ns = 0
        self.tally_start = 0
        self.child_tally_ns = 0
        self.detached = detached
        self.parent = parent


class Recorder:
    """Per-thread span stacks, with spans, tallies and counts kept in memory."""

    def __init__(self, roots: Iterable[str] = (), clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._roots = frozenset(roots)
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[tuple] = []
        #: ``(layer, name) -> [calls, dur_ns]``
        self.tallies: Dict[Tuple[str, str], List[int]] = {}
        #: Running total of tallied time, ``[ns]``.
        self.tally_ns = [0]
        #: ``(root, counter) -> value``
        self.counts: Counter = Counter()
        self.detached = 0

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, name: str, root_label: Optional[str] = None) -> _Frame:
        """Open a span; a root span is labelled ``root_label`` (default: its name)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            frame = _Frame(layer, name, root_label or name, name not in self._roots, None)
        else:
            frame = _Frame(layer, name, parent.root, parent.detached, parent)
        stack.append(frame)
        frame.tally_start = self.tally_ns[0]
        frame.start = self._clock()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self._clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack out of order: closing {frame.name}, top is {popped.name}")
        duration = end - frame.start
        tallied = self.tally_ns[0] - frame.tally_start
        self_ns = duration - frame.child_ns - (tallied - frame.child_tally_ns)
        parent = frame.parent
        if parent is not None:
            parent.child_ns += duration
            parent.child_tally_ns += tallied
        if frame.detached:
            with self._lock:
                self.detached += 1
            return
        parent_layer = parent.layer if parent is not None else ""
        parent_name = parent.name if parent is not None else ""
        with self._lock:
            self.spans.append(
                (frame.layer, frame.name, parent_layer, parent_name, frame.root,
                 threading.get_ident(), frame.start, duration, self_ns)
            )

    def count(self, frame: _Frame, counters: Dict[str, int]) -> None:
        if frame.detached:
            return
        with self._lock:
            for counter, value in counters.items():
                self.counts[(frame.root, counter)] += value

    def add(self, root: str, counter: str, value: int = 1) -> None:
        """Count outside any span (e.g. on a helper thread)."""
        with self._lock:
            self.counts[(root, counter)] += value

    def span_dicts(self) -> List[Dict[str, Any]]:
        """Spans as dicts, tallies folded in as one record per aggregate."""
        records = [dict(zip(SPAN_FIELDS, span)) for span in self.spans]
        for (layer, name), (calls, dur_ns) in self.tallies.items():
            records.append(
                {"layer": layer, "name": name, "parent_layer": "", "parent_name": "", "root": "",
                 "thread": 0, "start_ns": 0, "dur_ns": dur_ns, "self_ns": dur_ns, "calls": calls}
            )
        return records

    def dump(self, path) -> None:
        """Write every span and count as JSON lines (one object per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.span_dicts():
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
            for (root, counter), value in sorted(self.counts.items()):
                out.write(json.dumps({"count": counter, "root": root, "value": value}) + "\n")
            out.write(json.dumps({"detached": self.detached}) + "\n")


def load_trace(path) -> Tuple[List[Dict[str, Any]], Counter, int]:
    """Read a file written by :meth:`Recorder.dump` back into spans and counts."""
    spans: List[Dict[str, Any]] = []
    counts: Counter = Counter()
    detached = 0
    with open(path, encoding="utf-8") as source:
        for line in source:
            record = json.loads(line)
            if "count" in record:
                counts[(record["root"], record["count"])] += record["value"]
            elif "detached" in record:
                detached += record["detached"]
            else:
                spans.append(record)
    return spans, counts, detached


def wrap(
    fn: Callable,
    recorder: Recorder,
    layer: str,
    name: str,
    hook: Optional[Callable[[_Frame, tuple, dict, Any], Dict[str, int]]] = None,
    label: Optional[Callable[[tuple], str]] = None,
) -> Callable:
    """A wrapper that records one span per call of ``fn``.

    ``hook(frame, args, kwargs, result)`` returns counters to add under the span's
    root; ``label(args)`` names the root of a span tree this call starts.
    """
    enter, exit_, count = recorder.enter, recorder.exit, recorder.count

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter(layer, name, label(args) if label is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if hook is not None:
            count(frame, hook(frame, args, kwargs, result))
        return result

    return traced


def tally(fn: Callable, recorder: Recorder, layer: str, name: str) -> Callable:
    """A wrapper that adds each call's time to one aggregate (see the module doc)."""
    entry = recorder.tallies.setdefault((layer, name), [0, 0])
    total = recorder.tally_ns
    clock = recorder._clock

    @functools.wraps(fn)
    def tallied(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        elapsed = clock() - start
        entry[0] += 1
        entry[1] += elapsed
        total[0] += elapsed
        return result

    return tallied


class Patcher:
    """Replaces attributes and puts back exactly what was there before."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        namespace = vars(owner)
        had_own = attribute in namespace
        self._saved.append((owner, attribute, had_own, namespace.get(attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
