"""Wrap library entry points by name and time them from outside.

A ``Tracer`` replaces attributes on modules and classes with timing
wrappers and puts the originals back on ``restore``.  Every wrapper keeps
a frame on one stack, so each call knows how much of its duration its
callees covered; its self time is the rest.  That holds for both kinds of
record the tracer keeps:

* spans (name, start, end, parent span, run id, self time), one per call,
  for entry points that are called a few times per pass;
* aggregates (calls, busy time, self time, named outcome counts) for
  small functions called hundreds of thousands of times, where a span per
  call would cost more memory and time than the call itself.

Nothing here changes the wrapped function's arguments, result or
exceptions.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Aggregate:
    __slots__ = ("calls", "busy", "self", "outcomes")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.outcomes: dict[str, int] = {}


class Tracer:
    """Timing wrappers around named entry points, with one shared call stack."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, run id, self]
        self.stats: dict[str, Aggregate] = {}
        self.run_id = 0
        self._stack: list[list] = []      # frames: [child seconds, span index or None]
        self._patches: list[tuple] = []   # (owner, attribute, original)

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def _open(self, name: str, start: float, span: bool) -> list:
        index = None
        if span:
            parent = self._stack[-1][1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.run_id, None])
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> Aggregate:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Aggregate()
        stat.calls += 1
        stat.busy += duration
        stat.self += duration - frame[0]
        if frame[1] is not None:
            record = self.spans[frame[1]]
            record[2] = end
            record[5] = duration - frame[0]
        return stat

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        start = perf_counter()
        frame = self._open(name, start, True)
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    def wrap(self, owner, attribute: str, name, span: bool = False, outcome=None) -> None:
        """Replace ``owner.attribute`` with a timing wrapper.

        ``name`` is the metric name, or a function of the call's positional
        and keyword arguments that returns one.  ``span`` records a span per
        call.  ``outcome``, if given, maps (args, result, raised exception)
        to an outcome label, or None, counted under the name.
        """
        original = getattr(owner, attribute)
        fixed = isinstance(name, str)
        open_frame, close_frame = self._open, self._close

        def wrapper(*args, **kwargs):
            label = name if fixed else name(args, kwargs)
            start = perf_counter()
            frame = open_frame(label, start, span)
            error = result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                stat = close_frame(label, frame, start, perf_counter())
                if outcome is not None:
                    key = outcome(args, result, error)
                    if key is not None:
                        stat.outcomes[key] = stat.outcomes.get(key, 0) + 1

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def take_stats(self) -> dict[str, Aggregate]:
        """Aggregates gathered since the last call; the tracer starts afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def write(self, path: Path, passes: list[dict[str, Aggregate]]) -> None:
        """All spans, and each traced pass's aggregates, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [dict(zip(("name", "start", "end", "parent", "run", "self_s"), s))
                      for s in self.spans],
            "passes": [{name: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self,
                               "outcomes": s.outcomes}
                        for name, s in sorted(stats.items())}
                       for stats in passes],
        }
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
