"""Span tracer that wraps a program's public functions from outside.

Spans are kept in memory as ``Span`` tuples and written out once at the end.
Nesting is tracked with a stack, so the tracer assumes one thread per
process.  Worker processes forked while wrappers are installed inherit the
tracer; there each finished root span (with its subtree and counters) is
appended to a per-process file in ``spill_dir``, with how far the worker's
peak resident set has grown past the one it had when it was forked, because
a pool worker never returns its memory to the parent.  ``merge_spills``
reads those files back.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# Peak RSS of this process when it was forked.  Linux starts a child's peak
# at the resident set it inherits, i.e. pages it shares with its parent;
# only the growth past this is the child's own.
_fork_maxrss_kb = 0


def _after_fork():
    global _fork_maxrss_kb
    _fork_maxrss_kb = _maxrss_kb()


os.register_at_fork(after_in_child=_after_fork)


class Tracer:
    def __init__(self, spill_dir=None):
        self.spans = []
        self.counts = Counter()
        self.op = None  # operation id stamped on every span that opens
        self._stack = []
        self._next_id = 0
        self._pid = os.getpid()
        self._owner_pid = self._pid
        self._spill_dir = Path(spill_dir) if spill_dir else None
        self._patched = []
        # Largest sum, over the workers merged at once, of each worker's
        # peak RSS growth past its fork.
        self.workers_growth_kb = 0

    # -- installing wrappers ---------------------------------------------

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` until restore()."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def wrap(self, owner, attr, name, before=None):
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``before(*args, **kwargs)`` runs ahead of the span (its cost is not
        charged to the wrapped function) and is where counters are bumped.
        """
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                span_id, parent = self._open()
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(span_id, name, start, time.perf_counter(),
                                parent)
            return wrapper

        self.patch(owner, attr, make)

    def restore(self):
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name, n=1):
        self._check_process()
        self.counts[name] += n

    # -- span bookkeeping ------------------------------------------------

    def _check_process(self):
        pid = os.getpid()
        if pid != self._pid:
            # Forked child: drop the copies of the parent's state.
            self._pid = pid
            self.spans = []
            self.counts = Counter()
            self._stack = []
            self._next_id = pid << 32

    def _open(self):
        self._check_process()
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, start, end, parent):
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.op))
        if not self._stack and self._pid != self._owner_pid \
                and self._spill_dir is not None:
            self._spill()

    def _spill(self):
        lines = [json.dumps(list(s)) for s in self.spans]
        lines.append(json.dumps({
            "counts": dict(self.counts),
            "growth_kb": _maxrss_kb() - _fork_maxrss_kb}))
        with open(self._spill_dir / f"spans-{self._pid}.ndjson", "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.spans = []
        self.counts = Counter()

    def merge_spills(self):
        """Move spans and counters spilled by worker processes into self.

        The workers merged at once are taken to have run side by side (one
        pool), so their memory growths add up.
        """
        if self._spill_dir is None:
            return
        growth = {}
        for path in sorted(self._spill_dir.glob("spans-*.ndjson")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if isinstance(rec, dict):
                    self.counts.update(rec["counts"])
                    growth[path] = max(growth.get(path, 0), rec["growth_kb"])
                else:
                    self.spans.append(Span(*rec))
            path.unlink()
        self.workers_growth_kb = max(self.workers_growth_kb,
                                     sum(growth.values()))

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


# ---------------------------------------------------------------------------
# derived quantities

def durations(spans, name):
    return [s.end - s.start for s in spans if s.name == name]


def inclusive_times(spans):
    """Total seconds per span name, not counting a span nested in one of
    the same name twice."""
    by_id = {s.id: s for s in spans}
    out = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            out[s.name] += s.end - s.start
    return out


def self_times(spans):
    """Self seconds per span name: each span's duration minus the part of
    it covered by its direct children.

    Children of one span come from one thread, so they never overlap each
    other and the covered part is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return out
