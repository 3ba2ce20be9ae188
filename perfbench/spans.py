"""In-memory spans recorded around the benchmark's calls into the package.

A span holds a name, its start and end (perf_counter seconds), and the
id of the span that was open when it started.  Spans are only opened by
the benchmark's own files; nothing inside the package is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children run strictly inside their parent and one after another
        (the benchmark is single-threaded), so their durations add up.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own
