"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter``), the span
that encloses it and the task it belongs to; extra fields such as iteration
counts are stored on the span record.  Spans are kept in a list and written
out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.task: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        rec = {
            "id": len(self.spans),
            "task": self.task,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            **fields,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]
