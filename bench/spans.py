"""In-memory spans recorded from the harness's side of each layer call.

A span is ``(name, op, parent, start, end)``.  Synchronous code nests
spans with :meth:`Tracer.span`; the asyncio serve loop, where two client
tasks interleave, records finished op-level spans with
:meth:`Tracer.record`.  Spans stay in memory and are written once, after
the run, as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class NoTracer:
    """Tracing off: the same calls, nothing recorded."""

    _off = nullcontext()

    def span(self, name: str, op: Optional[int] = None):
        return self._off


class Tracer:
    def __init__(self) -> None:
        # [name, op, parent index or None, start, end]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][1]
        index = len(self.spans)
        record = [name, op, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, op: int, start: float, end: float) -> None:
        self.spans.append([name, op, None, start, end])

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per span name, each span's self time: its duration minus the
        part its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        result: Dict[str, List[float]] = {}
        for index, (name, _, _, start, end) in enumerate(self.spans):
            result.setdefault(name, []).append(end - start - covered[index])
        return result

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, op, parent, start, end) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "op": op,
                            "parent": parent,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
