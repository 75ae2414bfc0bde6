"""Spans recorded from outside the program, around its public calls.

The benchmark never edits the code it measures.  A traced pass wraps
the objects it hands to the program -- the chunk iterator, the selector
kernel, the flow accountant, the window callback -- in thin proxies that
open a span around each call.  Spans live in memory as
``[name, start, end, parent, pass_id]`` rows and are written out once,
when the run ends.  A span's self time is its duration minus the time
its direct children cover.
"""

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List

clock = time.perf_counter


class SpanRecorder:
    """Nested spans kept in memory; parents follow the open-span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.pass_id = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, clock(), None, parent, self.pass_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %r closed out of order" % span[0])
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def abandon(self) -> None:
        """Close every open span now, as after a pass that raised."""
        now = clock()
        for index in self._stack:
            self.spans[index][2] = now
        self._stack.clear()

    def self_times(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def totals(self, pass_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name in one pass: summed duration, self time, count."""
        result: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[4] != pass_id:
                continue
            entry = result.setdefault(
                span[0], {"total": 0.0, "self": 0.0, "count": 0.0}
            )
            entry["total"] += span[2] - span[1]
            entry["self"] += own
            entry["count"] += 1
        return result

    def durations(self, name: str, pass_id: int) -> List[float]:
        return [
            span[2] - span[1]
            for span in self.spans
            if span[0] == name and span[4] == pass_id
        ]

    def write(self, path: str) -> None:
        """One JSON object per span, as recorded."""
        with open(path, "w") as stream:
            for index, (name, start, end, parent, pass_id) in enumerate(
                self.spans
            ):
                stream.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "pass": pass_id,
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """The untraced twin: every span call is a no-op."""

    pass_id = 0

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        yield -1

    def abandon(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


class PullClock:
    """Chunk iterator that notes when each pull began.

    ``started`` is the clock reading at the start of the most recent
    ``next()``, which is when the pipeline began pulling the chunk now
    being processed.  With a recorder, each pull is an ``ingest`` span
    and the work done on the chunk until the next pull is a ``step``
    span, so spans the consumer opens meanwhile nest under the step.
    """

    def __init__(self, chunks: Iterable, recorder=NULL_RECORDER) -> None:
        self._chunks = chunks
        self._recorder = recorder
        self.started = clock()
        self.pulls = 0

    def __iter__(self) -> Iterator:
        iterator = iter(self._chunks)
        recorder = self._recorder
        while True:
            self.started = clock()
            ingest = recorder.begin("ingest")
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(ingest)
            self.pulls += 1
            step = recorder.begin("step")
            try:
                yield chunk
            finally:
                recorder.end(step)


class TimedKernel:
    """Selector kernel proxy: a ``select`` span per ``keep_mask``.

    It holds the kernel's bound ``keep_mask``, so its own ``keep_mask``
    may be set on the kernel instance without recursing.
    """

    def __init__(self, kernel, recorder: SpanRecorder) -> None:
        self._keep_mask = kernel.keep_mask
        self._recorder = recorder

    def keep_mask(self, timestamps_us):
        with self._recorder.span("select"):
            return self._keep_mask(timestamps_us)


class TimedAccountant:
    """Flow accountant proxy: a ``flows`` span per chunk and flush."""

    def __init__(self, accountant, recorder: SpanRecorder) -> None:
        self._accountant = accountant
        self._recorder = recorder

    def observe_chunk(self, chunk, kept) -> None:
        with self._recorder.span("flows"):
            self._accountant.observe_chunk(chunk, kept)

    def flush(self) -> None:
        with self._recorder.span("flows.flush"):
            self._accountant.flush()
