"""Elementary-operation counting and deterministic structured tracing.

The counter tracks three kinds of elementary operations, and every step of
the search charges them by one rule: a comparison per cell it reads, an
arithmetic op per counter it changes, an assignment per cell it writes (a
write logged on the undo trail is one, and so is a trail entry a restore
pops).  A list the step visits is charged by its length in one call, never
element by element.  Loop control, allocating a zero-filled list and the
checks around the search (input validation, the forced-conflict shortcut,
the covering gate) are free, so totals are deterministic and follow the
entries the O(N) engine touches.

The trace is an append-only log of (kind, payload ints..., counter reading)
events, stored flat: one list of payload lengths and one of the events'
kinds, payloads and readings laid end to end.  Kinds are plain ASCII names,
so the JSON of the events is written with one %-format call and no escaping;
identical input and configuration yield byte-identical serialized traces.
Events are kept unless the caller opts out (``UnkeptTrace``), as the harness
and the probe do: they read only verdicts and op totals.

``collector_paused`` holds off the cyclic garbage collector while one input
is parsed, solved and reported.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
from typing import Iterator, List, Tuple


class OpCounter:
    """Mutable elementary-operation tally."""

    __slots__ = ("assignments", "arithmetic", "comparisons")

    def __init__(self):
        self.assignments = self.arithmetic = self.comparisons = 0

    @property
    def total(self) -> int:
        return self.assignments + self.arithmetic + self.comparisons

    def assign(self, k: int = 1) -> None:
        self.assignments += k

    def arith(self, k: int = 1) -> None:
        self.arithmetic += k

    def cmp(self, k: int = 1) -> None:
        self.comparisons += k

    def as_dict(self) -> dict:
        return {
            "assignments": self.assignments,
            "arithmetic": self.arithmetic,
            "comparisons": self.comparisons,
        }


class _DisabledOpCounter(OpCounter):
    """Counting switched off: identical call surface, nothing recorded."""

    total = 0  # a constant, not the summing property: every trace event reads it

    def assign(self, k: int = 1) -> None:  # noqa: ARG002
        pass

    def arith(self, k: int = 1) -> None:  # noqa: ARG002
        pass

    def cmp(self, k: int = 1) -> None:  # noqa: ARG002
        pass


DISABLED_OPS = _DisabledOpCounter()


class Trace:
    """Deterministic event log; each event snapshots the total of ``ops``,
    the solve's one op counter.

    An event is a kind, a payload of ints and a reading.  A kind is a plain
    ASCII name (letters, digits and '-'), which JSON writes unescaped; a
    payload value is an int (or int-like, converted through ``__index__``),
    never a bool, which JSON would write as ``true``.  ``_lengths`` holds each
    event's payload length and ``_values`` its kind, payload and reading, one
    event after another; ``events``, ``kinds()`` and
    ``events_without_readings()`` are built from them on demand."""

    __slots__ = ("_lengths", "_values", "ops")

    def __init__(self, ops: OpCounter = DISABLED_OPS):
        self._lengths: List[int] = []
        self._values: list = []
        self.ops = ops

    def emit(self, kind: str, *payload: int) -> None:
        self._lengths.append(len(payload))
        values = self._values
        values.append(kind)
        values.extend(payload)
        values.append(self.ops.total)

    def _spans(self) -> Iterator[Tuple[int, int]]:
        """(start in ``_values``, payload length) of each event."""
        lengths = self._lengths
        return zip(itertools.accumulate((k + 2 for k in lengths), initial=0), lengths)

    def serialize(self) -> bytes:
        """The events as ``json.dumps(events, separators=(",", ":"),
        default=int)`` writes them: one template per payload length, such as
        ``'["%s",[%d,%d],%d]'``, joined in event order and filled by one %
        call.  ``%d`` writes an int as JSON does and an int-like through
        ``__index__``, as ``default=int`` does."""
        templates = {
            k: '["%s",[' + ",".join(["%d"] * k) + "],%d]" for k in set(self._lengths)
        }
        template = "[" + ",".join(map(templates.__getitem__, self._lengths)) + "]"
        return (template % tuple(self._values)).encode("ascii")

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize()).hexdigest()

    @property
    def events(self) -> List[Tuple[str, Tuple[int, ...], int]]:
        """(kind, payload, reading) per event."""
        values = self._values
        return [
            (values[i], tuple(values[i + 1:i + 1 + k]), values[i + 1 + k])
            for i, k in self._spans()
        ]

    def kinds(self) -> List[str]:
        values = self._values
        return [values[i] for i, _ in self._spans()]

    def events_without_readings(self) -> List[Tuple[str, Tuple[int, ...]]]:
        values = self._values
        return [(values[i], tuple(values[i + 1:i + 1 + k])) for i, k in self._spans()]


class UnkeptTrace(Trace):
    """A trace whose caller asked for no events: ``emit`` records nothing and
    ``events`` stays empty.  There is nothing to serialize or digest, so
    ``serialize`` and ``sha256`` raise ValueError rather than describe a
    solve that emitted no event."""

    __slots__ = ()

    def emit(self, kind: str, *payload: int) -> None:  # noqa: ARG002
        pass

    def serialize(self) -> bytes:
        raise ValueError("this solve kept no trace events")


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Hold off Python's cyclic garbage collector for the block, then put back
    the state it was in.

    What one input's parse, solve and report build is acyclic and freed by
    reference counting, so the collector would only walk that growing heap
    and find nothing; for the same reason nothing is collected on exit.
    Usable as a decorator too.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
