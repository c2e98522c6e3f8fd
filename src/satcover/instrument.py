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

The trace is an append-only list of (kind, payload ints..., counter reading)
events; identical input and configuration yield byte-identical serialized
traces.  Events are kept unless the caller opts out (``UnkeptTrace``), as
the harness and the probe do: they read only verdicts and op totals.

``collector_paused`` holds off the cyclic garbage collector while one input
is parsed, solved and reported.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
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
    the solve's one op counter."""

    __slots__ = ("events", "ops")

    def __init__(self, ops: OpCounter = DISABLED_OPS):
        self.events: List[Tuple] = []
        self.ops = ops

    def emit(self, kind: str, *payload: int) -> None:
        self.events.append((kind, payload, self.ops.total))

    def serialize(self) -> bytes:
        # tuples dump as JSON arrays; ``default`` sees only what JSON cannot
        # encode itself, such as an int-like value with ``__index__`` in a
        # payload.  Events are flat tuples of ints and strings, so no cycle
        # check is needed
        return json.dumps(
            self.events, separators=(",", ":"), default=int, check_circular=False
        ).encode("ascii")

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize()).hexdigest()

    def kinds(self) -> List[str]:
        return [kind for kind, _, _ in self.events]

    def events_without_readings(self) -> List[Tuple]:
        return [(kind, payload) for kind, payload, _ in self.events]


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
