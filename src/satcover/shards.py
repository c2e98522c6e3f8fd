"""Run ``work(lo, hi)`` over the items ``0..count - 1`` in this process and
forked children that pull chunks of them from one queue (``run``).

``run`` decides how many shards to run: one per usable CPU, each with at
least ``MIN_SHARD_ITEMS`` items, and one (this process alone) off Linux,
while another Python thread is alive, or when a fork or a pipe is refused.
The items are cut into ``CHUNKS_PER_SHARD`` consecutive chunks per shard (at
most one per item and 1,024 in all), and the chunk indices go into one pipe
before any fork.  Every process pulls one index at a time until the pipe is
empty, so a shard that finishes early takes the work a slow one would have
held.  This is self-scheduling with equal chunks; the guided form of
Polychronopoulos & Kuck (IEEE Trans. Computers C-36, 1987) shrinks them as
the queue drains.  Each child sends its ``[(index, result), ...]`` back
through its own pipe, and the results are put back in chunk order, so what
the caller gets does not depend on which process ran which chunk.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
from array import array
from typing import BinaryIO, Callable, List, Optional, Tuple, TypeVar

# Chunks per shard on the queue.  Small chunks let a shard that is done pull
# work a slow shard would otherwise hold; each costs a call of ``work`` and a
# result to pickle.  On a 2-core x86-64 VM the fuzz benchmark's 48 pool
# entries (batches of 300 and 200 instances) took 7.30-7.55 s at 4,
# 7.10-7.57 s at 8 and 6.99-7.42 s at 16 chunks per shard, over three runs.
CHUNKS_PER_SHARD = 16

# Fewest items a shard is given, on average: the shard count is the usable
# CPUs, capped at count // MIN_SHARD_ITEMS.  On a 2-core x86-64 VM a second
# shard's fork, pipe and merge cost about 6 ms, against 0.09-0.16 ms per
# formula of a small exhaustive space and 0.7-0.8 ms per fuzz instance: two
# shards broke even at about 160 exhaustive formulas and 20 fuzz instances.
MIN_SHARD_ITEMS = 64

_T = TypeVar("_T")
_INDEX = array("I").itemsize  # bytes of one chunk index on the queue
# a pipe holds at least one 4 KiB page, so a queue this long is written
# whole before any reader starts
_QUEUE_CHUNKS = 4096 // _INDEX


def run(work: Callable[[int, int], _T], count: int) -> List[_T]:
    """``work(lo, hi)`` over consecutive chunks that cover ``0..count - 1``,
    the results in chunk order.

    With one shard, or when a fork or a pipe is refused, ``work(0, count)``
    runs here alone.  Otherwise this process and K - 1 forked children pull
    the chunks from one queue.  An exception in a child is raised here
    again with its type (its traceback stays in the child: a run under
    ``taskset -c 0`` shows it), and that child pulls no more chunks.  A
    child that ends without a result, killed by a signal for one, raises
    ``ChildProcessError`` naming the items of the chunks that no result
    holds.  No child outlives the call.
    """
    shards = 1  # off Linux, or beside another thread: a fork copies only the calling one
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        shards = min(len(os.sched_getaffinity(0)), count // MIN_SHARD_ITEMS)
    results = _run_shards(work, count, shards) if shards > 1 else None
    return [work(0, count)] if results is None else results


def _run_shards(work: Callable[[int, int], _T], count: int, shards: int) -> Optional[List[_T]]:
    """``run`` over ``shards`` processes: None when a fork or a pipe is
    refused, by then with every child reaped and the queue closed."""
    chunks = min(count, CHUNKS_PER_SHARD * shards, _QUEUE_CHUNKS)
    bounds = [count * c // chunks for c in range(chunks + 1)]
    try:
        queue_fd, write_fd = os.pipe()
    except OSError:  # no descriptor to spare
        return None
    children: List[Tuple[int, BinaryIO]] = []  # of shards 2..K, in order
    try:
        with open(write_fd, "wb") as fh:
            fh.write(array("I", range(chunks)).tobytes())

        def pull() -> List[Tuple[int, _T]]:
            return _pull_chunks(work, queue_fd, bounds)

        try:
            for _ in range(1, shards):
                children.append(_fork_shard(pull))
        except OSError:  # no process or pipe to spare
            return None
        done = dict(pull())
        dead = []
        for s in range(2, shards + 1):
            pid, reader = children[0]
            with reader:  # read as it arrives: the bytes are never held whole
                try:
                    sent = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # cut short: the child died
                    sent = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0:
                how = (
                    f"was killed by signal {-code} ({signal.strsignal(-code)})"
                    if code < 0
                    else f"exited with status {code}"
                )
                dead.append(f"harness shard {s} of {shards} {how} before sending its result")
                continue
            ok, value = sent
            if not ok:
                raise value
            done.update(value)
        if dead:
            lost = [(bounds[c], bounds[c + 1] - 1) for c in range(chunks) if c not in done]
            items = ", ".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in lost)
            raise ChildProcessError(f"{'; '.join(dead)} (items {items} never came back)")
        return [done[c] for c in range(chunks)]
    finally:
        _stop(children)
        os.close(queue_fd)


def _pull_chunks(
    work: Callable[[int, int], _T], queue_fd: int, bounds: List[int]
) -> List[Tuple[int, _T]]:
    """Read chunk indices from the queue one at a time until it is empty,
    running ``work`` on each chunk's items: ``[(index, result), ...]``.  An
    exception stops the pulling.  The pipe holds whole indices and each read
    asks for one, so a read returns one whole index, or nothing once the
    queue is empty: Linux serializes the reads of one pipe."""
    done = []
    while True:
        raw = os.read(queue_fd, _INDEX)
        if not raw:
            return done
        index = array("I", raw)[0]
        done.append((index, work(bounds[index], bounds[index + 1])))


def _fork_shard(pull: Callable[[], _T]) -> Tuple[int, BinaryIO]:
    """Fork a child that pickles ``(True, pull())``, or ``(False,
    exception)``, into a pipe and leaves by ``os._exit``: no atexit handler
    runs and no inherited buffer is flushed.  Returns (pid, pipe reader)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = (True, pull())
            except Exception as exc:  # sent to the parent, which raises it
                result = (False, exc)
            with open(write_fd, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _stop(children: List[Tuple[int, BinaryIO]]) -> None:
    """Kill and reap every listed child."""
    while children:
        pid, reader = children.pop()
        reader.close()
        os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie until reaped
        os.waitpid(pid, 0)

