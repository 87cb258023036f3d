"""Segment sequencing and reordering (paper §3.2).

Parallel pipeline stages may reorder segments; TCP cannot tolerate that.
The pipeline's three ordering devices live here. A :class:`Sequencer`
tags work entering the pipeline; a :class:`ReorderBuffer` (the GRO FPCs)
buffers work and releases it in tag order to its one ``output``: the
protocol rings' router, or the NBI ring's ``force_put``. A stage
dropping a tagged segment must call :meth:`ReorderBuffer.skip` so the
stream does not stall — exactly the BLM bookkeeping the paper assigns
its own FPCs. A :class:`KeyedFence`
orders a replicated stage's emissions per key (connection, context
queue) with no ticket domain: turns are taken in dequeue order.

Delivery has two modes. By default releases happen inline, in whichever
stage called :meth:`offer`/:meth:`skip` (required by the
run-to-completion baseline, whose worker polls the downstream ring
synchronously). The pipelined datapath instead hands the buffer a
:class:`~repro.nfp.fpc.Chain` (:meth:`deliver_by`) woken per release
batch, so the GRO's releases run under their own sanitizer owner token
rather than the offering stage's.
"""

from collections import deque

from repro.sim import Event
from repro.sim.core import PENDING


class SequencingError(ValueError):
    """A work was handed a second ticket of one sequencer: its first is
    never offered nor skipped, so the reorder buffer waits for it forever."""


class Sequencer:
    """Issues dense per-domain sequence numbers."""

    def __init__(self):
        self._next = 0

    def assign(self, work):
        if work.sequencer is self:
            raise SequencingError("{!r} already holds ticket {} of this sequencer".format(work, work.pipeline_seq))
        work.sequencer = self
        work.pipeline_seq = self._next
        self._next += 1
        return work.pipeline_seq

    @property
    def issued(self):
        return self._next


class ReorderBuffer:
    """Releases work items in sequence order to ``output(work)``.

    Out-of-order arrivals are buffered; ``skip()`` advances past dropped
    sequence numbers. The buffer is unbounded in entries but its peak
    occupancy is recorded (inter-module queue occupancy is one of the
    paper's 48 tracepoints). An output into a ring must not block: a full
    ring would deadlock the drain, so the data path hands its rings'
    ``force_put``, which grows them instead.
    """

    def __init__(self, sim, output, name="reorder"):
        self.sim = sim
        self.output = output
        self.name = name
        self._expected = 0
        self._pending = {}
        self._skipped = set()
        self.released = 0
        self.buffered_peak = 0
        self.out_of_order_arrivals = 0
        self._chain = None
        self._outbox = None
        self._parked = False

    def offer(self, work):
        """Accept a tagged work item; release everything now in order."""
        seq = work.pipeline_seq
        if seq is None:
            raise ValueError("work item was never sequenced")
        if seq < self._expected or seq in self._pending:
            raise ValueError("duplicate pipeline sequence {}".format(seq))
        if seq != self._expected:
            self.out_of_order_arrivals += 1
        self._pending[seq] = work
        if len(self._pending) > self.buffered_peak:
            self.buffered_peak = len(self._pending)
        self._drain()

    def skip(self, seq):
        """Mark a sequence number as dropped mid-pipeline."""
        if seq < self._expected:
            return
        self._skipped.add(seq)
        self._drain()

    def deliver_by(self, chain):
        """Release through ``chain`` (started here) instead of inline.

        Must be called before any work is offered: releases wait in an
        outbox, and the chain, parked, is woken to deliver them.
        """
        self._chain = chain
        self._outbox = deque()
        chain.start(self._deliver_all)

    def _deliver_all(self, chain, _value):
        """The GRO delivery step: everything released so far, then park."""
        while self._outbox:
            self.output(self._outbox.popleft())
        self._parked = True
        return chain.park(self._deliver_all)

    def _notify(self):
        if self._parked:
            self._parked = False
            self._chain.succeed()

    def _drain(self):
        while True:
            if self._expected in self._skipped:
                self._skipped.discard(self._expected)
                self._expected += 1
                continue
            work = self._pending.pop(self._expected, None)
            if work is None:
                return
            self._expected += 1
            self.released += 1
            if self._chain is not None:
                self._outbox.append(work)
                self._notify()
                continue
            self.output(work)

    @property
    def buffered(self):
        return len(self._pending)

    @property
    def expected(self):
        return self._expected


class KeyedFence:
    """Per-key order fence for a replicated stage (§3.1.3).

    Replicas dequeue one key's works in ring order but finish them out
    of order (variable compute, DMA retries). ``turn = fence.enter(key)``
    at dequeue; ``if turn.blocked(): return thread.wait(turn.prev, then)``
    before the ordered emission; ``turn.leave()`` after it. Only the
    latest turn per key is held and the last ``leave()`` drops it: a key
    whose works have all left costs nothing, and nobody has to forget it. A ``leave()`` that
    no successor is blocked on schedules no event either.
    """

    def __init__(self, sim):
        self.sim = sim
        self._tail = {}

    def enter(self, key):
        turn = self._tail[key] = _Turn(self, key, self._tail.get(key))
        return turn

    def __len__(self):
        """Keys with a turn still open."""
        return len(self._tail)


class _Turn(Event):
    """One work's place in its key's order; fires when it has left."""

    __slots__ = ("_fence", "_key", "prev")

    def __init__(self, fence, key, prev):
        # Event.__init__ inlined: a turn per work through a fenced stage.
        self.sim = fence.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self._fence = fence
        self._key = key
        self.prev = prev

    def blocked(self):
        prev = self.prev
        return prev is not None and prev._value is PENDING

    def leave(self):
        tail = self._fence._tail
        if tail.get(self._key) is self:
            del tail[self._key]
        self.prev = None  # or every past turn of the key stays reachable
        # Event.settle inlined. blocked() tests whether the turn fired: a
        # turn that has left is never waited on later, so with no waiter
        # now there is nothing to wake.
        if self.callbacks:
            self.succeed()
        else:
            self._value = None
            self.callbacks = None
