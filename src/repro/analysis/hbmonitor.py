"""Run-time check of the pipeline's ordering devices (REPRO_SANITIZE).

FlexTOE orders parallel stages without locks: queue FIFO order,
sequencer tickets, keyed fences and the notification-before-ACK
write-ahead rule (§3.1.3). This monitor is the check that they do:
under ``REPRO_SANITIZE=1`` the pipelined datapath attaches passive taps
to the inter-stage rings and context queues and holds every *observed*
interleaving to the data path's ``RINGS`` table and the per-key books
below. No static pass models ordering; the hazard matrix
(``tests/analysis/test_hazard_matrix.py``) lists the seeded ordering
hazards this monitor catches.

The monitor is strictly passive: taps fire synchronously inside existing
puts/deliveries, create no simulation events and charge no cycles, so
golden wire digests are byte-identical with it enabled. It compares
ring order against ring order and knows nothing of ``KeyedFence``, so a
fence that fails to order fails here.

Books are keyed by the identity the item carries — the connection record
for works, ``(conn_index, opaque)`` for notifications — never a bare
index: a work arriving after its connection was removed is the next
entry of its own tenant's book, and a recycled index starts a fresh one.
An entry leaves when its item arrives or when ``FlexToeDatapath.retire``
(the one early exit, observed here) says it never will, so a drained
pipeline leaves every book empty and teardown has nothing to forget.

Checks
------

* **model edges** — every ring enqueue must come from a producer the
  data path's ``RINGS`` table declares for that ring (owner tokens come
  from the ownership sanitizer's chain wrapping). ``None`` owners
  (control plane, the MAC's RX handler, test scaffolding) are never
  checked — the invariant is about data-path stages.
* **per-connection protocol order** — works enter ``dma_ring`` in the
  same per-connection order the protocol stage emitted them (the
  ``post_fence`` contract, §3.1.3).
* **notification order** — notifications enter ``ctx_ring`` in the
  per-connection order the DMA stage received them (``dma_rx_fence``),
  and reach ``nic_deliver`` in per-context ``ctx_ring`` order
  (``arx_fence``).
* **write-ahead rule** — an ACK frame recorded as riding a segment with
  notifications is never offered to the NBI sequencer before every one
  of those notifications is host-visible.
"""

from repro.analysis import sanitizer


class HBViolationError(sanitizer.SanitizerError):
    """An observed interleaving breaks an ordering contract."""


class _OrderBook:
    """Per-key expected FIFO order with search-pop semantics.

    ``expect(key, item)`` records that ``item`` should eventually arrive
    for ``key``; ``arrive(key, item)`` pops entries until ``item`` is
    found (entries popped on the way were legitimately filtered out of
    the stream — e.g. works that produced nothing to emit). An arriving
    item *not* in the book means an earlier arrival already consumed
    past it: the stream was reordered.
    """

    __slots__ = ("_queues",)

    def __init__(self):
        self._queues = {}

    def expect(self, key, item):
        self._queues.setdefault(key, []).append(item)

    def arrive(self, key, item):
        return self._remove(key, item, elders=True)

    def discard(self, key, item):
        """``item`` left the stream early and will never arrive."""
        self._remove(key, item, elders=False)

    def _remove(self, key, item, elders):
        queue = self._queues.get(key, ())
        for index, entry in enumerate(queue):
            if entry is item:
                del queue[0 if elders else index : index + 1]
                if not queue:
                    del self._queues[key]
                return True
        # Not found: either reordered past, or never expected (e.g. a
        # control-plane notification). Leave the book untouched so one
        # stray arrival cannot poison later checks.
        return False

    def pending(self, key):
        """The next three entries expected for ``key``."""
        return self._queues.get(key, [])[:3]

    def __len__(self):
        return len(self._queues)


class HbMonitor:
    """Taps a pipelined datapath and validates interleavings live."""

    def __init__(self, dp):
        self.dp = dp
        self.checked_puts = 0
        # Protocol-order book, per record: post_rings put (proto order,
        # the proto stage serializes per connection) -> dma_ring put.
        self._proto_order = _OrderBook()
        # Notification books: dma_ring put -> ctx_ring put (per
        # (conn_index, opaque)), ctx_ring put -> nic_deliver (per context).
        self._notif_order = _OrderBook()
        self._ctx_order = _OrderBook()
        # Write-ahead rule: id(ack frame) -> (frame, [notifications]), and
        # id -> notification for those not yet host-visible; the entries
        # pin the objects so ids stay valid until checked.
        self._ack_requirements = {}
        self._undelivered = {}
        self._install()

    def outstanding(self):
        """Entries still held, by book: none once the pipeline has drained."""
        books = ("_proto_order", "_notif_order", "_ctx_order", "_ack_requirements", "_undelivered")
        return {name: len(getattr(self, name)) for name in books if getattr(self, name)}

    # -- wiring --------------------------------------------------------------

    def _install(self):
        dp = self.dp
        handlers = {"post_rings": self._on_post_put, "dma_ring": self._on_dma_put, "ctx_ring": self._on_ctx_put}
        for attr, (_consumer, producers) in dp.RINGS.items():
            tap = self._make_tap(attr, producers, handlers.get(attr))
            for ring in dp.rings(attr):
                ring.tap = tap
        for pair in dp.contexts.values():
            self.watch_context(pair)
        # The NBI sequencer's offer is the wire-commit point for ACKs
        # (the ticket decides wire order), and retire() is where a work
        # leaves the pipeline early; observe both. Instance attributes
        # shadow the bound methods.
        dp.nbi_gro.offer = self._observing(self._on_wire_commit, dp.nbi_gro.offer)
        dp.retire = self._observing(self._on_retire, dp.retire)

    @staticmethod
    def _observing(observer, original):
        def observed(item):
            observer(item)
            return original(item)

        return observed

    def _make_tap(self, ring, producers, handler):
        def tap(item):
            if self.dp.crashed:
                return
            self.checked_puts += 1
            owner = sanitizer.current_owner()
            if owner is not None and owner[0] not in producers:
                raise HBViolationError(
                    "hb-monitor: stage '{}' enqueued into {}; the data path's "
                    "RINGS table allows only {}".format(owner[0], ring, "/".join(producers))
                )
            if handler is not None:
                handler(item)

        return tap

    def watch_context(self, pair):
        pair.add_tap(self._on_ctx_event)

    # -- checks --------------------------------------------------------------

    def _arrive(self, book, key, item, where, contract):
        """``item`` must be next (bar filtered elders) in its key's book.
        A red run explains itself: whose stream, whether that tenant is
        still installed (else ``active=False``), what was expected."""
        if book.arrive(key, item):
            return
        who = "key {!r}".format(key)
        if isinstance(key, tuple):  # a notification stream
            tenant = self.dp.conn_table.get(key[0])
            active = tenant is not None and tenant.post.opaque is key[1]
            who = "conn {} opaque={!r} active={}".format(key[0], key[1], active)
        elif hasattr(key, "active"):  # a connection record
            who = "conn {} opaque={!r} active={}".format(key.index, key.post.opaque, key.active)
        raise HBViolationError(
            "hb-monitor: {!r} {} order ({}): the {} was violated; the book "
            "expected next: {}".format(item, where, who, contract, book.pending(key) or "nothing")
        )

    @staticmethod
    def _notif_key(notification):
        return (notification.conn_index, notification.opaque)

    def _on_post_put(self, work):
        self._proto_order.expect(work.record, work)

    def _on_dma_put(self, work):
        self._arrive(
            self._proto_order, work.record, work,
            "entered dma_ring out of per-connection protocol", "post_chain fence contract (§3.1.3)",
        )
        notifications = work.notify or ()
        for notification in notifications:
            self._notif_order.expect(self._notif_key(notification), notification)
        if notifications and work.ack_frame is not None:
            self._ack_requirements[id(work.ack_frame)] = (work.ack_frame, list(notifications))
            for notification in notifications:
                self._undelivered[id(notification)] = notification

    def _on_ctx_put(self, notification):
        self._arrive(
            self._notif_order, self._notif_key(notification), notification,
            "entered ctx_ring out of per-connection DMA-completion", "dma_rx_chain fence (§3.1.3)",
        )
        self._ctx_order.expect(notification.context_id, notification)

    def _on_ctx_event(self, kind, item):
        # Control-plane notifications (NOTIFY_ERROR from the recovery
        # timers) bypass the pipeline and its ordering contract.
        if kind != "notify" or self.dp.crashed or item.error is not None:
            return
        self._arrive(
            self._ctx_order, item.context_id, item,
            "delivered out of per-context ctx_ring", "ARX chain fence",
        )
        self._undelivered.pop(id(item), None)

    def _on_retire(self, work):
        """``work`` leaves the pipeline early: nothing of it will arrive."""
        self._proto_order.discard(work.record, work)
        for notification in work.notify or ():
            self._notif_order.discard(self._notif_key(notification), notification)
            self._undelivered.pop(id(notification), None)
        if work.ack_frame is not None:
            self._ack_requirements.pop(id(work.ack_frame), None)

    def _on_wire_commit(self, frame):
        if self.dp.crashed:
            return
        _frame, notifications = self._ack_requirements.pop(id(frame), (None, ()))
        for notification in notifications:
            # A context that was never registered cannot deliver; the
            # rule is about host-visible notifications.
            if (
                self._undelivered.pop(id(notification), None) is not None
                and self.dp.contexts.get(notification.context_id) is not None
            ):
                raise HBViolationError(
                    "hb-monitor: ACK frame committed to the wire before "
                    "its segment's {!r} was host-visible: write-ahead "
                    "rule violated (crash recovery unsound)".format(notification)
                )
