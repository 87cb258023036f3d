"""Deterministic adversarial traffic generators.

An :class:`Attacker` is a *raw* station on the switch — no NIC model, no
control plane, no libTOE — that crafts frames directly, the way a
DPDK/scapy attack box would. Every generator is a simulation process
driven by a seeded :class:`random.Random`, so a given (seed, rate,
count) triple replays the identical packet sequence; every injected
frame is recorded in an :class:`AttackLog` for post-mortem artifacts.

Generators (paper-level threat model, ROADMAP item 3):

* :meth:`Attacker.syn_flood` — pure SYNs from a bounded pool of spoofed
  source IPs; exhausts server handshake state, never completes.
* :meth:`Attacker.conn_churn` — full handshake, then immediate RST;
  burns connection setup/teardown (slab slots, buffers) at line rate.
* :meth:`Attacker.rst_storm` — blind RSTs (or bare ACKs) spoofed into
  *established* victim flows; tests the RFC 5961 window check and the
  challenge-ACK rate limit.
* :meth:`Attacker.incast` — synchronized bursts of flag-less junk from
  many spoofed sources; overruns switch queues and, unchecked, the
  control plane's RST reflection amplifies it.

Mixing with benign load is a rate ratio: run a generator whose packet
interval is ``benign_interval / ratio`` next to a normal memtier/echo
workload on the same testbed (:func:`attack_interval_ns`).
"""

import random

from repro.proto import make_tcp_frame
from repro.proto.tcp import FLAG_ACK, FLAG_RST, FLAG_SYN

_MASK = 0xFFFFFFFF


def attack_interval_ns(benign_interval_ns, ratio):
    """Packet interval giving ``ratio`` attack packets per benign one."""
    return max(1, int(benign_interval_ns / ratio))


class AttackLog:
    """Append-only record of every injected frame (CI artifact)."""

    def __init__(self):
        self.events = []
        self.counts = {}

    def note(self, kind, **fields):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.events.append(dict(fields, kind=kind))

    def to_jsonable(self):
        return {"counts": dict(self.counts), "events": self.events}


class Attacker:
    """A raw frame injector bound to one switch station.

    The station's own MAC/IP are real (replies route back to us even
    for spoofed *IP* sources, since the server learns IP->MAC from the
    frames themselves), which also means per-source-IP detection at the
    NIC sees the same bounded, seeded spoof pool on every run.
    """

    def __init__(self, sim, station, target_ip, target_mac, target_port, seed=0, log=None):
        self.sim = sim
        self.station = station
        self.target_ip = target_ip
        self.target_mac = target_mac
        self.target_port = target_port
        self.rng = random.Random(seed)
        self.log = log if log is not None else AttackLog()
        self.sent = 0
        self.synacks_seen = 0
        self.rsts_received = 0
        self.stop = False
        #: sport -> callback(frame) for handshakes we must answer.
        self._responders = {}
        station.port.receiver = self._on_frame

    # -- plumbing ----------------------------------------------------------

    def _on_frame(self, frame):
        if frame.tcp is None:
            return
        if frame.tcp.flags & FLAG_RST:
            # Reflection measurement: every RST the target bounces back
            # at us (policy refusals, junk-triggered resets) lands here
            # because spoofed sources still carry our station MAC.
            self.rsts_received += 1
        handler = self._responders.get(frame.tcp.dport)
        if handler is not None:
            handler(frame)

    def _send(self, frame, kind, **fields):
        self.sent += 1
        self.log.note(kind, at=self.sim.now, **fields)
        self.station.port.send(frame)

    def _frame(self, src_ip, sport, **kwargs):
        return make_tcp_frame(
            self.station.mac,
            self.target_mac,
            src_ip,
            self.target_ip,
            sport,
            self.target_port,
            born_at=self.sim.now,
            **kwargs
        )

    def _spoofed_sources(self, pool_size):
        """Deterministic spoofed source pool: 10.0.201.x upward."""
        base = (10 << 24) | (201 << 16)
        return [base + i for i in range(pool_size)]

    # -- generators (sim processes) ----------------------------------------

    def syn_flood(self, n_packets, interval_ns, src_pool=64):
        """Pure SYNs from ``src_pool`` spoofed sources, never ACKed."""
        sources = self._spoofed_sources(src_pool)
        for _ in range(n_packets):
            if self.stop:
                return
            src = self.rng.choice(sources)
            sport = self.rng.randrange(1024, 65535)
            syn = self._frame(
                src, sport, seq=self.rng.getrandbits(32), flags=FLAG_SYN, window=0xFFFF
            )
            self._send(syn, "syn", src=src, sport=sport)
            yield self.sim.timeout(interval_ns)

    def conn_churn(self, n_cycles, interval_ns):
        """Open/RST cycles: handshake completes, then immediate RST."""
        for cycle in range(n_cycles):
            if self.stop:
                return
            sport = 2000 + (cycle % 60000)
            iss = self.rng.getrandbits(32)
            self._responders[sport] = self._churn_responder(sport, iss)
            syn = self._frame(
                self.station.ip, sport, seq=iss, flags=FLAG_SYN, window=0xFFFF
            )
            self._send(syn, "churn-syn", sport=sport)
            yield self.sim.timeout(interval_ns)

    def _churn_responder(self, sport, iss):
        def on_frame(frame):
            tcp = frame.tcp
            if not (tcp.flags & FLAG_SYN and tcp.flags & FLAG_ACK):
                return
            self._responders.pop(sport, None)
            self.synacks_seen += 1
            seq = (iss + 1) & _MASK
            ack = (tcp.seq + 1) & _MASK
            self._send(
                self._frame(self.station.ip, sport, seq=seq, ack=ack, flags=FLAG_ACK),
                "churn-ack",
                sport=sport,
            )
            self._send(
                self._frame(
                    self.station.ip, sport, seq=seq, ack=ack, flags=FLAG_RST | FLAG_ACK
                ),
                "churn-rst",
                sport=sport,
            )

        return on_frame

    def rst_storm(self, victims, n_packets, interval_ns, mode="rst", window_spread=4096, seq_base=0):
        """Blind RSTs (or bare ACKs) spoofed into established flows.

        ``victims`` is a list of server-side four-tuples
        ``(server_ip, client_ip, server_port, client_port)``; the storm
        forges the client side. Sequence numbers are sprayed over
        ``seq_base + [1, window_spread)``. A real blind attacker sprays
        from a guess; tests pin ``seq_base`` near the victim's rcv_nxt
        so the packets land in-window-but-inexact — the RFC 5961 case
        that must produce rate-limited challenge ACKs, not teardowns.
        """
        flags = FLAG_RST | FLAG_ACK if mode == "rst" else FLAG_ACK
        for _ in range(n_packets):
            if self.stop:
                return
            server_ip, client_ip, server_port, client_port = self.rng.choice(victims)
            seq = (seq_base + self.rng.randrange(1, window_spread)) & _MASK
            forged = make_tcp_frame(
                self.station.mac,
                self.target_mac,
                client_ip,
                server_ip,
                client_port,
                server_port,
                seq=seq,
                ack=self.rng.getrandbits(32),
                flags=flags,
                born_at=self.sim.now,
            )
            self._send(forged, "storm-" + mode, src=client_ip, seq=seq)
            yield self.sim.timeout(interval_ns)

    def incast(self, n_bursts, burst_size, interval_ns, src_pool=32, junk_size=64):
        """Synchronized junk bursts from many spoofed sources.

        The frames carry payload but none of SYN/ACK/RST — nothing a
        real endpoint emits — so with the detector off they fall through
        connection lookup into the control plane, whose per-frame RST
        reflection doubles the incast load on the switch queue.
        """
        sources = self._spoofed_sources(src_pool)
        junk = b"\x00" * junk_size
        for _ in range(n_bursts):
            if self.stop:
                return
            for src in sources:
                for _ in range(burst_size):
                    frame = self._frame(
                        src,
                        self.rng.randrange(1024, 65535),
                        seq=self.rng.getrandbits(32),
                        flags=0,
                        payload=junk,
                    )
                    self._send(frame, "incast-junk", src=src)
            yield self.sim.timeout(interval_ns)
