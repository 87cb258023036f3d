"""Control-plane connection splicing (paper §3.3 / Listing 1 / AccelTCP).

The XDP module does the per-segment work; this is the other half: a
proxy that has terminated two connections asks the control plane to
splice them. The control plane reads both connections' live data-path
state, computes the sequence/acknowledgment translation deltas, installs
both directions into the splice module's BPF map, and withdraws the
connections from the host — from then on segments bounce between client
and backend entirely on the NIC.

The map is the only thing the two halves share. The module atomically
deletes a direction's entry when it sees SYN/FIN/RST on it (Listing 1),
so the manager learns of a closed splice by finding a key gone, not by
a call out of the data path.

Splicing requires both connections to be quiescent (no unacknowledged
in-flight data), which a proxy achieves by draining before splicing.
"""

from repro.xdp.builtins.splice import SpliceEntry, splice_key


class SpliceError(Exception):
    pass


class SpliceManager:
    """Owns the splice module's BPF map on one FlexTOE NIC."""

    def __init__(self, control_plane, table):
        self.control_plane = control_plane
        self.table = table
        self.active = {}  # frozenset of conn indices -> (key_ab, key_ba)

    def splice(self, index_a, index_b):
        """Splice connection ``index_a`` (client side) with ``index_b``
        (backend side). Both must be established, offloaded, and idle."""
        nic = self.control_plane.nic
        record_a = nic.connection(index_a)
        record_b = nic.connection(index_b)
        if record_a is None or record_b is None:
            raise SpliceError("both connections must be offloaded")
        for record in (record_a, record_b):
            if record.proto.tx_sent:
                raise SpliceError("connection {} has in-flight data".format(record.index))

        a = record_a.proto
        b = record_b.proto
        mod = 1 << 32
        # client->backend: seq moves from A's receive stream to B's send
        # stream; ack moves from A's send stream to B's receive stream.
        entry_ab = SpliceEntry(
            remote_mac=record_b.pre.peer_mac,
            remote_ip=record_b.pre.peer_ip,
            local_port=record_b.pre.local_port,
            remote_port=record_b.pre.remote_port,
            seq_delta=(b.seq - a.ack) % mod,
            ack_delta=(b.ack - a.seq) % mod,
        )
        # backend->client: the inverse translation.
        entry_ba = SpliceEntry(
            remote_mac=record_a.pre.peer_mac,
            remote_ip=record_a.pre.peer_ip,
            local_port=record_a.pre.local_port,
            remote_port=record_a.pre.remote_port,
            seq_delta=(a.seq - b.ack) % mod,
            ack_delta=(a.ack - b.seq) % mod,
        )
        key_ab = self._incoming_key(record_a)
        key_ba = self._incoming_key(record_b)
        self.table.update(key_ab, entry_ab.pack())
        self.table.update(key_ba, entry_ba.pack())
        # The host is out of the loop: withdraw data-path state and
        # control-plane tracking for both connections.
        for index in (index_a, index_b):
            self.control_plane.directory.remove(index)
            nic.remove_connection(index)
        self.active[frozenset((index_a, index_b))] = (key_ab, key_ba)
        return key_ab, key_ba

    @staticmethod
    def _incoming_key(record):
        """BPF-map key matching segments *arriving* on this connection:
        (src=peer_ip, dst=local_ip, sport=remote_port, dport=local_port)."""
        return splice_key(
            record.pre.peer_ip,
            record.local_ip,
            record.pre.remote_port,
            record.pre.local_port,
        )

    @property
    def spliced_pairs(self):
        """Pairs still spliced in both directions. A pair the module
        closed (one direction's key is gone from the map) is withdrawn
        here: its other direction is deleted too."""
        live = set(self.table.keys())
        for pair, keys in list(self.active.items()):
            if not live.issuperset(keys):
                del self.active[pair]
                for key in keys:
                    self.table.delete(key)
        return len(self.active)
