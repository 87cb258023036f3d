"""ARP resolution for a host's port: the one resolver the FlexTOE control
plane and the baseline stacks share."""

from repro.libtoe.errors import ConnectRefusedError
from repro.net.switch import BROADCAST_MAC
from repro.proto import ARP_REPLY, ARP_REQUEST, ETHERTYPE_ARP, ArpHeader, EthernetHeader, Frame

#: How long :meth:`ArpResolver.resolve` waits for a reply.
TIMEOUT_NS = 5_000_000


class ArpResolver:
    """A host's ARP table (``table``: ip -> mac). It answers requests for
    ``ip`` and learns each sender; :meth:`resolve` sends one broadcast
    and waits 5 ms for the reply, on one kernel timer that the reply
    withdraws. ``transmit(frame)`` puts a frame on the wire."""

    __slots__ = ("sim", "mac", "ip", "transmit", "table", "_waiters")

    def __init__(self, sim, mac, ip, transmit):
        self.sim = sim
        self.mac = mac
        self.ip = ip
        self.transmit = transmit
        self.table = {}
        self._waiters = {}

    def handle(self, frame):
        arp = frame.arp
        if arp.op == ARP_REQUEST and arp.target_ip == self.ip:
            eth = EthernetHeader(dst=arp.sender_mac, src=self.mac, ethertype=ETHERTYPE_ARP)
            self.transmit(Frame(eth, arp=arp.reply(self.mac), born_at=self.sim.now))
            self.table[arp.sender_ip] = arp.sender_mac
        elif arp.op == ARP_REPLY:
            self.table[arp.sender_ip] = arp.sender_mac
            for done, timer in self._waiters.pop(arp.sender_ip, ()):
                self.sim._won(timer, done.succeed)

    def resolve(self, ip):
        """Generator: ``ip``'s MAC, or ConnectRefusedError when no reply
        came within 5 ms of the broadcast."""
        if ip in self.table:
            return self.table[ip]
        sim = self.sim
        request = ArpHeader.request(self.mac, self.ip, ip)
        eth = EthernetHeader(dst=BROADCAST_MAC, src=self.mac, ethertype=ETHERTYPE_ARP)
        self.transmit(Frame(eth, arp=request, born_at=sim.now))
        done = sim.event()
        self._waiters.setdefault(ip, []).append((done, sim._timer(sim.now + TIMEOUT_NS, done.succeed)))
        yield done
        if ip not in self.table:
            raise ConnectRefusedError("ARP resolution failed for {}".format(ip))
        return self.table[ip]
