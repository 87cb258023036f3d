"""Topology builder: stations attached to one switch (the paper testbed)."""

from repro.net.link import Link, Port
from repro.net.switch import Switch


class Station:
    """One attachment: the host-side port plus addressing."""

    __slots__ = ("name", "mac", "ip", "port", "switch_port")

    def __init__(self, name, mac, ip, port, switch_port):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.port = port
        self.switch_port = switch_port


class Topology:
    """A single-switch star topology.

    ::

        topo = Topology(sim)
        a = topo.attach("server", mac=1, ip=ip("10.0.0.1"))
        a.port.receiver = my_nic.handle_rx
    """

    def __init__(self, sim, switch=None, link_rate_bps=40_000_000_000, link_delay_ns=500):
        self.sim = sim
        self.switch = switch or Switch(sim)
        self.link_rate_bps = link_rate_bps
        self.link_delay_ns = link_delay_ns
        self.stations = {}

    def attach(self, name, mac, ip, rate_bps=None, config=None):
        """Attach a station to the switch; returns a :class:`Station`."""
        if name in self.stations:
            raise ValueError("duplicate station name {!r}".format(name))
        host_port = Port(self.sim, name="{}.nic".format(name))
        switch_port = self.switch.new_port(mac=mac, config=config)
        Link(
            self.sim,
            host_port,
            switch_port,
            rate_bps=rate_bps or self.link_rate_bps,
            prop_delay_ns=self.link_delay_ns,
        )
        station = Station(name, mac, ip, host_port, switch_port)
        self.stations[name] = station
        return station
