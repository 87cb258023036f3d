#!/usr/bin/env python
"""Connection splicing on the NIC (paper §3.3, Listing 1 / AccelTCP).

A proxy pattern: once the control plane installs a splice entry for a
connection pair, segments bounce off the SmartNIC's XDP stage — headers
rewritten, sequence numbers translated — without ever touching the host
or the TCP pipeline. This example pushes a burst through the spliced
path and reports the achieved packets-per-second on the NIC.

Run:  python examples/connection_splicing.py
"""

from repro.flextoe import FlexToeNic
from repro.flextoe.module import ModuleChain
from repro.net import Link, Port
from repro.proto import FLAG_ACK, make_tcp_frame, str_to_ip
from repro.sim import Simulator
from repro.xdp import XdpAdapter
from repro.xdp.builtins import SpliceEntry, splice_asm_program, splice_key
from repro.xdp.builtins.splice import SPLICE_FD


def main():
    sim = Simulator()
    program, maps = splice_asm_program()
    nic = FlexToeNic(sim, ingress_modules=ModuleChain([XdpAdapter(program, maps)]))

    wire = Port(sim, "wire")
    nic_port = Port(sim, "nic")
    Link(sim, wire, nic_port, rate_bps=40_000_000_000, prop_delay_ns=100)
    nic.attach_port(nic_port)

    returned = []
    last_arrival = {"t": 0}

    def on_return(frame):
        returned.append(frame)
        last_arrival["t"] = sim.now

    wire.receiver = on_return

    client_ip = str_to_ip("10.0.0.1")
    proxy_ip = str_to_ip("10.0.0.2")
    backend_ip = str_to_ip("10.0.0.3")

    # The control plane terminated both legs and configured the splice:
    # client->proxy segments are rewritten into proxy->backend segments.
    key = splice_key(client_ip, proxy_ip, 33000, 80)
    entry = SpliceEntry(
        remote_mac=0xBACCED,
        remote_ip=backend_ip,
        local_port=41000,
        remote_port=8080,
        seq_delta=555_000,
        ack_delta=777_000,
    )
    maps[SPLICE_FD].update(key, entry.pack())
    print("installed splice: client:33000 -> proxy:80  ==>  proxy:41000 -> backend:8080")

    n = 500
    for i in range(n):
        frame = make_tcp_frame(
            0xC11E27, 0xBB, client_ip, proxy_ip, 33000, 80,
            seq=1000 + i * 100, ack=2000, flags=FLAG_ACK, payload=b"x" * 100,
        )
        wire.send(frame)
    sim.run(until=10_000_000)

    sample = returned[0]
    print("spliced %d/%d segments in %.1f us of simulated time" % (
        len(returned), n, last_arrival["t"] / 1e3))
    print("first rewritten segment: dst_ip=%s ports=%d->%d seq=%d" % (
        "10.0.0.3" if sample.ip.dst == backend_ip else "??",
        sample.tcp.sport, sample.tcp.dport, sample.tcp.seq))
    elapsed_s = max(1, last_arrival["t"]) / 1e9
    print("effective splice rate: %.2f Mpps (paper: 6.4 Mpps at line rate)" % (
        len(returned) / elapsed_s / 1e6))


if __name__ == "__main__":
    main()
