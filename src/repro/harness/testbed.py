"""Builds the paper's testbed (§5) in simulation.

A :class:`Testbed` is the switch plus attached hosts. Each host can run
any of the four stacks; :class:`FlexToeHost` bundles machine + FlexTOE
NIC + control plane + libTOE contexts. Baseline-stack hosts are built by
:mod:`repro.baselines`.
"""

from repro.control import ControlPlane
from repro.flextoe import FlexToeNic
from repro.flextoe.config import PipelineConfig
from repro.host import Machine
from repro.libtoe import LibToeContext
from repro.net import Switch, Topology
from repro.proto import str_to_ip, str_to_mac
from repro.sim import RngPool, Simulator


class FlexToeHost:
    """A machine with a FlexTOE-offloaded NIC and its control plane."""

    def __init__(self, sim, testbed, name, mac, ip, pipeline_config=None, n_cores=20, cp_kwargs=None, **attach_kwargs):
        self.sim = sim
        self.name = name
        self.mac = mac
        self.ip = ip
        self.machine = Machine(sim, name, n_cores=n_cores)
        self.nic = FlexToeNic(sim, config=pipeline_config or PipelineConfig.full())
        station = testbed.topology.attach(name, mac=mac, ip=ip, **attach_kwargs)
        self.station = station
        self.nic.attach_port(station.port)
        self.control_plane = ControlPlane(
            sim, self.nic, self.machine, local_mac=mac, local_ip=ip, **(cp_kwargs or {})
        )
        self.control_plane.enable_recovery(station)
        self._next_context = 1
        self.contexts = []

    def new_context(self, core_index=0):
        """A libTOE context pinned to one of this machine's cores."""
        ctx = LibToeContext(
            self.sim,
            self.machine.cores[core_index],
            self.nic,
            self.control_plane,
            context_id=self._next_context,
        )
        self._next_context += 1
        self.contexts.append(ctx)
        return ctx


class Testbed:
    """One switch; hosts attach by name with auto-assigned addresses."""

    def __init__(self, sim=None, seed=0, switch=None, link_rate_bps=40_000_000_000, link_delay_ns=500):
        self.sim = sim or Simulator()
        self.rng = RngPool(seed=seed)
        self.switch = switch or Switch(self.sim, rng=self.rng.stream("switch"))
        self.topology = Topology(
            self.sim, switch=self.switch, link_rate_bps=link_rate_bps, link_delay_ns=link_delay_ns
        )
        self.hosts = {}
        self.fault_controllers = []
        self._next_host = 1

    def addresses(self):
        n = self._next_host
        self._next_host += 1
        mac = str_to_mac("02:00:00:00:00:00") + n
        ip = str_to_ip("10.0.0.0") + n
        return mac, ip

    def add_flextoe_host(self, name, pipeline_config=None, n_cores=20, cp_kwargs=None, **attach_kwargs):
        mac, ip = self.addresses()
        host = FlexToeHost(
            self.sim,
            self,
            name,
            mac,
            ip,
            pipeline_config=pipeline_config,
            n_cores=n_cores,
            cp_kwargs=cp_kwargs,
            **attach_kwargs
        )
        self.hosts[name] = host
        return host

    def add_host(self, name, host):
        """Register an externally built (baseline-stack) host."""
        self.hosts[name] = host
        return host

    def seed_all_arp(self):
        """Pre-populate every host's ARP table (skips ARP round trips in
        experiments that are not about connection setup)."""
        entries = [(h.ip, h.mac) for h in self.hosts.values() if hasattr(h, "ip")]
        for host in self.hosts.values():
            seed = getattr(getattr(host, "control_plane", None), "seed_arp", None) or getattr(
                host, "seed_arp", None
            )
            if seed is None:
                continue
            for ip, mac in entries:
                seed(ip, mac)

    def install_fault_plan(self, plan, log=None):
        """Install a :class:`repro.faults.FaultPlan` on this testbed.

        Call after every host has been attached (target resolution reads
        ``hosts``/``topology.stations`` at install time). Returns the
        live :class:`~repro.faults.controller.FaultController`; its
        ``log`` carries the deterministic injection record.
        """
        controller = plan.install(self, log=log)
        self.fault_controllers.append(controller)
        return controller

    def run(self, until=None):
        return self.sim.run(until=until)


#: The four stacks a host can run.
STACKS = ("flextoe", "linux", "tas", "chelsio")


def build_host(bed, stack, name, **kwargs):
    """A ``stack`` host named ``name`` on ``bed``; ``kwargs`` go to its builder."""
    if stack not in STACKS:
        raise ValueError("unknown stack {!r}; known: {}".format(stack, ", ".join(STACKS)))
    if stack == "flextoe":
        return bed.add_flextoe_host(name, **kwargs)
    from repro.baselines import add_chelsio_host, add_linux_host, add_tas_host  # only a baseline host needs them

    return {"linux": add_linux_host, "tas": add_tas_host, "chelsio": add_chelsio_host}[stack](bed, name, **kwargs)
