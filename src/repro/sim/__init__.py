"""Discrete-event simulation kernel.

A small, fast, simpy-style engine: generator-based processes scheduled on
an event heap with integer-nanosecond timestamps. All higher layers of the
FlexTOE reproduction (NIC, host, network) are built on these primitives.
"""

from repro.sim.core import Event, Interrupt, Process, SimulationError, Simulator, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.clock import Clock, CYCLES_2GHZ, CYCLES_800MHZ, ns_to_us, us_to_ns
from repro.sim.rng import RngPool

__all__ = [
    "Clock", "CYCLES_2GHZ", "CYCLES_800MHZ", "RngPool", "Event", "Interrupt", "Process",
    "Resource", "SimulationError", "Simulator", "Store", "Timeout", "ns_to_us", "us_to_ns",
]
