"""Installs a fault plan on a testbed and drives spec lifecycles.

One :class:`FaultController` per installed plan. For each spec it:

1. derives a dedicated RNG stream ``faults.<plan>.<label>`` from the
   testbed's :class:`~repro.sim.RngPool` — identical seeds therefore
   yield identical fault event traces regardless of other streams;
2. resolves the spec's ``target`` to concrete simulation objects (the
   switch-wide wire injector, a station's link, a FlexTOE host, ...);
   targets that do not apply (e.g. a NIC fault aimed at a Linux host)
   are recorded in the injection log as ``skipped``, never an error —
   plans are meant to run unchanged across the whole interop matrix;
3. runs a scheduler process honoring ``start_ns``, ``duration_ns`` and
   the spec's ``tick_ns`` pulse period.
"""

from repro.faults.log import InjectionLog
from repro.faults.wire import WireFaultInjector
from repro.sim import Timeout


class FaultContext:
    """Per-spec runtime handle: RNG stream, log, and sim helpers."""

    def __init__(self, controller, spec, rng):
        self.controller = controller
        self.spec = spec
        self.rng = rng
        self.sim = controller.sim
        self.testbed = controller.testbed
        self.log = controller.log

    def log_event(self, action, target, detail=""):
        self.log.record(
            self.sim.now, self.controller.plan.name, self.spec.label, action, target, detail
        )

    def after(self, delay_ns, fn):
        """Run ``fn()`` after ``delay_ns`` of simulated time."""
        Timeout(self.sim, int(delay_ns)).callbacks.append(lambda _ev: fn())


class FaultController:
    """Runtime for one installed :class:`~repro.faults.plan.FaultPlan`."""

    def __init__(self, testbed, plan, log=None):
        self.testbed = testbed
        self.sim = testbed.sim
        self.plan = plan
        self.log = log if log is not None else InjectionLog()
        self.wire_injector = None
        self.contexts = []
        self._installed = False

    def install(self):
        """Resolve targets and start every spec's scheduler process."""
        if self._installed:
            raise RuntimeError("plan {!r} already installed".format(self.plan.name))
        self._installed = True
        if any(spec.layer == "wire" for spec in self.plan.specs):
            self.wire_injector = WireFaultInjector(protect_control=self.plan.protect_control)
            if self.testbed.switch.faults is not None:
                raise RuntimeError("switch already has a fault injector installed")
            self.testbed.switch.faults = self.wire_injector
        for spec in self.plan.specs:
            rng = self.testbed.rng.stream("faults.{}.{}".format(self.plan.name, spec.label))
            ctx = FaultContext(self, spec, rng)
            self.contexts.append(ctx)
            objs = self._resolve(ctx, spec)
            if not objs:
                continue
            self.sim.process(
                self._schedule(ctx, spec, objs),
                name="fault.{}.{}".format(self.plan.name, spec.label),
            )
        return self

    # -- target resolution --------------------------------------------------

    @staticmethod
    def _target_names(target):
        """None for switch-wide, "*" for all hosts, else one host name."""
        if target in ("*", None):
            return None
        for prefix in ("host:", "link:"):
            if target.startswith(prefix):
                return [target[len(prefix) :]]
        return [target]

    def _resolve(self, ctx, spec):
        """Return [(name, obj), ...] this spec acts on, logging skips."""
        if spec.layer == "wire":
            return [("switch", self.wire_injector)]
        names = self._target_names(spec.target)
        if spec.layer == "link":
            stations = self.testbed.topology.stations
            picked = names if names is not None else sorted(stations)
            return [(n, (n, stations[n].port.link)) for n in picked]
        hosts = self.testbed.hosts
        picked = names if names is not None else list(hosts)
        out = []
        for name in picked:
            host = hosts[name]
            if spec.layer == "nic" and getattr(host, "nic", None) is None:
                ctx.log_event("skipped", name, "no FlexTOE NIC for {}".format(spec.label))
                continue
            if spec.layer == "host" and getattr(host, "machine", None) is None:
                ctx.log_event("skipped", name, "no host machine for {}".format(spec.label))
                continue
            out.append((name, (name, host)))
        return out

    # -- lifecycle ----------------------------------------------------------

    def _schedule(self, ctx, spec, objs):
        if spec.start_ns > 0:
            yield self.sim.timeout(spec.start_ns)
        for name, obj in objs:
            if spec.layer == "wire":
                obj.add_effect(spec, ctx)
            else:
                spec.activate(ctx, obj)
        ctx.log_event("active", spec.target, self._window_str(spec))
        if spec.tick_ns:
            deadline = None if spec.duration_ns is None else self.sim.now + spec.duration_ns
            while deadline is None or self.sim.now < deadline:
                for _name, obj in objs:
                    spec.tick(ctx, obj)
                yield self.sim.timeout(spec.tick_ns)
        elif spec.duration_ns is not None:
            yield self.sim.timeout(spec.duration_ns)
        if spec.duration_ns is None and not spec.tick_ns:
            return  # steady-state until end of run
        for name, obj in objs:
            if spec.layer == "wire":
                obj.remove_effect(spec)
            else:
                spec.deactivate(ctx, obj)
        ctx.log_event("inactive", spec.target, "")

    @staticmethod
    def _window_str(spec):
        dur = "end" if spec.duration_ns is None else "{}ns".format(spec.duration_ns)
        tick = " tick={}ns".format(spec.tick_ns) if spec.tick_ns else ""
        return "for {}{}".format(dur, tick)
