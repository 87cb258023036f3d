"""The recovery watchdog on demand: a live board advances between any two
samples, so the watchdog schedules nothing until ``crash()`` freezes the
board, then computes the samples it skipped and samples on the grid it
always sampled on (DESIGN §11, §12 rule 2). The watchdog it replaced — a
process sampling every interval from construction on — is kept below as
the reference, and both are driven through the same crashes under live
traffic, so that the control plane's grid-poll ticks share the sample
instants: crashes on a sample instant, on a beat instant, inside the first
interval, right after a recovery and twice in a row must detect, recover
and deliver exactly as the reference does."""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.control import plane as plane_module
from repro.control.recovery import WATCHDOG_INTERVAL_NS, WATCHDOG_MISS_THRESHOLD, RecoveryManager
from repro.flextoe.datapath import HEARTBEAT_INTERVAL_NS
from repro.harness import Testbed
from repro.sim import Timeout

INTERVAL = WATCHDOG_INTERVAL_NS
BEAT = HEARTBEAT_INTERVAL_NS
#: The client sends a chunk this often, from the handshake to the end.
CHUNK, PACE_NS = 512, 20_000
END_NS = 3_500_000
#: Traffic is flowing by then; crash offsets count from it.
BASE_NS = 1_000_000

# -- the reference: the watchdog as it was ------------------------------------


class PollingRecovery(RecoveryManager):
    """Recovery whose watchdog samples the board every interval from
    construction on, whether the chip is live or not."""

    def _watch_board(self):
        return None

    def _watchdog_loop(self, _freeze):
        last_total = None
        misses = 0
        while True:
            yield self.sim.timeout(WATCHDOG_INTERVAL_NS)
            if self.degraded:
                continue
            total = sum(self.nic.read_heartbeats().values())
            if last_total is not None and total == last_total:
                misses += 1
                if misses >= WATCHDOG_MISS_THRESHOLD:
                    misses = 0
                    last_total = None
                    self.watchdog_fired += 1
                    yield from self._recover()
                    continue
            else:
                misses = 0
            last_total = total


# -- one run --------------------------------------------------------------------


def run(manager, first_crash, second_crash):
    """Stream client -> server while the server's chip crashes at
    ``first_crash`` and again ``("after-crash", d)`` ns after that or
    ``("after-reboot", d)`` ns after the recovery's reboot; returns what
    recovery recorded and each receive's instant and bytes."""
    with mock.patch.object(plane_module, "RecoveryManager", manager):
        bed = Testbed(seed=3)
        server = bed.add_flextoe_host("server")
        client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    sim, nic = bed.sim, server.nic
    server_ctx, client_ctx = server.new_context(), client.new_context()
    delivered = []  # (instant, bytes) per receive

    def sink():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        while True:
            data = yield from server_ctx.recv(sock, 1 << 16)
            delivered.append((sim.now, len(data)))

    def source():
        sock = yield from client_ctx.connect(server.ip, 7000)
        while True:
            yield from client_ctx.send(sock, b"x" * CHUNK)
            yield sim.timeout(PACE_NS)

    def crasher():
        yield sim.timeout(first_crash)
        nic.crash()
        mode, delay = second_crash
        if mode == "after-crash":
            yield sim.timeout(delay)
            nic.crash()

    mode, delay = second_crash
    if mode == "after-reboot":
        reboot = nic.reboot

        def reboot_then_crash():
            reboot()
            if nic.reboots == 1:
                Timeout(sim, delay).callbacks.append(lambda _event: nic.crash())

        nic.reboot = reboot_then_crash
    sim.process(sink(), name="sink")
    sim.process(source(), name="source")
    sim.process(crasher(), name="crasher")
    sim.run(until=END_NS)
    recovery = server.control_plane.recovery
    return {
        "watchdog_fired": recovery.watchdog_fired,
        "last_detect_ns": recovery.last_detect_ns,
        "last_recovery_ns": recovery.last_recovery_ns,
        "recoveries": recovery.recoveries,
        "reoffloaded_connections": recovery.reoffloaded_connections,
        "delivered": delivered,
    }


def offsets(span=4 * INTERVAL):
    """An offset within ``span``: on a sample instant, on a beat instant,
    one nanosecond either side of one, or anywhere."""
    return st.one_of(
        st.integers(0, span // INTERVAL).map(lambda k: k * INTERVAL),
        st.integers(0, span // BEAT).map(lambda k: k * BEAT),
        st.tuples(st.integers(1, span // BEAT), st.sampled_from([-1, 1])).map(lambda kd: kd[0] * BEAT + kd[1]),
        st.integers(0, span),
    )


first_crashes = st.one_of(
    offsets().map(lambda offset: BASE_NS + offset),
    st.integers(1, INTERVAL - 1),  # inside the first interval: no sample taken yet
)
second_crashes = st.one_of(
    st.just(("none", 0)),
    st.tuples(st.just("after-crash"), offsets()),
    st.tuples(st.just("after-reboot"), offsets()),
)


@settings(max_examples=16, deadline=None)
@given(first_crashes, second_crashes)
@example(BASE_NS, ("none", 0))
@example(BASE_NS + BEAT, ("after-reboot", 0))
@example(BASE_NS + 1, ("after-crash", 4 * INTERVAL))
@example(INTERVAL // 2, ("after-reboot", INTERVAL))
def test_on_demand_watchdog_is_the_polling_one(first_crash, second_crash):
    expected = run(PollingRecovery, first_crash, second_crash)
    assert expected["recoveries"] >= 1 and sum(n for _, n in expected["delivered"]) > 0
    assert run(RecoveryManager, first_crash, second_crash) == expected
