"""The three ways a caller drives the kernel, for the oracle tests that
run one program each way against a reference. A drive logs ``(now,
DRIVER, mark)`` where a run hands control back to its caller: whatever
ran by then is what the caller could observe, so a run that went on past
its deadline or its target shows in the transcript."""

DRIVER = "driver"


def by_run(sim, _target, _slices, _log):
    sim.run()


def by_slices(sim, _target, slices, log):
    for horizon in slices:  # any order; a horizon in the past is skipped
        if horizon >= sim.now:
            sim.run(until=horizon)
            assert sim.now == horizon
            log.append((sim.now, DRIVER, "horizon"))
    sim.run()


def by_event(sim, target, _slices, log):
    sim.run(until=target)
    log.append((sim.now, DRIVER, "target"))
    sim.run()


DRIVES = (by_run, by_slices, by_event)


def unmarked(log):
    """``log`` without the drive's marks: the run itself, which must not
    depend on how it was driven."""
    return tuple(entry for entry in log if entry[1] != DRIVER)
