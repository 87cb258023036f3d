"""Opt-in runtime ownership sanitizer for partitioned connection state.

This is the check of Table 5 ownership for whatever actually executes,
extension modules and dynamic dispatch included: a stage process carries
its class's ``STAGE_KIND``, and the partition named like a kind is
written by that kind only. (The ``hb-race`` lint judges the same
declaration statically, for the hazards a run does not reach; the hazard
matrix in ``tests/analysis/test_hazard_matrix.py`` says which.) With
``REPRO_SANITIZE=1`` (or a programmatic :func:`install`):

* a connection's partitions (``PreprocState``, ``ProtocolState``,
  ``PostprocState``) are guarded while its row is installed (``active``)
  and owned by the row's ``flow_group``: the owner is read off the row;
* every data-path chain's resume runs wrapped (:func:`guard`), so the
  sanitizer knows which stage kind (and flow group) each step runs
  under: the simulator is single-threaded;
* instrumented ``__setattr__`` enforces Table 5 ownership: pre state is
  immutable once installed, even with no stage running; proto state
  is written only by the owning group's protocol stage, post state only
  by its post stage (or the run-to-completion worker, under its
  ``proto`` token). With no stage running (control-plane setup and
  polls, tests) proto and post writes pass: construction is not a race.

It also checks what the kernel takes or runs on the spot (DESIGN §12 rule
3): a process raises when it took a ``request()``, ``get()``, ``timeout()``
or engine hold (``core.run``, a ``Hold``) on the spot and yielded
something else next or made another first; an engine step raises when it
would run in place (``_next_in_line``) in a process's resume; and the
same-instant queue raises when an entry joins it not at ``(now, NORMAL)``
or under a key not above the last one's, when ``now`` has moved past what
it holds, or when a heap entry that does not sort before its head is
dispatched. Uninstalled, it costs one check at construction.
"""

import functools
import os
import sys

from repro.sim import core

#: Kind of the atomic stage. The run-to-completion worker executes every
#: stage's logic inline under this token.
PROTO_STAGE = "proto"
#: How the error names the one writer Table 5 gives a partition.
_OWNER = {"proto": "the atomic protocol stage", "post": "the owning post stage"}

_OWNER_STACK = []
_installed = False
# class -> original __setattr__, for uninstall.
_original_setattrs = {}
# Name -> the kernel's own method that a check wraps.
_PLAIN = {}


class SanitizerError(AssertionError):
    """A data-path write violated stage or flow-group ownership."""


def enabled():
    return _installed


def maybe_install_from_env():
    """Install when ``REPRO_SANITIZE`` is set to a truthy value."""
    if os.environ.get("REPRO_SANITIZE", "0") not in ("", "0"):
        install()
    return _installed


def _check_pre(self, name, owning_group):
    raise SanitizerError("write to PreprocState.{} (flow group {}): the identification partition is "
                         "installed by the control plane and immutable".format(name, owning_group))


def _check_owned(partition, self, name, owning_group):
    """Table 5: the partition named like a stage kind is written by that
    kind only, and only by the owning flow group's instance."""
    if not _OWNER_STACK:
        return  # control plane: construction, polls (take_cc_stats, fold_rtt_samples)
    stage, group = _OWNER_STACK[-1]
    # The run-to-completion worker runs the post logic inline under its
    # 'proto' token — the same serialized execution, not a race;
    # pipelined mode tags real post threads 'post'.
    if stage not in (partition, PROTO_STAGE):
        raise SanitizerError(
            "stage '{}' wrote {}.{} (flow group {}): only {} may mutate the "
            "{} partition".format(stage, type(self).__name__, name, owning_group, _OWNER[partition], partition)
        )
    if group is not None and group != owning_group:
        raise SanitizerError(
            "{} stage of flow group {} wrote {}.{} owned by flow group {}: "
            "cross-flow-group write".format(stage, group, type(self).__name__, name, owning_group)
        )


def install():
    """Instrument the three partition classes' ``__setattr__``, and the
    kernel's in-place methods and same-instant queue (idempotent)."""
    global _installed
    if _installed:
        return
    from repro.flextoe.state import CONN_SLAB, PostprocState, PreprocState, ProtocolState

    checks = (
        (PreprocState, _check_pre),
        (ProtocolState, functools.partial(_check_owned, "proto")),
        (PostprocState, functools.partial(_check_owned, "post")),
    )
    # A slot handed out must be the all-zero row: an install writes only
    # the fields that start elsewhere.
    CONN_SLAB.on_alloc = functools.partial(_check_zeroed, CONN_SLAB)
    # Column identity is stable across slab growth. Keyed by the slot:
    # views are flyweights, and any view of an installed row is guarded.
    active = CONN_SLAB.columns["active"]
    flow_groups = CONN_SLAB.columns["flow_group"]

    for cls, check in checks:
        original = cls.__setattr__
        _original_setattrs[cls] = original

        def _guarded_setattr(self, name, value, _original=original, _check=check):
            # Underscored names are the flyweight binding machinery
            # (_i/_own in SlabView.view()), not partition data.
            if not name.startswith("_") and active[self._i]:
                _check(self, name, flow_groups[self._i])
            _original(self, name, value)

        cls.__setattr__ = _guarded_setattr

    # Processes bind their resume once, at creation (Process._resume_cb).
    for owner, name, check in _KERNEL_CHECKS:
        _PLAIN.setdefault(name, getattr(owner, name))
        setattr(owner, name, check)
    _installed = True


_AT_ONCE = "a request(), get() or timeout() is yielded at once"


def _resume_checking_grants(process, event):
    _PLAIN["_resume"](process, event)
    sim = process.sim
    spot = sim._spot
    if spot is not None:
        sim._spot = None
        raise SanitizerError("process {!r} took {!r} on the spot but yielded something else "
                             "next: {}".format(process.name, spot, _AT_ONCE))


def _grant_checking_spot(sim, event, value, when):
    # A second event taken before the first is yielded would overwrite it
    # and hide it from the check above.
    spot = sim._spot
    if spot is not None:
        sim._spot = None
        raise SanitizerError("process {!r} took {!r} on the spot but made another event before yielding "
                             "it: {}".format(getattr(sim._active_process, "name", None), spot, _AT_ONCE))
    return _PLAIN["_grant_on_the_spot"](sim, event, value, when)


def _next_in_line_checking_dispatch(sim, when, callback=None):
    # An engine step (no callback) runs in place only in its own dispatch.
    if callback is None and sim._active_process is not None:
        raise SanitizerError("an engine step asked to run in place at {} from inside process {!r}'s resume: "
                             "push an operation's first step where it is issued".format(when, sim._active_process.name))
    return _PLAIN["_next_in_line"](sim, when, callback)


def _queue_checking_append(queue, entry):
    # The head runs where the heap would dispatch it only if every entry
    # is for (now, NORMAL) and the keys rise, as a heap's ties would.
    sim = queue.sim
    if entry[0] != sim.now or entry[1] != core.NORMAL:
        raise SanitizerError("{!r} queued for ({}, priority {}) at {}: the queue holds (now, NORMAL) "
                             "entries only".format(entry[3], entry[0], entry[1], sim.now))
    if queue:
        _check_not_passed(queue, queue[-1])
        if entry[2] <= queue[-1][2]:
            raise SanitizerError("{!r} queued under key {}, not above the last one's ({})".format(
                entry[3], entry[2], queue[-1][2]))
    _PLAIN["append"](queue, entry)


def _queue_checking_popleft(queue):
    return _check_not_passed(queue, _PLAIN["popleft"](queue))


def _check_not_passed(queue, entry):
    if entry[0] != queue.sim.now:
        raise SanitizerError("now moved to {} while the queue held {!r} for {}: an in-place advance must "
                             "find the queue empty".format(queue.sim.now, entry[3], entry[0]))
    return entry


def _pop_checking_merge(heap):
    # One sorted stream: what the heap yields while the queue holds entries sorts before its head.
    entry = _PLAIN["heappop"](heap)
    queue = sys._getframe(1).f_locals["self"]._queue  # popped by Simulator.run()
    if queue and not entry < queue[0]:
        raise SanitizerError("{!r} at {} dispatched from the heap before the queue's head {!r} at {}, which sorts "
                             "first".format(entry[3], entry[:3], queue[0][3], queue[0][:3]))
    return entry


#: (owner, name, check): the kernel's methods, rebound on their classes
#: and module as ``make ties`` and ``make opcodes`` rebind them (no flag).
_KERNEL_CHECKS = (
    (core.Process, "_resume", _resume_checking_grants),
    (core.Simulator, "_grant_on_the_spot", _grant_checking_spot),
    (core.Simulator, "_next_in_line", _next_in_line_checking_dispatch),
    (core._Queue, "append", _queue_checking_append),
    (core._Queue, "popleft", _queue_checking_popleft),
    (core, "heappop", _pop_checking_merge),
)


def uninstall():
    """Remove the instrumentation."""
    global _installed
    if not _installed:
        return
    from repro.flextoe.state import CONN_SLAB

    for owner, name, _check in _KERNEL_CHECKS:
        setattr(owner, name, _PLAIN[name])
    _PLAIN.clear()
    CONN_SLAB.on_alloc = None
    for cls, original in _original_setattrs.items():
        cls.__setattr__ = original
    _original_setattrs.clear()
    _installed = False
    del _OWNER_STACK[:]


def _check_zeroed(slab, slot):
    dirty = slab.dirty_fields(slot)
    if dirty:
        raise SanitizerError("{} slab: alloc() handed out slot {} with stale {}".format(
            slab.name, slot, ", ".join(dirty)))


def current_owner():
    """The (stage kind, flow group) currently executing, or None."""
    return _OWNER_STACK[-1] if _OWNER_STACK else None


class guard:
    """``resume`` (a chain's callback) run with the owner token ``(stage,
    flow_group)`` set: each step it runs carries it, and a wait clears it.
    The chain is the running process meanwhile, for the engine-step check.
    Slotted: every hardware thread of a sanitized testbed holds two."""

    __slots__ = ("resume", "token", "chain")

    def __init__(self, resume, stage, flow_group=None):
        self.resume = resume
        self.token = (stage, flow_group)
        self.chain = getattr(resume, "__self__", None)

    def __call__(self, entry):
        _OWNER_STACK.append(self.token)
        chain = self.chain
        if chain is not None:
            chain.sim._active_process = chain
        try:
            self.resume(entry)
        finally:
            if chain is not None:
                chain.sim._active_process = None
            _OWNER_STACK.pop()
