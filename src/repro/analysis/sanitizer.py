"""Opt-in runtime ownership sanitizer for partitioned connection state.

This is the check of Table 5 ownership for whatever actually executes,
extension modules and dynamic dispatch included: a stage process carries
its class's ``STAGE_KIND``, and the partition named like a kind is
written by that kind only. (The ``hb-race`` lint judges the same
declaration statically, for the hazards a run does not reach; the hazard
matrix in ``tests/analysis/test_hazard_matrix.py`` says which.) With
``REPRO_SANITIZE=1`` (or a programmatic :func:`install`):

* every partition of a connection installed in a connection table
  (:class:`~repro.flextoe.state.PreprocState`,
  :class:`~repro.flextoe.state.ProtocolState`,
  :class:`~repro.flextoe.state.PostprocState`) is registered with its
  owning flow group;
* every data-path stage process runs wrapped so the sanitizer knows
  which stage kind (and flow group) is executing between yields —
  the simulator is single-threaded, so the currently-resumed process
  is exactly the code performing a write;
* instrumented ``__setattr__`` enforces Table 5 ownership:
  ``PreprocState`` is immutable once registered (the identification
  partition is control-plane-installed); ``ProtocolState`` accepts
  writes only from the atomic protocol stage of the owning flow group;
  ``PostprocState`` accepts writes only from the owning group's post
  stage (or the run-to-completion worker, which executes the post logic
  inline under its ``proto`` token).

It also checks what the kernel takes or runs on the spot (DESIGN §12 rule
3): a process raises when it took a ``request()``, ``get()``, ``timeout()``
or engine hold (``thread.compute``, ``core.run``) on the spot and yielded
something else next or made another first; an engine step raises when it
would run in place (``Simulator._next_in_line``) inside a process's resume.

Writes to Protocol/Postproc state with no stage context (control-plane
setup and polls, tests constructing state directly) are allowed: the
invariant being enforced is data-path stage ownership, not
construction. Pre-processor state is stricter — after registration any
write raises, stage context or not.

The hooks are deliberately cheap no-ops when not installed, so the
production path pays one module-level boolean check at datapath
construction and nothing per packet.
"""

import functools
import os

#: Kind of the atomic stage. The run-to-completion worker executes every
#: stage's logic inline under this token.
PROTO_STAGE = "proto"
#: How the error names the one writer Table 5 gives a partition.
_OWNER = {"proto": "the atomic protocol stage", "post": "the owning post stage"}

_OWNER_STACK = []
# (partition class, slab slot) -> flow_group. Keyed by storage identity,
# not view identity: partition views are flyweights, a connection
# installed as a row has none until first touched, and any view of the
# slot must carry the same ownership token. Entries are
# dropped on unregister (connection removal) or uninstall.
_REGISTRY = {}
_MISSING = object()
_installed = False
# class -> original __setattr__, for uninstall.
_original_setattrs = {}
# The kernel's Process._resume, Simulator._grant_on_the_spot and
# Simulator._next_in_line, for uninstall.
_plain_resume = _plain_grant = _plain_next_in_line = None


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
    """Instrument the three partition classes' ``__setattr__`` and the
    kernel's three on-the-spot methods (idempotent)."""
    global _installed, _plain_resume, _plain_grant, _plain_next_in_line
    if _installed:
        return
    from repro.flextoe.state import PostprocState, PreprocState, ProtocolState

    checks = (
        (PreprocState, _check_pre),
        (ProtocolState, functools.partial(_check_owned, "proto")),
        (PostprocState, functools.partial(_check_owned, "post")),
    )
    # Slot-keyed registrations must not outlive the slot: when a
    # connection record is garbage collected its slab slot recycles, and
    # a stale entry would pin the old ownership onto the next tenant.
    # And a slot handed out must be the all-zero row: an install writes
    # only the fields that start elsewhere.
    from repro.flextoe.state import CONN_SLAB

    CONN_SLAB.on_free = unregister_row
    CONN_SLAB.on_alloc = functools.partial(_check_zeroed, CONN_SLAB)

    for cls, check in checks:
        original = cls.__setattr__
        _original_setattrs[cls] = original

        def _guarded_setattr(self, name, value, _original=original, _check=check):
            # Underscored names are the flyweight binding machinery
            # (_i/_own in SlabView.view()), not partition data.
            if not name.startswith("_"):
                owning_group = _REGISTRY.get(_registry_key(self), _MISSING)
                if owning_group is not _MISSING:
                    _check(self, name, owning_group)
            _original(self, name, value)

        cls.__setattr__ = _guarded_setattr

    # Processes bind their resume once, at creation (Process._resume_cb).
    from repro.sim.core import Process, Simulator

    _plain_resume, _plain_grant, _plain_next_in_line = (
        Process._resume, Simulator._grant_on_the_spot, Simulator._next_in_line)
    Process._resume, Simulator._grant_on_the_spot, Simulator._next_in_line = (
        _resume_checking_grants, _grant_checking_spot, _next_in_line_checking_dispatch)
    _installed = True


_AT_ONCE = "a request(), get() or timeout() is yielded at once"


def _resume_checking_grants(process, event):
    _plain_resume(process, event)
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
    return _plain_grant(sim, event, value, when)


def _next_in_line_checking_dispatch(sim, when, callback=None):
    # An engine step (no callback) runs in place only in its own dispatch.
    if callback is None and sim._active_process is not None:
        raise SanitizerError("an engine step asked to run in place at {} from inside process {!r}'s resume: "
                             "push an operation's first step where it is issued".format(when, sim._active_process.name))
    return _plain_next_in_line(sim, when, callback)


def uninstall():
    """Remove the instrumentation and forget all registrations."""
    global _installed
    if not _installed:
        return
    from repro.flextoe.state import CONN_SLAB
    from repro.sim.core import Process, Simulator

    Process._resume, Simulator._grant_on_the_spot, Simulator._next_in_line = (
        _plain_resume, _plain_grant, _plain_next_in_line)
    CONN_SLAB.on_free = CONN_SLAB.on_alloc = None
    for cls, original in _original_setattrs.items():
        cls.__setattr__ = original
    _original_setattrs.clear()
    _installed = False
    _REGISTRY.clear()
    del _OWNER_STACK[:]


def register_row(slot, flow_group):
    """Declare the connection row at ``slot`` owned by ``flow_group``
    (at install): its three partitions, whichever views touch them."""
    for cls in _original_setattrs:
        _REGISTRY[(cls, slot)] = flow_group


def unregister_row(slot):
    """Drop the row's registrations (at teardown, and when its slot is
    freed: the next tenant must not inherit the old ownership)."""
    for cls in _original_setattrs:
        _REGISTRY.pop((cls, slot), None)


def _check_zeroed(slab, slot):
    dirty = slab.dirty_fields(slot)
    if dirty:
        raise SanitizerError("{} slab: alloc() handed out slot {} with stale {}".format(
            slab.name, slot, ", ".join(dirty)))


def _registry_key(state):
    return (type(state), state._i)


def register(state, flow_group):
    """Declare ``state`` owned by ``flow_group`` (at connection install).

    Ownership attaches to the slab slot, so every view of that slot —
    whichever object first touches a row-installed connection — carries
    the same token.
    """
    _REGISTRY[_registry_key(state)] = flow_group


def unregister(state):
    _REGISTRY.pop(_registry_key(state), None)


def current_owner():
    """The (stage kind, flow group) currently executing, or None."""
    return _OWNER_STACK[-1] if _OWNER_STACK else None


def guard_process(generator, stage, flow_group=None):
    """Wrap a stage process so its execution carries ownership context.

    The wrapper sets the owner token whenever the inner generator's code
    runs and clears it while the process is suspended on an event, so
    concurrent (interleaved) stage processes never see each other's
    token. Exceptions thrown into the wrapper (e.g. simulator
    interrupts) are forwarded into the inner generator under the token.
    """
    token = (stage, flow_group)
    send_value = None
    thrown = None
    while True:
        _OWNER_STACK.append(token)
        try:
            if thrown is not None:
                exc, thrown = thrown, None
                item = generator.throw(exc)
            else:
                item = generator.send(send_value)
        except StopIteration as stop:
            return getattr(stop, "value", None)
        finally:
            _OWNER_STACK.pop()
        try:
            send_value = yield item
        except BaseException as exc:  # forwarded on the next resume
            thrown = exc
            send_value = None
