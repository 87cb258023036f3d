"""Whole-program happens-before analyzer for the stage pipeline (§3.1-3.2).

FlexTOE replaces per-connection locks with *structural* ordering: work
items flow through FIFO rings, sequencers hand out per-domain tickets,
replicated stages serialize per-key emissions behind keyed fences
(``KeyedFence``), and the one atomic stage serializes per-connection protocol
updates. That discipline is invisible to a conventional race detector —
nothing is ever locked — so this module checks it statically, from the
AST, as a happens-before model:

* **stage graph** — declared, not inferred: every class carrying a
  ``STAGE_KIND`` anchor is a pipeline stage and ``REPLICATED`` marks
  those whose program runs on several FPC threads concurrently (read off
  the shared :class:`~repro.analysis.stagelint.Program`);
  ``FlexToeDatapath.SEQR_DOMAINS`` and ``RINGS`` — imported, the very
  objects assembly wires by — name the sequencer→GRO domains, the ring
  each kind drains (its pipeline position) and the rings whose per-key
  FIFO order is a delivery contract.
* **hb-race pass** — per connection-state field, the union of stage
  kinds that read or write it (through arbitrary helper call depth,
  reusing :mod:`repro.analysis.stagelint`'s interprocedural
  summaries). Cross-stage HB edges order *adjacent work items*, never
  all instances of two stages (stage T on segment k runs concurrently
  with stage W on segment k+1), so a shared field is safe only when it
  is **immutable** (no stage writes), **owned** (one stage kind), or
  **atomic** (declared commutative in ``state.atomic()``). Anything
  else is an ``hb-race``: cross-stage dataflow must ride the work item.
* **ordering pass** — protocol obligations of the ordering devices:

  - ``unfenced-ordered-emit`` — a replicated stage emitting into an
    ordered ring (or calling ``nic_deliver``) outside a keyed fence
    (``turn = fence.enter(k); ...; yield turn.prev; <emit>;
    turn.leave()``). This is exactly the
    NOTIFY_RX reordering bug class: replicas finish out of order and
    libTOE stitches the stream wrong.
  - ``unsequenced-gro-offer`` — a stage offers into a reorder buffer
    whose sequencer ticket is only assigned *downstream* of it (the
    ticket must exist before parallelism can reorder the item).
  - ``ack-before-notify`` — the write-ahead rule (§3.1.3): a region
    that both emits notifications and offers the segment's ACK toward
    the wire must transfer the ACK onto a notification
    (``piggyback_ack``) so ARX releases it only after ``nic_deliver``;
    and an offer of a ``piggyback_ack`` alias must follow the
    ``nic_deliver`` call that made the notification host-visible.

The runtime monitor (:mod:`repro.analysis.hbmonitor`) validates observed
interleavings against the same ``RINGS`` table under ``REPRO_SANITIZE=1``.
"""

import ast
import os

from repro.analysis import stagelint
from repro.analysis.report import PASS_HB, PASS_ORDER, Finding
from repro.flextoe.datapath import FlexToeDatapath

SEQR_DOMAINS = FlexToeDatapath.SEQR_DOMAINS
#: Rings whose enqueue order is a per-key delivery contract -> the key.
ORDERED_RINGS = {ring: key for ring, (_kind, _producers, key) in FlexToeDatapath.RINGS.items() if key}
#: Pipeline position of each stage kind: that of the ring it drains.
STAGE_ORDER = {kind: index for index, (kind, _producers, _key) in enumerate(FlexToeDatapath.RINGS.values())}

#: Datapath entry code (``_on_mac_rx``, doorbell handlers) runs before
#: any stage: sequencer tickets assigned there precede the whole DAG.
ENTRY_INDEX = -1

VERDICT_IMMUTABLE = "immutable"
VERDICT_ATOMIC = "atomic"
VERDICT_OWNED = "owned"
VERDICT_RACE = "hb-race"


# -- hb-race: cross-stage field footprints ---------------------------------


def _better_site(current, candidate):
    """Prefer the shortest call chain, then the lowest line."""
    if current is None:
        return candidate
    if (len(candidate[3]), candidate[2]) < (len(current[3]), current[2]):
        return candidate
    return current


def stage_field_footprints(program):
    """Per connection-state field, which stage kinds read/write it.

    Returns ``{(partition, attr): {"writes": {kind: site},
    "reads": {kind: site}}}`` where a site is
    ``(qualname, filename, lineno, via)`` — the representative access
    (shortest helper chain) for findings. Only methods of classes
    bearing a ``STAGE_KIND`` anchor contribute: everything else
    (datapath control plane, partition classes, modules) is not a
    concurrent pipeline stage, and the stage-race/module lints already
    police those.
    """
    write_summaries, _cycles = stagelint.summarize(program)
    read_summaries = stagelint.summarize_reads(program)
    ownership = program.ownership
    fields = {}

    def _bucket(partition, attr, side):
        entry = fields.setdefault((partition, attr), {"writes": {}, "reads": {}})
        return entry[side]

    for qualname, info in program.items():
        kind = info.kind
        if kind is None:
            continue
        for token, attr, line, filename, _rmw, chain in write_summaries[qualname]:
            if token not in stagelint.PARTITIONS or ownership.get(attr) != token:
                continue
            via = (qualname,) + chain if chain else ()
            bucket = _bucket(token, attr, "writes")
            bucket[kind] = _better_site(bucket.get(kind), (qualname, filename, line, via))
        for token, attr, line, filename, chain in read_summaries[qualname]:
            if token not in stagelint.PARTITIONS or ownership.get(attr) != token:
                continue
            via = (qualname,) + chain if chain else ()
            bucket = _bucket(token, attr, "reads")
            bucket[kind] = _better_site(bucket.get(kind), (qualname, filename, line, via))
    return fields


def field_verdicts(program):
    """Judge every stage-touched connection-state field: returns
    ``{(partition, attr): (verdict, footprint)}``."""
    verdicts = {}
    for key, footprint in stage_field_footprints(program).items():
        partition, attr = key
        writer_kinds = set(footprint["writes"])
        all_kinds = writer_kinds | set(footprint["reads"])
        if not writer_kinds:
            verdict = VERDICT_IMMUTABLE
        elif program.registry.get(attr) == partition:
            verdict = VERDICT_ATOMIC
        elif len(all_kinds) == 1:
            verdict = VERDICT_OWNED
        else:
            verdict = VERDICT_RACE
        verdicts[key] = (verdict, footprint)
    return verdicts


def lint_hb(verdicts):
    """The ``hb-race`` pass over :func:`field_verdicts`: unordered
    cross-stage shared-field access."""
    findings = []
    for (partition, attr) in sorted(verdicts):
        verdict, footprint = verdicts[(partition, attr)]
        if verdict != VERDICT_RACE:
            continue
        for writer_kind in sorted(footprint["writes"]):
            writer_site = footprint["writes"][writer_kind]
            accesses = [
                ("writes", kind, site)
                for kind, site in footprint["writes"].items()
                if kind != writer_kind and kind > writer_kind
            ] + [
                ("reads", kind, site)
                for kind, site in footprint["reads"].items()
                if kind != writer_kind
            ]
            for verb, other_kind, site in sorted(accesses, key=lambda a: (a[1], a[0])):
                qualname, filename, line, via = site
                findings.append(
                    Finding(
                        PASS_HB,
                        filename,
                        line,
                        "hb-race",
                        "stage '{}' {} {}.{} which stage '{}' writes "
                        "(e.g. {}:{}): no happens-before edge orders the "
                        "access — queue FIFOs and seqr tickets order only "
                        "adjacent work items, so cross-stage data must ride "
                        "the work item, or the field must be owned, "
                        "immutable, or atomic()".format(
                            other_kind,
                            verb,
                            partition,
                            attr,
                            writer_kind,
                            os.path.basename(writer_site[1]),
                            writer_site[2],
                        ),
                        via=via,
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings


# -- ordering: fence / sequencer / write-ahead obligations ------------------


def _receiver_attr(node):
    """Last attribute of a call receiver: ``dp.dma_ring`` -> ``dma_ring``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _collect_fences(function):
    """Keyed-fence spans ``(yield_line, leave_line)`` in one function.

    The ``KeyedFence`` protocol: ``turn = <fence>.enter(key)`` at
    dequeue, later ``yield turn.prev``, finally ``turn.leave()``.
    Emissions strictly between the yield and the leave are ordered per
    key; a turn that never waits on its predecessor fences nothing.
    """
    entered, yields, leaves = set(), {}, {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "enter"
            ):
                entered.add(target.id)
        elif isinstance(node, ast.Yield):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "prev" and isinstance(value.value, ast.Name):
                yields[value.value.id] = node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "leave"
            and isinstance(node.func.value, ast.Name)
        ):
            leaves[node.func.value.id] = node.lineno
    return [
        (yields[turn], leaves[turn])
        for turn in sorted(entered & yields.keys() & leaves.keys())
        if yields[turn] < leaves[turn]
    ]


def _iter_calls(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            yield call


def _collect_ordered_emissions(function):
    """``(lineno, label)`` for emissions whose per-key order is contractual."""
    emissions = []
    for call in _iter_calls(function):
        method = call.func.attr
        if method in ("put", "force_put", "try_put"):
            ring = _receiver_attr(call.func.value)
            if ring in ORDERED_RINGS:
                emissions.append((call.lineno, ring))
        elif method == "nic_deliver":
            emissions.append((call.lineno, "nic_deliver"))
    return emissions


def _is_ack_value(node, ack_aliases):
    if isinstance(node, ast.Name):
        return node.id in ack_aliases
    return isinstance(node, ast.Attribute) and node.attr == "ack_frame"


def _kind_regions(function):
    """Bodies of the top-level ``work.kind`` dispatch, else the whole body.

    The write-ahead obligation is per work-kind: an RX segment's region
    moves notifications *and* the ACK, a TX region moves neither.
    """
    for statement in function.body:
        if not isinstance(statement, ast.If):
            continue
        mentions_kind = any(
            isinstance(node, ast.Attribute) and node.attr == "kind"
            for node in ast.walk(statement.test)
        )
        if not mentions_kind:
            continue
        regions = []
        node = statement
        while True:
            regions.append(node.body)
            orelse = node.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                node = orelse[0]
                continue
            if orelse:
                regions.append(orelse)
            break
        return regions
    return [function.body]


def _write_ahead_findings(function, filename):
    """``ack-before-notify``: the §3.1.3 write-ahead rule, both halves."""
    findings = []
    notification_rings = {ring for ring, key in ORDERED_RINGS.items() if key == "context"}
    gro_attrs = set(SEQR_DOMAINS.values())
    # O1: a region emitting notifications and offering the segment's ACK
    # must piggyback the ACK on a notification instead.
    for region in _kind_regions(function):
        ack_aliases = set()
        piggy_transfer = False
        notif_put = False
        ack_offers = []
        for statement in region:
            for node in ast.walk(statement):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "ack_frame"
                    ):
                        ack_aliases.add(target.id)
                    elif (
                        isinstance(target, ast.Attribute)
                        and target.attr == "piggyback_ack"
                        and _is_ack_value(node.value, ack_aliases)
                    ):
                        piggy_transfer = True
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    method = node.func.attr
                    receiver = _receiver_attr(node.func.value)
                    if method in ("put", "force_put") and receiver in notification_rings:
                        notif_put = True
                    elif (
                        method == "offer"
                        and receiver in gro_attrs
                        and node.args
                        and _is_ack_value(node.args[0], ack_aliases)
                    ):
                        ack_offers.append(node.lineno)
        if notif_put and ack_offers and not piggy_transfer:
            for line in ack_offers:
                findings.append(
                    Finding(
                        PASS_ORDER,
                        filename,
                        line,
                        "ack-before-notify",
                        "ACK offered toward the wire in a region that also "
                        "emits notifications: the write-ahead rule (§3.1.3) "
                        "requires the ACK to ride piggyback_ack so it is "
                        "released only after nic_deliver — a crash between "
                        "wire ACK and host notification loses delivered "
                        "bytes the peer will never retransmit",
                    )
                )
    # O1b: releasing a piggybacked ACK must happen after nic_deliver.
    piggy_aliases = set()
    deliver_lines = []
    release_offers = []
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "piggyback_ack"
            ):
                piggy_aliases.add(target.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "nic_deliver":
                deliver_lines.append(node.lineno)
            elif (
                node.func.attr == "offer"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in piggy_aliases
            ):
                release_offers.append(node.lineno)
    for line in release_offers:
        if not any(deliver < line for deliver in deliver_lines):
            findings.append(
                Finding(
                    PASS_ORDER,
                    filename,
                    line,
                    "ack-before-notify",
                    "piggybacked ACK released before any nic_deliver call: "
                    "the notification it rides is not yet host-visible "
                    "(write-ahead rule, §3.1.3)",
                )
            )
    return findings


def lint_ordering(program):
    """The ``ordering`` pass: fence, sequencer, and write-ahead checks."""
    findings = []

    # Gather sequencer assign/offer sites across the whole program first:
    # the unsequenced-gro-offer check is whole-program (the ticket may be
    # taken in a different stage than the offer).
    gro_to_seqr = {gro: seqr for seqr, gro in SEQR_DOMAINS.items()}
    assign_indices = {seqr: set() for seqr in SEQR_DOMAINS}
    offer_sites = []  # (seqr, stage index, gro, filename, lineno)
    methods = [info for info in program.values() if info.class_name is not None]

    for info in methods:
        index = STAGE_ORDER.get(info.kind, ENTRY_INDEX)
        for call in _iter_calls(info.node):
            receiver = _receiver_attr(call.func.value)
            if call.func.attr == "assign" and receiver in assign_indices:
                assign_indices[receiver].add(index)
            elif call.func.attr == "offer" and receiver in gro_to_seqr and info.kind is not None:
                offer_sites.append((gro_to_seqr[receiver], index, receiver, info.filename, call.lineno))

    for seqr, index, gro, filename, lineno in offer_sites:
        indices = assign_indices.get(seqr, set())
        if not indices or index < min(indices):
            findings.append(
                Finding(
                    PASS_ORDER,
                    filename,
                    lineno,
                    "unsequenced-gro-offer",
                    "offer into {} at a stage upstream of every {}.assign "
                    "site: the reorder ticket must be taken before "
                    "parallelism can reorder the item (§3.2)".format(gro, seqr),
                )
            )

    # Per-function obligations: keyed fences and the write-ahead rule.
    for info in methods:
        if info.kind is None:
            continue
        if info.replicated:
            fences = _collect_fences(info.node)
            for lineno, label in _collect_ordered_emissions(info.node):
                if not any(start < lineno < end for start, end in fences):
                    findings.append(
                        Finding(
                            PASS_ORDER,
                            info.filename,
                            lineno,
                            "unfenced-ordered-emit",
                            "replicated stage '{}' emits into {} outside a "
                            "per-key fence: replicas finishing out of "
                            "order would break the ring's per-{} delivery "
                            "contract (§3.1.3)".format(
                                info.kind,
                                label,
                                ORDERED_RINGS.get(label, "key"),
                            ),
                        )
                    )
        findings.extend(_write_ahead_findings(info.node, info.filename))

    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings
