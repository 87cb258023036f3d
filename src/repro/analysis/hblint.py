"""Whole-program happens-before analyzer for the stage pipeline (§3.1-3.2).

FlexTOE replaces per-connection locks with *structural* ordering: work
items flow through FIFO rings, sequencers hand out per-domain tickets,
replicated stages serialize per-key emissions behind keyed fences
(``KeyedFence``), and the one atomic stage serializes per-connection protocol
updates. That discipline is invisible to a conventional race detector —
nothing is ever locked — so this module checks it statically, from the
AST, as a happens-before model:

* **stage graph** — every class carrying a ``STAGE_KIND`` anchor is a
  pipeline stage; ``REPLICATED`` marks stages whose program runs on
  several FPC threads concurrently. ``FlexToeDatapath.SEQR_DOMAINS``
  and ``ORDERED_RINGS`` name the sequencer→GRO domains and the rings
  whose per-key FIFO order is a delivery contract.
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

The extracted :class:`HBModel` is also the basis of the runtime monitor
(:mod:`repro.analysis.hbmonitor`), which validates observed
interleavings against the same edges under ``REPRO_SANITIZE=1``.
"""

import ast
import os

from repro.analysis import stagelint
from repro.analysis.report import PASS_HB, PASS_ORDER, Finding

#: Topological index of each stage kind in the pipeline DAG. ``ctx`` and
#: ``nbi`` share an index: both are leaves downstream of ``dma``.
STAGE_ORDER = {"pre": 0, "proto": 1, "post": 2, "dma": 3, "ctx": 4, "nbi": 4}

#: Datapath entry code (``_on_mac_rx``, doorbell handlers) runs before
#: any stage: sequencer tickets assigned there precede the whole DAG.
ENTRY_INDEX = -1

VERDICT_IMMUTABLE = "immutable"
VERDICT_ATOMIC = "atomic"
VERDICT_OWNED = "owned"
VERDICT_RACE = "hb-race"


class StageModel:
    """One pipeline stage class, as declared by its anchors."""

    __slots__ = ("class_name", "kind", "replicated", "serializes_per_conn", "filename")

    def __init__(self, class_name, kind, replicated, serializes_per_conn, filename):
        self.class_name = class_name
        self.kind = kind
        self.replicated = replicated
        self.serializes_per_conn = serializes_per_conn
        self.filename = filename


class HBModel:
    """The static pipeline model: stages + ordering-device anchors."""

    __slots__ = ("stages", "seqr_domains", "ordered_rings")

    def __init__(self, stages, seqr_domains, ordered_rings):
        self.stages = stages  # {class_name: StageModel}
        self.seqr_domains = seqr_domains  # {seqr attr: gro attr}
        self.ordered_rings = ordered_rings  # {ring attr: per-key kind}

    def kind_of(self, class_name):
        stage = self.stages.get(class_name)
        return stage.kind if stage is not None else None


def _read_sources(paths):
    sources = []
    for path in paths:
        with open(path) as handle:
            sources.append((handle.read(), path))
    return sources


def _const_dict(node):
    """``{str: str}`` from a dict literal of string constants, else None."""
    if not isinstance(node, ast.Dict):
        return None
    out = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(value, ast.Constant)):
            return None
        out[key.value] = value.value
    return out


def extract_model(sources, with_fallback=True):
    """Parse stage/anchor declarations out of ``[(source, filename)]``.

    When the provided sources carry no ``SEQR_DOMAINS``/``ORDERED_RINGS``
    anchors (a caller linting a subset, e.g. one fixture file), the real
    ``repro/flextoe/datapath.py`` is consulted for them, so fixtures
    exercise the production ordering model.
    """
    stages = {}
    seqr_domains = {}
    ordered_rings = {}
    for source, filename in sources:
        tree = ast.parse(source, filename=filename)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = {}
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                ):
                    attrs[statement.targets[0].id] = statement.value
            kind = attrs.get("STAGE_KIND")
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):

                def _flag(name):
                    value = attrs.get(name)
                    return bool(value.value) if isinstance(value, ast.Constant) else False

                stages[node.name] = StageModel(
                    node.name, kind.value, _flag("REPLICATED"),
                    _flag("SERIALIZES_PER_CONN"), filename,
                )
            for anchor, target in (("SEQR_DOMAINS", seqr_domains), ("ORDERED_RINGS", ordered_rings)):
                parsed = _const_dict(attrs.get(anchor))
                if parsed:
                    target.update(parsed)
    if with_fallback and not (seqr_domains and ordered_rings):
        datapath = stagelint._flextoe_path("datapath.py")
        with open(datapath) as handle:
            fallback = extract_model([(handle.read(), datapath)], with_fallback=False)
        if not seqr_domains:
            seqr_domains = fallback.seqr_domains
        if not ordered_rings:
            ordered_rings = fallback.ordered_rings
    return HBModel(stages, seqr_domains, ordered_rings)


# -- hb-race: cross-stage field footprints ---------------------------------


def _better_site(current, candidate):
    """Prefer the shortest call chain, then the lowest line."""
    if current is None:
        return candidate
    if (len(candidate[3]), candidate[2]) < (len(current[3]), current[2]):
        return candidate
    return current


def stage_field_footprints(program, model, ownership):
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
    fields = {}

    def _bucket(partition, attr, side):
        entry = fields.setdefault((partition, attr), {"writes": {}, "reads": {}})
        return entry[side]

    for qualname, info in program.items():
        kind = model.kind_of(info.class_name)
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


def field_verdicts(paths=None, ownership=None, registry=None):
    """Judge every stage-touched connection-state field.

    Returns ``(model, {(partition, attr): (verdict, footprint)})``.
    """
    sources = _read_sources(paths or stagelint.default_paths())
    model = extract_model(sources)
    if ownership is None:
        ownership = stagelint.partition_ownership()
    if registry is None:
        registry = stagelint.atomic_registry()
    program = stagelint.build_program(sources, ownership)
    fields = stage_field_footprints(program, model, ownership)
    verdicts = {}
    for key, footprint in fields.items():
        partition, attr = key
        writer_kinds = set(footprint["writes"])
        all_kinds = writer_kinds | set(footprint["reads"])
        if not writer_kinds:
            verdict = VERDICT_IMMUTABLE
        elif registry.get(attr) == partition:
            verdict = VERDICT_ATOMIC
        elif len(all_kinds) == 1:
            verdict = VERDICT_OWNED
        else:
            verdict = VERDICT_RACE
        verdicts[key] = (verdict, footprint)
    return model, verdicts


def lint_hb(paths=None, ownership=None, registry=None, verdicts=None):
    """The ``hb-race`` pass: unordered cross-stage shared-field access."""
    if verdicts is None:
        _model, verdicts = field_verdicts(paths, ownership, registry)
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


def _collect_ordered_emissions(function, ordered_rings):
    """``(lineno, label)`` for emissions whose per-key order is contractual."""
    emissions = []
    for call in _iter_calls(function):
        method = call.func.attr
        if method in ("put", "force_put", "try_put"):
            ring = _receiver_attr(call.func.value)
            if ring in ordered_rings:
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


def _write_ahead_findings(function, filename, model):
    """``ack-before-notify``: the §3.1.3 write-ahead rule, both halves."""
    findings = []
    notification_rings = {
        ring for ring, key in model.ordered_rings.items() if key == "context"
    }
    gro_attrs = set(model.seqr_domains.values())
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


def lint_ordering(paths=None):
    """The ``ordering`` pass: fence, sequencer, and write-ahead checks."""
    sources = _read_sources(paths or stagelint.default_paths())
    model = extract_model(sources)
    findings = []

    # Gather sequencer assign/offer sites across all sources first: the
    # unsequenced-gro-offer check is whole-program (the ticket may be
    # taken in a different stage than the offer).
    gro_to_seqr = {gro: seqr for seqr, gro in model.seqr_domains.items()}
    assign_indices = {seqr: set() for seqr in model.seqr_domains}
    offer_sites = []  # (seqr, stage index, kind, filename, lineno)
    stage_functions = []  # (StageModel, FunctionDef, filename)

    for source, filename in sources:
        tree = ast.parse(source, filename=filename)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            stage = model.stages.get(node.name)
            for function in node.body:
                if not isinstance(function, ast.FunctionDef):
                    continue
                if stage is not None:
                    stage_functions.append((stage, function, filename))
                for call in _iter_calls(function):
                    receiver = _receiver_attr(call.func.value)
                    if call.func.attr == "assign" and receiver in assign_indices:
                        index = (
                            STAGE_ORDER.get(stage.kind, ENTRY_INDEX)
                            if stage is not None
                            else ENTRY_INDEX
                        )
                        assign_indices[receiver].add(index)
                    elif (
                        call.func.attr == "offer"
                        and receiver in gro_to_seqr
                        and stage is not None
                    ):
                        offer_sites.append(
                            (
                                gro_to_seqr[receiver],
                                STAGE_ORDER.get(stage.kind, ENTRY_INDEX),
                                receiver,
                                filename,
                                call.lineno,
                            )
                        )

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
    for stage, function, filename in stage_functions:
        if stage.replicated:
            fences = _collect_fences(function)
            for lineno, label in _collect_ordered_emissions(function, model.ordered_rings):
                if not any(start < lineno < end for start, end in fences):
                    findings.append(
                        Finding(
                            PASS_ORDER,
                            filename,
                            lineno,
                            "unfenced-ordered-emit",
                            "replicated stage '{}' emits into {} outside a "
                            "per-key fence: replicas finishing out of "
                            "order would break the ring's per-{} delivery "
                            "contract (§3.1.3)".format(
                                stage.kind,
                                label,
                                model.ordered_rings.get(label, "key"),
                            ),
                        )
                    )
        findings.extend(_write_ahead_findings(function, filename, model))

    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings
