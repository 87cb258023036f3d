"""The ``hb-race`` lint: Table 5 ownership of connection state (§3.1).

Connection state is partitioned across stages — the pre-processor's
identification state, the protocol stage's TCP machine, the post
processor's app interface — and FlexTOE orders stages only structurally:
FIFO rings, sequencer tickets and keyed fences order *adjacent work
items*, never all instances of two stages (stage T on segment k runs
concurrently with stage W on segment k+1). So a connection-state field a
stage touches is safe only as one of:

* **immutable** — no stage kind writes it;
* **atomic** — declared a commutative counter in ``state.atomic()`` for
  its partition (updated through the NFP atomic engine,
  :func:`repro.flextoe.state.atomic_add`);
* **owned** — exactly one kind touches it, that kind is the one the
  partition is named after, and it is not ``REPLICATED`` (replicas of a
  kind share the partition).

Anything else is an ``hb-race``: cross-stage dataflow must ride the work
item. This is DESIGN §4's "a partition is written only by the kind it is
named after, and no stage writes ``pre``" (the ``pre`` kind is
replicated), judged once per field.

The lint is **interprocedural**: it builds a call graph over every
data-path module it covers and computes bottom-up read/write-set
summaries per function (memoized, with cycle detection), substituting
argument bindings at call sites. An access buried in a helper —
``statecache`` writeback, ``seqr`` delivery, an extension module's
``handle`` — is therefore attributed to the *calling* stage through
arbitrary call depth, and the finding carries the ``via`` call chain.

Declarations are imported, code is parsed: field ownership is the
partition classes' ``SLAB_FIELDS`` and the ``atomic()`` registry of
:mod:`repro.flextoe.state`; what a class *is* comes from the anchors it
carries (``STAGE_KIND`` / ``REPLICATED``, the ones the data path spawns
by), never from its name. Ordering (fences, sequencers, the write-ahead
rule) is not judged here: the run-time HB monitor
(:mod:`repro.analysis.hbmonitor`) and the data path's own checks see it.
"""

import ast
import os

from repro.analysis.report import PASS_HB, Finding
from repro.flextoe import state

#: Partition accessor attributes on a ConnectionRecord.
PARTITIONS = ("pre", "proto", "post")

#: Longest call chain a summary entry is propagated through.
MAX_CHAIN_DEPTH = 8

_PARAM_PREFIX = "param:"

VERDICT_IMMUTABLE = "immutable"
VERDICT_ATOMIC = "atomic"
VERDICT_OWNED = "owned"
VERDICT_RACE = "hb-race"


def default_paths():
    """The data-path modules the lint covers."""
    root = os.path.dirname(state.__file__)
    names = ("stages.py", "proto_logic.py", "module.py", "seqr.py", "statecache.py", "datapath.py")
    return [os.path.join(root, name) for name in names]


def read_sources(paths):
    """``[(source, filename), ...]`` for :func:`build_program`."""
    sources = []
    for path in paths:
        with open(path) as handle:
            sources.append((handle.read(), path))
    return sources


def partition_ownership():
    """``{field: partition}`` for every declared field of the three
    partition classes (their ``SLAB_FIELDS``)."""
    views = (("pre", state.PreprocState), ("proto", state.ProtocolState), ("post", state.PostprocState))
    return {field: partition for partition, view in views for field in view.SLAB_FIELDS}


def atomic_registry():
    """``{field: partition}`` for every declared commutative atomic-add
    counter (the ``atomic()`` declarations)."""
    return state.atomic_fields()


def _class_anchors(node):
    """``(kind, replicated)`` from a class's ``STAGE_KIND`` / ``REPLICATED``
    anchors; ``(None, False)`` for a class that declares no kind."""
    anchors = {}
    for statement in node.body:
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and isinstance(statement.value, ast.Constant)
        ):
            anchors[statement.targets[0].id] = statement.value.value
    kind = anchors.get("STAGE_KIND")
    if not isinstance(kind, str):
        return None, False
    return kind, bool(anchors.get("REPLICATED"))


def _partition_of_value(node):
    """Partition tag if ``node`` is an expression ending in ``.pre/.proto/.post``."""
    if isinstance(node, ast.Attribute) and node.attr in PARTITIONS:
        return node.attr
    return None


class FunctionInfo:
    """One function's accesses, call sites, and identity."""

    __slots__ = (
        "qualname",
        "name",
        "class_name",
        "kind",
        "replicated",
        "filename",
        "params",
        "reads_at",
        "writes",
        "calls",
    )

    def __init__(self, qualname, class_name, kind, replicated, filename, node):
        self.qualname = qualname
        self.name = node.name
        self.class_name = class_name
        self.kind = kind  # the class's STAGE_KIND anchor, or None
        self.replicated = replicated  # its REPLICATED anchor
        self.filename = filename
        self.params = [a.arg for a in node.args.args if a.arg != "self"]
        collector = _FunctionAccess(self.params)
        for statement in node.body:
            collector.visit(statement)
        self.reads_at = collector.reads_at  # (token, attr, lineno)
        self.writes = collector.writes  # (token, attr, lineno)
        self.calls = collector.calls  # (lineno, callee name, arg tokens, is_self_call)


class _FunctionAccess(ast.NodeVisitor):
    """Collects partition/parameter reads, writes, and call sites inside
    one function body.

    Tokens are either a partition name (``pre``/``proto``/``post``) or
    ``param:<name>`` for accesses through a formal parameter, resolved to
    the caller's binding during summarization.
    """

    def __init__(self, params):
        self.reads_at = set()  # (token, attr, lineno)
        self.writes = set()  # (token, attr, lineno)
        self.calls = []  # (lineno, name, args, is_self_call)
        # Local names currently aliasing a partition object or parameter.
        self.aliases = {}
        for param in params:
            if param not in ("self", "thread"):
                self.aliases[param] = _PARAM_PREFIX + param
        # Codebase convention: a parameter named ``state`` is the
        # connection's ProtocolState (see ProtocolStage._process_*).
        if "state" in params:
            self.aliases["state"] = "proto"

    def _token_of_value(self, node):
        """Token of the object an attribute access dereferences."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return _partition_of_value(node)

    def _record(self, target, store):
        if not isinstance(target, ast.Attribute):
            return
        token = self._token_of_value(target.value)
        if token is not None:
            (self.writes if store else self.reads_at).add((token, target.attr, target.lineno))

    def visit_Assign(self, node):
        # visit (not generic_visit): the value may itself be a partition
        # attribute read (group = record.pre.flow_group).
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                # Track/clear aliases: state = record.proto, post = record.post
                self.aliases.pop(target.id, None)
                token = self._token_of_value(node.value)
                if token is not None:
                    self.aliases[target.id] = token
            else:
                self._record(target, store=True)
                if isinstance(target, ast.Attribute):
                    self.generic_visit(target.value)

    def visit_AugAssign(self, node):
        self.visit(node.value)
        self._record(node.target, store=True)
        if isinstance(node.target, ast.Attribute):
            self.generic_visit(node.target.value)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._record(node, store=False)
        elif isinstance(node.ctx, ast.Store):
            self._record(node, store=True)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = None
        is_self_call = False
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            is_self_call = isinstance(func.value, ast.Name) and func.value.id == "self"
        if name is not None:
            args = []
            for arg in node.args:
                token = self._token_of_value(arg)
                if token is None and isinstance(arg, ast.Constant):
                    token = ("lit", arg.value)
                args.append(token)
            self.calls.append((node.lineno, name, tuple(args), is_self_call))
            # atomic_add(<partition or formal>, "<field>", ...) lives in
            # state.py, outside the parsed modules, and names its field
            # by string: the call site is a write of that field.
            if name == "atomic_add" and len(args) >= 2 and isinstance(args[0], str):
                field = args[1]
                if isinstance(field, tuple) and isinstance(field[1], str):
                    self.writes.add((args[0], field[1], node.lineno))
        self.generic_visit(node)


class Program(dict):
    """``{qualname: FunctionInfo}`` over the parsed data-path modules,
    with the imported declarations and the memoised call-graph summaries
    the lint reads."""

    def __init__(self):
        super().__init__()
        self.ownership = partition_ownership()
        self.registry = atomic_registry()
        self._summaries = {}

    def kinds(self):
        """``{stage kind: replicated}`` from the classes' anchors; a kind
        is replicated when any class declaring it is."""
        kinds = {}
        for info in self.values():
            if info.kind is not None:
                kinds[info.kind] = kinds.get(info.kind, False) or info.replicated
        return kinds

    def summaries(self, access_list):
        """Memoised :func:`_summarize` over ``"writes"`` or ``"reads_at"``."""
        if access_list not in self._summaries:
            self._summaries[access_list] = _summarize(self, access_list)
        return self._summaries[access_list]


def build_program(sources=None):
    """Parse ``[(source, filename), ...]`` — by default the data-path
    modules — once each into a :class:`Program`."""
    if sources is None:
        sources = read_sources(default_paths())
    program = Program()
    for source, filename in sources:
        tree = ast.parse(source, filename=filename)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                kind, replicated = _class_anchors(node)
                for function in node.body:
                    if isinstance(function, ast.FunctionDef):
                        qualname = "{}.{}".format(node.name, function.name)
                        program[qualname] = FunctionInfo(qualname, node.name, kind, replicated, filename, function)
            elif isinstance(node, ast.FunctionDef):
                program[node.name] = FunctionInfo(node.name, None, None, False, filename, node)
    return program


def _resolve_call(program, caller, name, is_self_call):
    """Candidate callees for one call site, by method/function name.

    ``self.m()`` prefers a method of the caller's own class; otherwise
    every parsed function or method with that name is a candidate (the
    lint has no type information, so it over-approximates).
    """
    if is_self_call and caller.class_name is not None:
        own = program.get("{}.{}".format(caller.class_name, name))
        if own is not None:
            return [own]
    return [info for info in program.values() if info.name == name]


def _summarize(program, access_list):
    """One bottom-up traversal of the call graph over ``access_list``
    (``"writes"`` or ``"reads_at"``, the :class:`FunctionInfo` attribute
    holding a function's own access sites). Returns
    ``({qualname: frozenset(entry)}, cycle_qualnames)``; an entry is
    ``(token, attr, lineno, filename, chain)``, ``chain`` the tuple of
    callee qualnames the access was inlined through (empty for the
    function's own). Summaries are memoized per callee; recursion is
    cut at the back edge (cycle members still contribute every access
    reachable without re-entering the cycle).
    """
    memo = {}
    on_stack = []
    cycles = set()

    def summary(qualname):
        cached = memo.get(qualname)
        if cached is not None:
            return cached
        if qualname in on_stack:
            cycles.add(qualname)
            return frozenset()
        info = program[qualname]
        on_stack.append(qualname)
        try:
            entries = {site + (info.filename, ()) for site in getattr(info, access_list)}
            for _lineno, name, args, is_self_call in info.calls:
                for callee in _resolve_call(program, info, name, is_self_call):
                    if callee.qualname == qualname:
                        cycles.add(qualname)
                        continue
                    for token, attr, line, filename, chain in summary(callee.qualname):
                        if len(chain) >= MAX_CHAIN_DEPTH:
                            continue
                        if isinstance(token, str) and token.startswith(_PARAM_PREFIX):
                            # Substitute the callee's formal with the
                            # caller-side binding at this call site.
                            formal = token[len(_PARAM_PREFIX):]
                            if formal not in callee.params:
                                continue
                            position = callee.params.index(formal)
                            token = args[position] if position < len(args) else None
                        if not isinstance(token, str):
                            continue  # literal or untracked binding
                        entries.add((token, attr, line, filename, (callee.qualname,) + chain))
        finally:
            on_stack.pop()
        result = frozenset(entries)
        memo[qualname] = result
        return result

    for qualname in program:
        summary(qualname)
    return memo, cycles


# -- hb-race: one verdict per stage-touched field ----------------------------


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
    (datapath control plane, partition classes) is not a concurrent
    pipeline stage, and what a stage calls is attributed to the stage.
    """
    fields = {}
    for side, access_list in (("writes", "writes"), ("reads", "reads_at")):
        summaries = program.summaries(access_list)[0]
        for qualname, info in program.items():
            if info.kind is None:
                continue
            for token, attr, line, filename, chain in summaries[qualname]:
                if token not in PARTITIONS or program.ownership.get(attr) != token:
                    continue
                via = (qualname,) + chain if chain else ()
                bucket = fields.setdefault((token, attr), {"writes": {}, "reads": {}})[side]
                bucket[info.kind] = _better_site(bucket.get(info.kind), (qualname, filename, line, via))
    return fields


def _may_write(kind, partition, kinds):
    """Table 5: only the non-replicated kind a partition is named after."""
    return kind == partition and not kinds[kind]


def field_verdicts(program):
    """Judge every stage-touched connection-state field: returns
    ``{(partition, attr): (verdict, footprint)}``."""
    kinds = program.kinds()
    verdicts = {}
    for key, footprint in stage_field_footprints(program).items():
        partition, attr = key
        touching = set(footprint["writes"]) | set(footprint["reads"])
        if not footprint["writes"]:
            verdict = VERDICT_IMMUTABLE
        elif program.registry.get(attr) == partition:
            verdict = VERDICT_ATOMIC
        elif touching == {partition} and not kinds[partition]:
            verdict = VERDICT_OWNED
        else:
            verdict = VERDICT_RACE
        verdicts[key] = (verdict, footprint)
    return verdicts


def lint_hb(program):
    """The ``hb-race`` pass over :func:`field_verdicts`. A racy field is
    reported at each write by a kind that may not write it and, where
    its owner writes it, at each other kind's read."""
    kinds = program.kinds()
    findings = []
    for (partition, attr), (verdict, footprint) in sorted(field_verdicts(program).items()):
        if verdict != VERDICT_RACE:
            continue
        for writer, (qualname, filename, line, via) in sorted(footprint["writes"].items()):
            if not _may_write(writer, partition, kinds):
                message = (
                    "{} writes {}.{} for stage '{}': a partition is written only "
                    "by the non-replicated stage kind it is named after (Table 5; "
                    "replicas of a kind share it), so the field must be owned, "
                    "immutable, or atomic()".format(via[-1] if via else qualname, partition, attr, writer)
                )
                findings.append(Finding(PASS_HB, filename, line, "hb-race", message, via=via))
                continue
            example = "{}:{}".format(os.path.basename(filename), line)
            for reader, (_qualname, read_file, read_line, read_via) in sorted(footprint["reads"].items()):
                if reader == writer:
                    continue
                message = (
                    "stage '{}' reads {}.{} which stage '{}' writes (e.g. {}): "
                    "no happens-before edge orders the access — queue FIFOs and "
                    "seqr tickets order only adjacent work items, so cross-stage "
                    "data must ride the work item".format(reader, partition, attr, writer, example)
                )
                findings.append(Finding(PASS_HB, read_file, read_line, "hb-race", message, via=read_via))
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings
