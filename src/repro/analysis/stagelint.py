"""Static race lint for the fine-grained pipeline (paper §3.1, Table 5).

Connection state is partitioned across stages — the pre-processor owns
identification state, the protocol stage owns the TCP machine, the
post-processor owns the app interface — and only the *atomic* protocol
stage may mutate protocol state. Replicated stages (pre, post, GRO,
DMA) and one-shot extension modules must treat it as read-only; a write
from any of them is a data race the moment stages run on separate FPCs.

The lint is **interprocedural**: it builds a call graph over every
data-path module it covers and computes bottom-up read/write-set
summaries per function (memoized, with cycle detection), substituting
argument bindings at call sites. A store buried in a helper —
``statecache`` writeback, ``seqr`` delivery — is therefore attributed
to the *calling* stage through arbitrary call depth, and the resulting
finding carries the ``via`` call chain. Helpers themselves have no
stage identity (``ROLE_HELPER``): whether their writes are legal
depends on who calls them.

Ownership findings (``stage-race`` pass):

* writes to protocol-owned attributes outside the ``STAGE_KIND =
  "proto"`` class / :mod:`repro.flextoe.proto_logic`
  (``stage-writes-proto``);
* writes to the pre-processor partition anywhere in the data-path —
  it is installed by the control plane and immutable after
  (``stage-writes-pre``);
* writes to the post partition from any kind but ``post``
  (``stage-writes-post``);
* any connection-partition write from a ``DatapathModule.handle`` —
  modules get one-shot segment + metadata access only, never
  connection state (``module-writes-state``).

Atomicity findings (``atomicity`` pass, :func:`lint_atomicity`):
instances of a ``REPLICATED`` class of one flow group share their partition, so
a read-modify-write (``x += ...`` or ``x = f(x)``) is lost-update-racy
unless the field is declared in the ``atomic()`` registry of
:mod:`repro.flextoe.state` — the declaration asserts the field is a
commutative counter implemented with the NFP atomic-add engine (whose
latency :func:`repro.flextoe.state.atomic_add` charges in the sim).
Undeclared replicated RMWs are ``replicated-unatomic-rmw``; an
``atomic_add`` call naming an undeclared field is
``atomic-undeclared-add``.

Declarations are imported, code is parsed: field ownership is the
partition classes' ``SLAB_FIELDS`` and the ``atomic()`` registry of
:mod:`repro.flextoe.state`; what a class *is* comes from the anchors it
carries (``STAGE_KIND`` / ``REPLICATED``, the ones the data path spawns
by), never from its name. :func:`build_program` parses each module once
into a :class:`Program` that all four pipeline passes (these two and
:mod:`repro.analysis.hblint`'s) share, summaries included.
"""

import ast
import os

from repro.analysis.report import PASS_ATOMIC, PASS_STAGE, Finding
from repro.flextoe import state

#: Partition accessor attributes on a ConnectionRecord.
PARTITIONS = ("pre", "proto", "post")

ROLE_PROTOCOL = "protocol"  # STAGE_KIND "proto", the atomic stage: may write proto state
ROLE_STAGE = "stage"  # any other STAGE_KIND
ROLE_MODULE = "module"  # one-shot extension modules (``handle``, no ``program``: §3.3)
ROLE_PROTO_LOGIC = "proto-logic"  # pure functions called by the protocol stage
ROLE_HELPER = "helper"  # no stage identity; judged at the call site

#: Roles that are data-path entry points: their (direct + transitive)
#: writes are judged against the ownership rules.
_ENTRY_ROLES = frozenset((ROLE_PROTOCOL, ROLE_STAGE, ROLE_MODULE, ROLE_PROTO_LOGIC))

#: Longest call chain a summary entry is propagated through.
MAX_CHAIN_DEPTH = 8

_PARAM_PREFIX = "param:"


def default_paths():
    """The data-path modules the pipeline passes cover."""
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


def _role_of_class(node, kind):
    if kind is not None:
        return ROLE_PROTOCOL if kind == "proto" else ROLE_STAGE
    method_names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    if "handle" in method_names and "program" not in method_names:
        return ROLE_MODULE
    return ROLE_HELPER


def _partition_of_value(node):
    """Partition tag if ``node`` is an expression ending in ``.pre/.proto/.post``."""
    if isinstance(node, ast.Attribute) and node.attr in PARTITIONS:
        return node.attr
    return None


#: ``rmw`` tag of a write site that is an ``atomic_add`` call (truthy:
#: it is a read-modify-write, performed by the atomic engine).
RMW_ATOMIC = "atomic"


class FunctionInfo:
    """One function's accesses, call sites, and identity."""

    __slots__ = (
        "qualname",
        "name",
        "class_name",
        "role",
        "kind",
        "replicated",
        "filename",
        "node",
        "params",
        "reads_at",
        "writes",
        "calls",
    )

    def __init__(self, qualname, class_name, role, kind, replicated, filename, node):
        self.qualname = qualname
        self.name = node.name
        self.class_name = class_name
        self.role = role
        self.kind = kind  # the class's STAGE_KIND anchor, or None
        self.replicated = replicated  # its REPLICATED anchor
        self.filename = filename
        self.node = node  # the FunctionDef, for the ordering pass
        self.params = [a.arg for a in node.args.args if a.arg != "self"]
        collector = _FunctionAccess(self.params)
        for statement in node.body:
            collector.visit(statement)
        self.reads_at = collector.reads_at  # (token, attr, lineno)
        self.writes = collector.writes  # (token, attr, lineno, rmw)
        self.calls = collector.calls  # (lineno, callee name, arg tokens, is_self_call)


class _FunctionAccess(ast.NodeVisitor):
    """Collects partition/parameter reads, writes, and call sites inside
    one function body.

    Tokens are either a partition name (``pre``/``proto``/``post``) or
    ``param:<name>`` for stores through a formal parameter, resolved to
    the caller's binding during summarization.
    """

    def __init__(self, params):
        self.reads_at = set()  # (token, attr, lineno)
        self.writes = set()  # (token, attr, lineno, rmw); rmw may be RMW_ATOMIC
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

    def _record(self, target, store, rmw=False):
        if not isinstance(target, ast.Attribute):
            return
        token = self._token_of_value(target.value)
        if token is None:
            return
        if store:
            self.writes.add((token, target.attr, target.lineno, rmw))
        else:
            self.reads_at.add((token, target.attr, target.lineno))

    def _reads_back(self, value, token, attr):
        """Does ``value`` read ``token.attr`` (an in-place update)?"""
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr == attr
                and self._token_of_value(node.value) == token
            ):
                return True
        return False

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
            elif isinstance(target, ast.Attribute):
                token = self._token_of_value(target.value)
                rmw = token is not None and self._reads_back(node.value, token, target.attr)
                self._record(target, store=True, rmw=rmw)
                self.generic_visit(target.value)
            else:
                self._record(target, store=True)

    def visit_AugAssign(self, node):
        self.visit(node.value)
        self._record(node.target, store=True, rmw=True)
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
            # by string: the call site is the read-modify-write.
            if name == "atomic_add" and len(args) >= 2 and isinstance(args[0], str):
                field = args[1]
                if isinstance(field, tuple) and isinstance(field[1], str):
                    self.writes.add((args[0], field[1], node.lineno, RMW_ATOMIC))
        self.generic_visit(node)


class Program(dict):
    """``{qualname: FunctionInfo}`` over the parsed data-path modules — the
    one front end of the four pipeline passes — with the imported
    declarations and the memoised call-graph summaries they share."""

    def __init__(self):
        super().__init__()
        self.filenames = []
        self.ownership = partition_ownership()
        self.registry = atomic_registry()
        self._summaries = {}

    def stage_classes(self):
        """Names of the classes bearing a ``STAGE_KIND`` anchor."""
        return {info.class_name for info in self.values() if info.kind is not None}

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
        program.filenames.append(filename)
        tree = ast.parse(source, filename=filename)
        is_proto_logic = os.path.basename(filename) == "proto_logic.py"
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                kind, replicated = _class_anchors(node)
                role = _role_of_class(node, kind)
                for function in node.body:
                    if isinstance(function, ast.FunctionDef):
                        qualname = "{}.{}".format(node.name, function.name)
                        program[qualname] = FunctionInfo(
                            qualname, node.name, role, kind, replicated, filename, function
                        )
            elif isinstance(node, ast.FunctionDef):
                role = ROLE_PROTO_LOGIC if is_proto_logic else ROLE_HELPER
                program[node.name] = FunctionInfo(node.name, None, role, None, False, filename, node)
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
    matches = [info for info in program.values() if info.name == name]
    return matches


def _summarize(program, access_list):
    """One bottom-up traversal of the call graph over ``access_list``
    (``"writes"`` or ``"reads_at"``, the :class:`FunctionInfo` attribute
    holding a function's own access sites). Returns
    ``({qualname: frozenset(entry)}, cycle_qualnames)``; an entry is the
    site with ``filename`` spliced in after ``lineno`` and the inlining
    ``chain`` appended. Summaries are memoized per callee; recursion is
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
            entries = {
                site[:3] + (info.filename,) + site[3:] + ((),)
                for site in getattr(info, access_list)
            }
            for _lineno, name, args, is_self_call in info.calls:
                for callee in _resolve_call(program, info, name, is_self_call):
                    if callee.qualname == qualname:
                        cycles.add(qualname)
                        continue
                    for entry in summary(callee.qualname):
                        token, chain = entry[0], entry[-1]
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
                        entries.add((token,) + entry[1:-1] + ((callee.qualname,) + chain,))
        finally:
            on_stack.pop()
        result = frozenset(entries)
        memo[qualname] = result
        return result

    for qualname in program:
        summary(qualname)
    return memo, cycles


def summarize(program):
    """Transitive write summaries per function:
    ``({qualname: frozenset(entry)}, cycle_qualnames)`` where an entry is
    ``(token, attr, lineno, filename, rmw, chain)`` — ``chain`` the tuple
    of callee qualnames the write was inlined through (empty for the
    function's own writes).
    """
    return program.summaries("writes")


def summarize_reads(program):
    """Transitive *read* summaries per function:
    ``{qualname: frozenset((token, attr, lineno, filename, chain))}``.
    The happens-before lint (:mod:`repro.analysis.hblint`) needs read
    footprints — a stale read through a helper is as racy as a write.
    """
    return program.summaries("reads_at")[0]


def _ownership_rule(info, partition, attr):
    """(code, message) when a write by ``info`` violates Table 5: the
    partition named like a stage kind is owned by that kind, and nobody
    in the data path owns ``pre``."""
    qualname = info.qualname
    if info.role == ROLE_MODULE:
        # Modules never touch connection state, whichever partition.
        return (
            "module-writes-state",
            "{} writes connection state '{}': modules get one-shot "
            "segment+metadata access only (paper §3.3)".format(qualname, attr),
        )
    if partition == "proto" and info.role not in (ROLE_PROTOCOL, ROLE_PROTO_LOGIC):
        return (
            "stage-writes-proto",
            "{} writes protocol-owned state '{}': only the atomic "
            "ProtocolStage may mutate the TCP machine".format(qualname, attr),
        )
    if partition == "pre":
        return (
            "stage-writes-pre",
            "{} writes pre-processor state '{}': the identification "
            "partition is control-plane-installed and immutable".format(qualname, attr),
        )
    if partition == "post" and info.kind != "post":
        return (
            "stage-writes-post",
            "{} writes post-processor state '{}': only the post "
            "stage owns the app-interface partition".format(qualname, attr),
        )
    return None


def _direct_violations(info, ownership):
    """Findings for one function's own partition writes."""
    findings = []
    flagged = set()  # (filename, lineno, partition, attr) judged illegal here
    for token, attr, lineno, _rmw in sorted(info.writes, key=lambda w: (w[2], w[1])):
        if not isinstance(token, str) or token.startswith(_PARAM_PREFIX):
            continue
        partition = token
        if ownership.get(attr) != partition:
            findings.append(
                Finding(
                    PASS_STAGE,
                    info.filename,
                    lineno,
                    "unknown-state-attr",
                    "{} writes '{}' which is not a declared slot of the "
                    "{} partition".format(info.qualname, attr, partition),
                )
            )
            flagged.add((info.filename, lineno, partition, attr))
            continue
        if info.role not in _ENTRY_ROLES:
            continue  # helpers are judged at their call sites
        rule = _ownership_rule(info, partition, attr)
        if rule is not None:
            code, message = rule
            findings.append(Finding(PASS_STAGE, info.filename, lineno, code, message))
            flagged.add((info.filename, lineno, partition, attr))
    return findings, flagged


def _transitive_violations(program, flagged):
    """Findings for writes reaching an entry-role function via calls.

    A write already judged illegal at the function that performs it
    (``flagged``) is not re-reported for every caller; what remains are
    stores that are only illegal because of *who* reached them.
    """
    summaries, _cycles = summarize(program)
    ownership = program.ownership
    findings = []
    for qualname, info in program.items():
        if info.role not in _ENTRY_ROLES:
            continue
        best = {}  # (filename, lineno, partition, attr, code) -> shortest chain entry
        for token, attr, wline, wfile, _rmw, chain in summaries[qualname]:
            if not chain or not isinstance(token, str) or token.startswith(_PARAM_PREFIX):
                continue
            partition = token
            if partition not in PARTITIONS:
                continue
            if (wfile, wline, partition, attr) in flagged:
                continue
            if ownership.get(attr) != partition:
                continue  # unknown attrs are reported at the writer
            rule = _ownership_rule(info, partition, attr)
            if rule is None:
                continue
            key = (wfile, wline, partition, attr, rule[0])
            if key not in best or len(chain) < len(best[key][1]):
                best[key] = (rule, chain)
        for (wfile, wline, _partition, _attr, _code), (rule, chain) in sorted(
            best.items(), key=lambda item: (item[0][0], item[0][1], item[0][4])
        ):
            code, message = rule
            findings.append(
                Finding(
                    PASS_STAGE,
                    wfile,
                    wline,
                    code,
                    "{} via {}".format(message, " -> ".join(chain)),
                    via=(qualname,) + chain,
                )
            )
    return findings


def lint_stages(program):
    """The ``stage-race`` pass: ownership findings, direct and
    summary-attributed, over a :class:`Program`."""
    findings = []
    flagged = set()
    for info in program.values():
        direct, direct_flagged = _direct_violations(info, program.ownership)
        findings.extend(direct)
        flagged |= direct_flagged
    findings.extend(_transitive_violations(program, flagged))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


# -- atomicity of replicated-state writes ---------------------------------


def lint_atomicity(program):
    """The ``atomicity`` pass: classify partition writes reachable from
    replicated stages.

    Replicated stage instances of a flow group share their partition
    concurrently, so any read-modify-write they perform — directly or
    through helpers — must be a declared commutative atomic-add counter
    (the ``atomic()`` registry in :mod:`repro.flextoe.state`); anything
    else is a lost-update race on hardware (``replicated-unatomic-rmw``).
    ``atomic_add`` calls naming undeclared fields are flagged too
    (``atomic-undeclared-add``).
    """
    registry = program.registry
    summaries, _cycles = summarize(program)
    findings = []
    seen = set()
    for qualname, info in program.items():
        # Only classes declared REPLICATED race against their own
        # instances; the protocol stage is serialized per flow group and
        # modules are already barred from state entirely.
        if not info.replicated:
            continue
        for token, attr, wline, wfile, rmw, chain in sorted(
            summaries[qualname], key=lambda e: (e[3], e[2], str(e[0]))
        ):
            if not rmw or token not in PARTITIONS:
                continue
            if registry.get(attr) == token:
                continue  # declared commutative atomic-add counter
            key = (wfile, wline, token, attr)
            if key in seen:
                continue
            seen.add(key)
            writer = chain[-1] if chain else qualname
            via = (qualname,) + chain if chain else ()
            if rmw == RMW_ATOMIC:
                code = "atomic-undeclared-add"
                message = (
                    "{} calls atomic_add on '{}' which is not in the "
                    "atomic() registry of repro.flextoe.state".format(writer, attr)
                )
            else:
                code = "replicated-unatomic-rmw"
                message = (
                    "{} read-modify-writes {}.{} from a replicated stage: "
                    "concurrent replicas lose updates; declare it atomic() "
                    "or aggregate per-replica".format(writer, token, attr)
                )
            findings.append(Finding(PASS_ATOMIC, wfile, wline, code, message, via=via))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
