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

* writes to protocol-owned attributes outside ``ProtocolStage`` /
  :mod:`repro.flextoe.proto_logic` (``stage-writes-proto``);
* writes to the pre-processor partition anywhere in the data-path —
  it is installed by the control plane and immutable after
  (``stage-writes-pre``);
* writes to the post partition from stages other than the post stage
  (``stage-writes-post``);
* any connection-partition write from a ``DatapathModule.handle`` —
  modules get one-shot segment + metadata access only, never
  connection state (``module-writes-state``).

Atomicity findings (``atomicity`` pass, :func:`lint_atomicity`):
replicated stage instances of one flow group share their partition, so
a read-modify-write (``x += ...`` or ``x = f(x)``) is lost-update-racy
unless the field is declared in the ``atomic()`` registry of
:mod:`repro.flextoe.state` — the declaration asserts the field is a
commutative counter implemented with the NFP atomic-add engine (whose
latency :func:`repro.flextoe.state.atomic_add` charges in the sim).
Undeclared replicated RMWs are ``replicated-unatomic-rmw``; an
``atomic_add`` call naming an undeclared field is
``atomic-undeclared-add``.

Attribute ownership comes from the ``__slots__`` declarations in
:mod:`repro.flextoe.state`, parsed statically, so the lint needs no
imports of the code under analysis.
"""

import ast
import os

from repro.analysis.report import PASS_ATOMIC, PASS_STAGE, Finding

#: Partition accessor attributes on a ConnectionRecord.
PARTITIONS = ("pre", "proto", "post")

_STATE_CLASSES = {
    "PreprocState": "pre",
    "ProtocolState": "proto",
    "PostprocState": "post",
}

ROLE_PROTOCOL = "protocol"  # the atomic stage: may write proto state
ROLE_STAGE = "stage"  # replicated/read-only pipeline code
ROLE_MODULE = "module"  # one-shot extension modules
ROLE_PROTO_LOGIC = "proto-logic"  # pure functions called by the protocol stage
ROLE_HELPER = "helper"  # no stage identity; judged at the call site

#: Roles that are data-path entry points: their (direct + transitive)
#: writes are judged against the ownership rules.
_ENTRY_ROLES = frozenset((ROLE_PROTOCOL, ROLE_STAGE, ROLE_MODULE, ROLE_PROTO_LOGIC))

#: Longest call chain a summary entry is propagated through.
MAX_CHAIN_DEPTH = 8

_PARAM_PREFIX = "param:"


def _flextoe_path(name):
    import repro.flextoe

    return os.path.join(os.path.dirname(repro.flextoe.__file__), name)


def default_paths():
    """The data-path modules the race lint covers."""
    return [
        _flextoe_path("stages.py"),
        _flextoe_path("proto_logic.py"),
        _flextoe_path("module.py"),
        _flextoe_path("seqr.py"),
        _flextoe_path("statecache.py"),
        _flextoe_path("datapath.py"),
    ]


def partition_ownership(state_source=None):
    """Parse ``repro/flextoe/state.py`` field declarations into ownership
    sets.

    Partition classes declare their fields as a class-level string tuple:
    historically ``__slots__``, now ``SLAB_FIELDS`` (the slab-backed
    flyweights keep real slots empty and declare columns instead). Both
    spellings are parsed; underscore-prefixed names are implementation
    slots, not state fields. Returns ``{attr_name: partition}`` for every
    field of the three partition classes.
    """
    if state_source is None:
        with open(_flextoe_path("state.py")) as handle:
            state_source = handle.read()
    ownership = {}
    tree = ast.parse(state_source)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name not in _STATE_CLASSES:
            continue
        partition = _STATE_CLASSES[node.name]
        for statement in node.body:
            if not isinstance(statement, ast.Assign):
                continue
            targets = [t.id for t in statement.targets if isinstance(t, ast.Name)]
            if "__slots__" not in targets and "SLAB_FIELDS" not in targets:
                continue
            if isinstance(statement.value, (ast.Tuple, ast.List)):
                for element in statement.value.elts:
                    if (
                        isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                        and not element.value.startswith("_")
                    ):
                        ownership[element.value] = partition
    return ownership


def atomic_registry(state_source=None):
    """Parse the ``atomic(partition, field, ...)`` declarations in
    ``repro/flextoe/state.py``.

    Returns ``{field: partition}`` for every declared commutative
    atomic-add counter.
    """
    if state_source is None:
        with open(_flextoe_path("state.py")) as handle:
            state_source = handle.read()
    registry = {}
    tree = ast.parse(state_source)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "atomic":
            continue
        literals = [
            a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)
        ]
        if len(literals) >= 2:
            partition = literals[0]
            for field in literals[1:]:
                registry[field] = partition
    return registry


def _role_of_class(node):
    method_names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    if "Protocol" in node.name:
        return ROLE_PROTOCOL
    if "handle" in method_names and "program" not in method_names:
        return ROLE_MODULE
    if node.name.endswith("Stage") or any(
        m == "program" or m.endswith("_program") for m in method_names
    ):
        return ROLE_STAGE
    return ROLE_HELPER


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
        "role",
        "filename",
        "params",
        "reads",
        "reads_at",
        "writes",
        "calls",
    )

    def __init__(self, qualname, name, class_name, role, filename, params):
        self.qualname = qualname
        self.name = name
        self.class_name = class_name
        self.role = role
        self.filename = filename
        self.params = params  # positional parameter names, 'self' excluded
        self.reads = set()  # (token, attr)
        self.reads_at = set()  # (token, attr, lineno) — hblint needs sites
        self.writes = set()  # (token, attr, lineno, rmw)
        self.calls = []  # (lineno, callee name, arg tokens, is_self_call)


class _FunctionAccess(ast.NodeVisitor):
    """Collects partition/parameter reads, writes, and call sites inside
    one function body.

    Tokens are either a partition name (``pre``/``proto``/``post``) or
    ``param:<name>`` for stores through a formal parameter, resolved to
    the caller's binding during summarization.
    """

    def __init__(self, ownership, role, state_params=(), param_names=()):
        self.ownership = ownership
        self.role = role
        self.reads = set()  # (token, attr)
        self.reads_at = set()  # (token, attr, lineno)
        self.writes = set()  # (token, attr, lineno, rmw)
        self.calls = []  # (lineno, name, args, is_self_call)
        # Local names currently aliasing a partition object or parameter.
        self.aliases = {}
        for param in param_names:
            if param not in ("self", "thread"):
                self.aliases[param] = _PARAM_PREFIX + param
        # Codebase convention: a parameter named ``state`` is the
        # connection's ProtocolState (see ProtocolStage._process_*).
        for param in state_params:
            self.aliases[param] = "proto"

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
            self.reads.add((token, target.attr))
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
        self.generic_visit(node)


def _iter_functions(class_node):
    for node in class_node.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def _collect_function(function, role, ownership, qualname, class_name, filename):
    positional = [a.arg for a in function.args.args if a.arg != "self"]
    state_params = [p for p in positional if p == "state"]
    collector = _FunctionAccess(
        ownership, role, state_params=state_params, param_names=positional
    )
    for statement in function.body:
        collector.visit(statement)
    info = FunctionInfo(qualname, function.name, class_name, role, filename, positional)
    info.reads = collector.reads
    info.reads_at = collector.reads_at
    info.writes = collector.writes
    info.calls = collector.calls
    return info


def build_program(sources, ownership=None):
    """Parse ``[(source, filename), ...]`` into ``{qualname: FunctionInfo}``."""
    if ownership is None:
        ownership = partition_ownership()
    program = {}
    for source, filename in sources:
        tree = ast.parse(source, filename=filename)
        is_proto_logic = os.path.basename(filename) == "proto_logic.py"
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                role = _role_of_class(node)
                for function in _iter_functions(node):
                    qualname = "{}.{}".format(node.name, function.name)
                    program[qualname] = _collect_function(
                        function, role, ownership, qualname, node.name, filename
                    )
            elif isinstance(node, ast.FunctionDef):
                role = ROLE_PROTO_LOGIC if is_proto_logic else ROLE_HELPER
                program[node.name] = _collect_function(
                    node, role, ownership, node.name, None, filename
                )
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
    return _summarize(program, "writes")


def summarize_reads(program):
    """Transitive *read* summaries per function:
    ``{qualname: frozenset((token, attr, lineno, filename, chain))}``.
    The happens-before lint (:mod:`repro.analysis.hblint`) needs read
    footprints — a stale read through a helper is as racy as a write.
    """
    return _summarize(program, "reads_at")[0]


def _ownership_rule(qualname, role, class_name, partition, attr):
    """(code, message) when a write violates partition ownership."""
    if role == ROLE_MODULE:
        # Modules never touch connection state, whichever partition.
        return (
            "module-writes-state",
            "{} writes connection state '{}': modules get one-shot "
            "segment+metadata access only (paper §3.3)".format(qualname, attr),
        )
    if partition == "proto" and role not in (ROLE_PROTOCOL, ROLE_PROTO_LOGIC):
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
    if partition == "post" and not (
        role == ROLE_STAGE and class_name is not None and "Post" in class_name
    ):
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
        if ownership and ownership.get(attr) != partition:
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
        rule = _ownership_rule(info.qualname, info.role, info.class_name, partition, attr)
        if rule is not None:
            code, message = rule
            findings.append(Finding(PASS_STAGE, info.filename, lineno, code, message))
            flagged.add((info.filename, lineno, partition, attr))
    return findings, flagged


def _transitive_violations(program, summaries, ownership, flagged):
    """Findings for writes reaching an entry-role function via calls.

    A write already judged illegal at the function that performs it
    (``flagged``) is not re-reported for every caller; what remains are
    stores that are only illegal because of *who* reached them.
    """
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
            if ownership and ownership.get(attr) != partition:
                continue  # unknown attrs are reported at the writer
            rule = _ownership_rule(info.qualname, info.role, info.class_name, partition, attr)
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


def extract_access_sets(source, filename, ownership=None):
    """Per-function partition read/write sets (compat view).

    Returns ``{qualname: {"role": role, "reads": set, "writes": set}}``
    where set members are ``"partition.attr"`` strings; parameter-token
    accesses are excluded (they have no partition until a call site
    binds them).
    """
    if ownership is None:
        ownership = partition_ownership()
    program = build_program([(source, filename)], ownership)
    access = {}
    for qualname, info in program.items():
        access[qualname] = {
            "role": info.role,
            "reads": {
                "{}.{}".format(t, a)
                for t, a in info.reads
                if isinstance(t, str) and t in PARTITIONS
            },
            "writes": {
                "{}.{}".format(t, a)
                for t, a, _l, _r in info.writes
                if isinstance(t, str) and t in PARTITIONS
            },
            "_raw_writes": {
                (t, a, l) for t, a, l, _r in info.writes if isinstance(t, str) and t in PARTITIONS
            },
        }
    return access


def lint_program(program, ownership):
    """Ownership findings (direct + summary-attributed) for a program."""
    summaries, _cycles = summarize(program)
    findings = []
    flagged = set()
    for info in program.values():
        direct, direct_flagged = _direct_violations(info, ownership)
        findings.extend(direct)
        flagged |= direct_flagged
    findings.extend(_transitive_violations(program, summaries, ownership, flagged))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def lint_source(source, filename, ownership=None):
    """Lint one module's source; returns (access_sets, findings)."""
    if ownership is None:
        ownership = partition_ownership()
    access = extract_access_sets(source, filename, ownership)
    findings = lint_program(build_program([(source, filename)], ownership), ownership)
    return access, findings


def _read_sources(paths):
    sources = []
    for path in paths:
        with open(path) as handle:
            sources.append((handle.read(), path))
    return sources


def lint_stages(paths=None, ownership=None):
    """Run the race lint over the data-path modules; returns findings."""
    if ownership is None:
        ownership = partition_ownership()
    program = build_program(_read_sources(paths or default_paths()), ownership)
    return lint_program(program, ownership)


# -- atomicity of replicated-state writes ---------------------------------


def lint_atomicity(paths=None, ownership=None, registry=None, state_source=None):
    """Classify partition writes reachable from replicated stages.

    Replicated stage instances of a flow group share their partition
    concurrently, so any read-modify-write they perform — directly or
    through helpers — must be a declared commutative atomic-add counter
    (the ``atomic()`` registry in :mod:`repro.flextoe.state`); anything
    else is a lost-update race on hardware (``replicated-unatomic-rmw``).
    ``atomic_add`` calls naming undeclared fields are flagged too
    (``atomic-undeclared-add``).
    """
    if ownership is None:
        ownership = partition_ownership(state_source)
    if registry is None:
        registry = atomic_registry(state_source)
    program = build_program(_read_sources(paths or default_paths()), ownership)
    return lint_atomicity_program(program, ownership, registry)


def lint_atomicity_program(program, ownership, registry):
    summaries, _cycles = summarize(program)
    findings = []
    seen = set()
    for qualname, info in program.items():
        # Only replicated stages race against their own instances; the
        # protocol stage is serialized per flow group and modules are
        # already barred from state entirely.
        if info.role != ROLE_STAGE:
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
            findings.append(
                Finding(
                    PASS_ATOMIC,
                    wfile,
                    wline,
                    "replicated-unatomic-rmw",
                    "{} read-modify-writes {}.{} from a replicated stage: "
                    "concurrent replicas lose updates; declare it atomic() "
                    "or aggregate per-replica".format(writer, token, attr),
                    via=via,
                )
            )
        # atomic_add(obj, "field", ...) must name a declared field.
        for lineno, name, args, _self_call in info.calls:
            if name != "atomic_add" or len(args) < 2:
                continue
            field = args[1]
            if not (isinstance(field, tuple) and field[0] == "lit" and isinstance(field[1], str)):
                continue
            if field[1] not in registry:
                findings.append(
                    Finding(
                        PASS_ATOMIC,
                        info.filename,
                        lineno,
                        "atomic-undeclared-add",
                        "{} calls atomic_add on '{}' which is not in the "
                        "atomic() registry of repro.flextoe.state".format(qualname, field[1]),
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
