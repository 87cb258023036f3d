"""Where a wake may run in place: ``Simulator._wake`` and ``deliver()``
run the woken waiters there and then (DESIGN §12 rule 3), which is the
order of a pushed wake only when nothing follows them in the dispatch.
So does ``Simulator._run_here``, which dispatches a fired event in place:
an engine hold's sleep (``Hold._turn``) and a put's ride
(``StorePut._ride``, a put handed to a parked get dispatched as that
get's last callback). Every such call under ``src/repro`` — and each
link of the chain that carries an arriving frame from the wire to its
``deliver()`` — must be a tail call of its function, and at a site
listed here, so that a new one is reviewed against that rule.
(``REPRO_SANITIZE=1`` catches a push after an in-place wake, and a ride
that is not its get's last callback, in a run; this covers what no run
reaches.)"""

import ast
import pathlib

REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
#: The callee names checked: the wakes, the in-place dispatch, and the
#: frame arrival chain's links.
CALLEES = {"_wake", "_run_here", "deliver", "receiver", "rx_handler"}
#: (file, function, callee) of every call of one of them.
SITES = {
    ("nfp/dma.py", "_DmaOp._complete", "_wake"),  # a DMA completion
    ("nfp/pcie.py", "PcieBlock.ring.fire", "_wake"),  # a doorbell landing
    ("sim/resources.py", "Store.deliver", "_wake"),  # a parked get
    ("sim/resources.py", "Hold._turn", "_run_here"),  # an engine hold's sleep
    ("sim/resources.py", "StorePut._ride", "_run_here"),  # a put after the get it served
    ("nfp/queues.py", "_Ring.deliver", "deliver"),
    # A frame arriving: link -> port -> MAC -> data path / baseline stack.
    ("net/link.py", "_Direction._arrive", "deliver"),
    ("net/link.py", "Port.deliver", "receiver"),
    ("nfp/mac.py", "MacBlock._on_rx", "rx_handler"),
    ("flextoe/datapath.py", "FlexToeDatapath._on_mac_rx", "deliver"),
    ("baselines/stack.py", "BaselineHost._on_rx_frame", "deliver"),
    ("baselines/stack.py", "BaselineHost._irq", "deliver"),  # the interrupt delay's end
    # A listener's deliver() succeeds an accept() (a pushed wake).
    ("control/plane.py", "ControlPlane._establish", "deliver"),
}


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _tail_calls(body):
    """The calls a statement list ends with: a call statement or returned
    call last in it, or in the last statement's branches if it is an
    ``if``."""
    if not body:
        return
    last = body[-1]
    if isinstance(last, (ast.Expr, ast.Return)) and isinstance(last.value, ast.Call):
        yield last.value
    elif isinstance(last, ast.If):
        yield from _tail_calls(last.body)
        yield from _tail_calls(last.orelse)


def _own_calls(body):
    """The calls in a statement list, not in a function nested in it."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def sites():
    """``{(file, function, callee): whether every such call is a tail
    call}`` over src/repro."""
    found = {}

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Lambda):
                inner = scope + ["<lambda>"]
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                body = child.body if isinstance(child, ast.FunctionDef) else [ast.Expr(child.body)]
                tails = set(map(id, _tail_calls(body)))
                for call in _own_calls(body):
                    if _callee(call) in CALLEES:
                        key = (path, ".".join(inner), _callee(call))
                        found[key] = found.get(key, True) and id(call) in tails
            visit(child, inner, path)

    for file in sorted(REPRO.rglob("*.py")):
        visit(ast.parse(file.read_text()), [], file.relative_to(REPRO).as_posix())
    return found


def test_every_wake_is_a_tail_call_at_a_listed_site():
    found = sites()
    assert set(found) == SITES, "new: {}; gone: {}".format(set(found) - SITES, SITES - set(found))
    assert [site for site, tail in found.items() if not tail] == []


def test_the_check_sees_a_call_followed_by_anything():
    tree = ast.parse(
        "def ok(x):\n    if x:\n        a._wake(e)\n    else:\n        return b.deliver(f)\n"
        "def after(x):\n    a._wake(e)\n    x += 1\n"
        "def nested(x):\n    if not a.deliver(f):\n        skip()\n"
    )
    for function, expected in zip(tree.body, (2, 0, 0)):
        wakes = [call for call in _tail_calls(function.body) if _callee(call) in CALLEES]
        assert len(wakes) == expected, function.name
