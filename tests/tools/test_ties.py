"""What ``make ties`` rests on (measurement code is code): it reorders
same-instant events by rebinding the one ``heappush`` the kernel calls, so
nothing else may push; seed 0 is today's run; another seed is another
order of the same events."""

import ast
import pathlib

from perf import harness, spec, workloads
from repro.sim import Simulator
from tests.tools.ties import read, splitmix64, tie_order

REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
#: The modules whose ``heappush`` :func:`tie_order` rebinds.
PUSHERS = {"sim/core.py", "sim/resources.py"}


def test_no_module_but_the_kernel_imports_heappush():
    importers = set()
    for path in REPRO.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "heapq" for alias in node.names):
                importers.add(path.relative_to(REPRO).as_posix())
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                importers.add(path.relative_to(REPRO).as_posix())
    assert importers == PUSHERS


def test_seed_0_reproduces_the_harness_digest():
    sizes = workloads.TINY["echo-small"]
    plain = harness.run_rep("echo-small", spec.DEFAULT_SEED, sizes)
    tied = read("echo-small", 0, sizes)
    assert not plain["problems"] and tied["problems"] == []
    assert tied["digest"] == plain["digest"]


def _order(seed, ties=6):
    sim = Simulator()
    fired = []
    with tie_order(seed):
        for i in range(ties):
            sim._schedule(5, lambda _step, i=i: fired.append(i))
        sim._schedule(4, lambda _step: fired.append("first"))
    sim.run()
    return fired


def test_a_tie_seed_reorders_ties_only():
    assert _order(0) == ["first", 0, 1, 2, 3, 4, 5]
    orders = {tuple(_order(seed)) for seed in range(1, 9)}
    assert all(order[0] == "first" and sorted(order[1:]) == list(range(6)) for order in orders)
    assert len(orders) > 1


def test_splitmix64_keys_never_tie():
    for seed in (1, 7):
        keys = {splitmix64(seq, seed) for seq in range(1, 5_000)}
        assert len(keys) == 4_999 and max(keys) < 1 << 64
