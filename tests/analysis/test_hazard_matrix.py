"""Which checker catches which pipeline hazard (DESIGN §9).

Each row seeds one hazard into ``repro/flextoe/stages.py`` (or, where
``FILES`` says, another module) as a text edit and checks both sides:

* *static* — the ``hb-race`` findings ``stagelint`` reports over the
  patched stages, in process: ``(pass, partition, field)`` or none;
* *run time* — one sanitized ``repro faults --plan dma-flake`` run (the
  ownership sanitizer, the HB monitor and the data path's always-on
  checks) against a copy of the package with the edit applied: the
  exception class and a fragment of its message, or a clean run. DMA
  retries reorder DMA completions; a post-stage reorder needs FPC stalls,
  so H5a runs ``nic-pressure`` instead.

A row whose run-time side is clean is a hazard only the lint sees; that is
why the lint stays. The unpatched tree is clean on both sides. H11 and H12
are the kernel's (DESIGN §12 rule 3): an in-place advance that ignores the
same-instant queue, which only the sanitizer's queue check sees, and a
merge of the queue and the heap by time alone. No fault plan reaches H12
(the data path makes no hold of no time, the one entry pushed for ``now``
under a key above the queue's), so ``TESTS`` names the kernel tests that
must fail over its patched package: the sanitized one and the oracle.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

import repro
from repro.analysis import stagelint

PACKAGE = os.path.dirname(repro.__file__)
STAGES = os.path.join(PACKAGE, "flextoe", "stages.py")

#: In ``PostStage.process``, once the record is known live.
POST_BODY = "        post = record.post\n        cycles = POST_STATS\n"
#: In ``DmaStage._rx_deliver``: the ACK rides the last notification.
PIGGYBACK = (
    "        if notifications and ack_frame is not None:\n"
    "            notifications[-1].piggyback_ack = ack_frame\n"
    "            ack_frame = None\n"
)
#: In ``PreStage._rx_steered``: the admitted segment is offered to the RX GRO.
RX_OFFER = "        self.dp.rx_gro.offer(thread.work)\n"


def _wait(step):
    """A replicated stage's fence step: its turn waits on its predecessor's
    before ``step``, the ordered emission (the post stage's ``_emit`` into
    ``dma_ring``, the DMA stage's ``_rx_deliver``, ARX's ``_arx_deliver``)."""
    return "        if thread.turn.blocked():\n            return thread.wait(thread.turn.prev, self.{0})\n".format(step)


def _after(anchor, line):
    return (anchor, anchor + line)


#: id -> (edit (old, new), static finding (pass, partition, field) or
#: None, run-time outcome (exception class, message fragment) or None).
HAZARDS = {
    "H1": (
        _after(POST_BODY, "        record.proto.remote_win = record.proto.remote_win\n"),
        ("hb-race", "proto", "remote_win"),
        ("SanitizerError", "wrote ProtocolState.remote_win"),
    ),
    "H2": (
        _after(POST_BODY, "        record.pre.flow_group = record.pre.flow_group\n"),
        ("hb-race", "pre", "flow_group"),
        ("SanitizerError", "write to PreprocState.flow_group"),
    ),
    "H3": (_after(POST_BODY, "        post.rx_size += 0\n"), ("hb-race", "post", "rx_size"), None),
    "H3'": (_after(POST_BODY, "        post.rate += 0\n"), ("hb-race", "post", "rate"), None),
    "H3''": (_after(POST_BODY, "        post.rate = 5\n"), ("hb-race", "post", "rate"), None),
    "H4": (
        _after(POST_BODY, '        cycles += atomic_add(post, "rx_size", 0)\n'),
        ("hb-race", "post", "rx_size"),
        ("ValueError", "atomic_add on 'rx_size': not declared"),
    ),
    # An RX ticket taken again just before the GRO offer: the one the
    # segment entered with is never offered nor skipped.
    "H6": ((RX_OFFER, "        self.dp.rx_seqr.assign(thread.work)\n" + RX_OFFER), None,
           ("SequencingError", "already holds ticket")),
    # Each fence step goes straight on to its ordered emission.
    "H5a": ((_wait("_emit"), ""), None, ("HBViolationError", "post_chain fence contract")),
    "H5b": ((_wait("_rx_deliver"), ""), None, ("HBViolationError", "dma_rx_chain fence")),
    "H5c": ((_wait("_arx_deliver"), ""), None, ("HBViolationError", "ARX chain fence")),
    "H7": ((PIGGYBACK, ""), None, ("HBViolationError", "write-ahead rule violated")),
    "H8": (
        ("ts_ecr=work.snapshot.echo_ts\n", "ts_ecr=work.record.proto.next_ts\n"),
        ("hb-race", "proto", "next_ts"),
        None,
    ),
    "H9": (_after(POST_BODY, "        post.bogus_field = 1\n"), None, ("AttributeError", "bogus_field")),
    "H10": (
        (RX_OFFER, "        thread.work.record.pre.flow_group = 0\n" + RX_OFFER),
        ("hb-race", "pre", "flow_group"),
        ("SanitizerError", "write to PreprocState.flow_group"),
    ),
    "H11": (
        (
            "        if heap and heap[0][0] <= when or self._queue:  # the common answer first\n",
            "        if heap and heap[0][0] <= when:  # the common answer first\n",
        ),
        None,
        ("SanitizerError", "while the queue held"),
    ),
    "H12": (
        (
            "\n                    if heap and heap[0] < queue[0]:\n",  # the merge in run()'s one loop
            "\n                    if heap and heap[0][0] <= queue[0][0]:\n",
        ),
        None,
        None,
    ),
}
#: The fault plan a row runs under, where not ``dma-flake``.
PLANS = {"H5a": "nic-pressure"}
#: The module a row edits, where not ``flextoe/stages.py``.
FILES = {"H11": "sim/core.py", "H12": "sim/core.py"}
QUEUE_TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "sim",
                           "test_same_instant_queue.py")
#: Row -> ((test in QUEUE_TESTS, the exception it must fail with), ...)
#: over the patched package.
TESTS = {
    "H12": (
        ("test_heap_entries_at_now_interleave_with_the_queue_by_key", "SanitizerError"),
        ("test_the_queue_changes_the_event_count_and_nothing_else", "AssertionError"),
    ),
}


def _patched(edit, module="flextoe/stages.py"):
    with open(os.path.join(PACKAGE, module)) as handle:
        source = handle.read()
    if edit is None:
        return source
    old, new = edit
    assert source.count(old) == 1, "the seed's anchor must occur once in " + module
    return source.replace(old, new)


def _static(source):
    """``{(pass, partition, field)}`` of the lint's findings over the data
    path with ``source`` as its stages.py."""
    sources = [(source if path == STAGES else text, path) for text, path in stagelint.read_sources(stagelint.default_paths())]
    findings = stagelint.lint_hb(stagelint.build_program(sources))
    return {(f.pass_name,) + re.search(r"\b(pre|proto|post)\.(\w+)", f.message).groups() for f in findings}


def _package(source, tmp_path, module):
    """``tmp_path/src``, holding a copy of the package with ``source`` as its ``module``."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, str(root / "repro"), ignore=shutil.ignore_patterns("__pycache__"))
    (root / "repro" / module).write_text(source)
    return root


def _run_time(source, tmp_path, plan, module="flextoe/stages.py"):
    """``(exception class, last stderr line)`` of one sanitized fault-plan
    run over a copy of the package with ``source`` as its ``module``, or
    None for a clean run."""
    root = _package(source, tmp_path, module)
    env = dict(os.environ, PYTHONPATH=str(root), REPRO_SANITIZE="1", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "repro", "faults", "--plan", plan, "--seed", "7", "--bytes", "60000"]
    run = subprocess.run(command, env=env, cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    if run.returncode == 0:
        return None
    last = (run.stderr.strip() or run.stdout.strip()).splitlines()[-1]
    return last.split(":")[0].rsplit(".", 1)[-1], last


@pytest.mark.parametrize("plan", sorted({"dma-flake"} | set(PLANS.values())))
def test_the_unpatched_tree_is_clean_on_both_sides(plan, tmp_path):
    source = _patched(None)
    assert _static(source) == set()
    assert _run_time(source, tmp_path, plan) is None


@pytest.mark.parametrize("hazard", sorted(HAZARDS))
def test_hazard(hazard, tmp_path):
    edit, static, run_time = HAZARDS[hazard]
    module = FILES.get(hazard, "flextoe/stages.py")
    source = _patched(edit, module)
    stages = source if module == "flextoe/stages.py" else _patched(None)
    assert _static(stages) == ({static} if static else set())
    outcome = _run_time(source, tmp_path, PLANS.get(hazard, "dma-flake"), module)
    if run_time is None:
        assert outcome is None, "the run-time checks see it now: {}".format(outcome)
    else:
        assert outcome is not None, "a clean run: no run-time check caught {}".format(hazard)
        name, line = outcome
        assert name == run_time[0] and run_time[1] in line, line
    for test, error in TESTS.get(hazard, ()):
        assert _test_failure(tmp_path / "src", test) == error, test


def _test_failure(root, test):
    """The exception class ``test`` in ``QUEUE_TESTS`` fails with over the
    package under ``root``, or None when it passes."""
    command = [sys.executable, "-m", "pytest", "-q", "--tb=line", "-p", "no:cacheprovider", QUEUE_TESTS + "::" + test]
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_SANITIZE", None)
    run = subprocess.run(command, env=env, cwd=str(root.parent), capture_output=True, text=True, timeout=300)
    if run.returncode == 0:
        return None
    first = next(line for line in run.stdout.splitlines() if line.startswith("E   "))
    return first[4:].split(":")[0].rsplit(".", 1)[-1]
