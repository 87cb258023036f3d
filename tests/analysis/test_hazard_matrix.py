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
why the lint stays. The unpatched tree is clean on both sides. H11 is the
kernel's: an in-place advance that ignores the same-instant queue (DESIGN
§12 rule 3), which only the sanitizer's queue check sees.
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
POST_BODY = "        post = record.post\n        cycles = costs.post_stats\n"
#: A replicated stage's fence wait: its turn waits on its predecessor's.
WAIT = "            if turn.blocked():\n                yield turn.prev\n"
#: In ``PostStage.program``: the wait, then the emit into ``dma_ring``.
POST_EMIT = WAIT + "            if emit:\n                yield dp.dma_ring.put(work)\n"
#: What follows the wait in ``DmaStage.process`` (RX) and ``CtxStage.arx_program``.
DMA_NEXT = "            # Payload is in host memory."
ARX_NEXT = "            piggyback = notification.piggyback_ack"
#: In ``DmaStage.process`` (RX): the ACK rides the last notification.
PIGGYBACK = (
    "            if notifications and ack_frame is not None:\n"
    "                notifications[-1].piggyback_ack = ack_frame\n"
    "                ack_frame = None\n"
)


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
    # The emit moves ahead of the wait; ``if emit: pass`` keeps the
    # ``else: dp.retire(work)`` that follows attached to the same test.
    "H5a": (
        (
            POST_EMIT,
            "            if emit:\n                yield dp.dma_ring.put(work)\n"
            + WAIT
            + "            if emit:\n                pass\n",
        ),
        None,
        ("HBViolationError", "post_chain fence contract"),
    ),
    "H5b": ((WAIT + DMA_NEXT, DMA_NEXT), None, ("HBViolationError", "dma_rx_chain fence")),
    "H5c": ((WAIT + ARX_NEXT, ARX_NEXT), None, ("HBViolationError", "ARX chain fence")),
    "H7": ((PIGGYBACK, ""), None, ("HBViolationError", "write-ahead rule violated")),
    "H8": (
        ("ts_ecr=work.snapshot.echo_ts\n", "ts_ecr=record.proto.next_ts\n"),
        ("hb-race", "proto", "next_ts"),
        None,
    ),
    "H9": (_after(POST_BODY, "        post.bogus_field = 1\n"), None, ("AttributeError", "bogus_field")),
    "H10": (
        ("            dp.rx_gro.offer(work)\n", "            work.record.pre.flow_group = 0\n            dp.rx_gro.offer(work)\n"),
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
}
#: The fault plan a row runs under, where not ``dma-flake``.
PLANS = {"H5a": "nic-pressure"}
#: The module a row edits, where not ``flextoe/stages.py``.
FILES = {"H11": "sim/core.py"}


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


def _run_time(source, tmp_path, plan, module="flextoe/stages.py"):
    """``(exception class, last stderr line)`` of one sanitized fault-plan
    run over a copy of the package with ``source`` as its ``module``, or
    None for a clean run."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, str(root / "repro"), ignore=shutil.ignore_patterns("__pycache__"))
    (root / "repro" / module).write_text(source)
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
