"""Golden digests of the verifier's per-instruction states.

For each of the six builtin XDP programs, the SHA-256 of the abstract
state :func:`verify_states` computes on entry to every instruction —
registers, proven packet bytes, initialized stack bytes and
variable-offset packet proofs — is compared against
``verifier_states.json``. Accept/reject tests cannot see a verifier
refactor that proves *less* (or something else) about a program it
still admits; this can: any change to the domain, a transfer or the
meet moves a digest.

When a PR changes what the verifier proves on purpose, re-pin with::

    PYTHONPATH=src python tests/analysis/test_verifier_states_golden.py --update

and commit ``verifier_states.json`` with the reason. The script prints
old and new digests so drift nobody meant is visible at review.
"""

import hashlib
import json
import os

import pytest

from repro.analysis.verifier import verify_states
from repro.xdp.builtins import ASM_BUILTINS

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "verifier_states.json")


def states_digest(name):
    program, maps = ASM_BUILTINS[name]()
    hasher = hashlib.sha256()
    for state in verify_states(program, maps):
        # repr() shows the live registers and pkt_valid only.
        line = "{!r} stack={:x} checked={}\n".format(
            state, state.stack_init, sorted(state.pkt_checked.items())
        )
        hasher.update(line.encode())
    return {"digest": hasher.hexdigest(), "insns": len(program)}


def load_goldens():
    with open(GOLDENS_PATH) as source:
        return json.load(source)


def test_every_builtin_is_pinned():
    assert sorted(load_goldens()) == sorted(ASM_BUILTINS)


@pytest.mark.parametrize("name", sorted(ASM_BUILTINS))
def test_verifier_states_digest(name):
    assert states_digest(name) == load_goldens()[name], (
        "{}: the verifier's states changed. If intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/analysis/test_verifier_states_golden.py --update".format(name)
    )


def update_goldens():
    try:
        old = load_goldens()
    except (OSError, ValueError):
        old = {}
    fresh = {}
    for name in sorted(ASM_BUILTINS):
        fresh[name] = states_digest(name)
        previous = old.get(name, {}).get("digest", "<none>")
        marker = "(unchanged)" if previous == fresh[name]["digest"] else "(was {})".format(previous[:16])
        print("%-9s %s  %s" % (name, fresh[name]["digest"], marker))
    with open(GOLDENS_PATH, "w") as out:
        json.dump(fresh, out, indent=2)
        out.write("\n")
    print("wrote {}".format(GOLDENS_PATH))


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        update_goldens()
    else:
        print(__doc__)
        sys.exit(2)
