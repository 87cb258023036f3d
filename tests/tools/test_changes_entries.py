"""CHANGES.md is read in full before every change, so each entry stays a
summary: at most ``ENTRY_BYTES`` bytes of UTF-8. An entry is a top-level
``- `` bullet and everything up to the next one; the long form of a change
belongs in its commit message."""

import pathlib
import re

CHANGES = pathlib.Path(__file__).resolve().parents[2] / "CHANGES.md"
ENTRY_BYTES = 1200


def test_every_changes_entry_is_a_summary():
    entries = re.split(r"\n(?=- )", CHANGES.read_text(encoding="utf-8"))
    over = [(len(entry.encode()), entry[:60]) for entry in entries if len(entry.encode()) > ENTRY_BYTES]
    assert not over, over
