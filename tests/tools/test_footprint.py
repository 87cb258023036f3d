"""When ``make footprint`` calls a resident-memory delta resolved
(measurement code is code)."""

import pathlib

from tests.tools import footprint, judge
from tests.tools.footprint import median_delta


def test_only_a_delta_wider_than_both_spreads_is_resolved():
    assert median_delta([10, 11, 12], [13, 14, 15]) == (3, True)
    assert median_delta([10, 11, 12], [9, 10.5, 12]) == (-0.5, False)
    # Wider than one side's spread, inside the other's.
    assert median_delta([10, 10, 10], [10, 11, 14]) == (1, False)
    assert median_delta([10, 10, 10.5], [11, 12, 12]) == (2, True)
    # Identical runs: even no difference is all the runs can tell.
    assert median_delta([7, 7, 7], [7, 7, 7]) == (0, False)


def test_the_two_sides_run_from_paths_of_one_length(monkeypatch):
    # The length of the path code is loaded from alone moves resident
    # memory (~0.2 MiB), so this side runs from a copy of the working
    # tree whose path is as long as BASE's archive's.
    seen = {}

    def sides(trees, workload):
        here = pathlib.Path(trees["here"])
        seen.update(trees, copied=(here / "tests/tools/footprint.py").read_bytes())
        return {"base": None, "here": None}

    monkeypatch.setattr(footprint, "sides", sides)
    monkeypatch.setattr(footprint, "report", lambda *args: None)
    assert footprint.main(["--base", "HEAD", "--workload", "echo-small"]) == 0
    assert seen["here"] != judge.ROOT and len(seen["here"]) == len(seen["base"])
    assert seen["copied"] == pathlib.Path(judge.ROOT, "tests/tools/footprint.py").read_bytes()
