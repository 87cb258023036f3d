"""When ``make footprint`` calls a resident-memory delta resolved
(measurement code is code)."""

import pathlib

from tests.tools import footprint, judge
from tests.tools.footprint import median_delta, per_lifecycle


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


def run(ops, set_up, measured, held=None, rows=(171, 118)):
    """A ``measure`` result: VmRSS after set-up and the measured phase,
    (traced) the bytes held per layer after each, and the slab rows' widths."""
    return {"ops": ops, "extras": {}, "rss": {"import": 0, "set-up": set_up, "measured": measured, "peak": measured},
            "held": held or {}, "row bytes": dict(zip(("CONN_SLAB", "SHADOW_SLAB"), rows))}


def test_a_lifecycle_costs_the_measured_phase_growth_over_its_ops(capsys):
    held = {"set-up": {"bytes": {"host": 1000, "sim.core": 500}},
            "measured": {"bytes": {"host": 9000, "sim.core": 300, "libtoe": 200}}}
    side = {"resident": [run(80, 100, 100 + 80 * 4096), run(80, 100, 100 + 80 * 5000), run(80, 300, 300)],
            "traced": run(80, 0, 0, held)}
    # Resident: the median of the runs' deltas; traced: 8 000 B more held.
    assert per_lifecycle(side) == {"resident": 4096, "traced": 100}
    footprint.report("HEAD", "conn-churn", side, side)
    rows = capsys.readouterr().out.split("per lifecycle (B)")[1].splitlines()
    assert rows[1].split() == ["resident", "4096.0", "4096.0", "+0.0"]
    assert rows[2].split() == ["traced", "100.0", "100.0", "+0.0"]
    footprint.report("HEAD", "echo-small", side, side)
    assert "per lifecycle" not in capsys.readouterr().out


def test_the_slab_rows_widths_print_beside_the_resident_delta(capsys):
    held = {phase: {"bytes": {"host": 1000}} for phase in footprint.PHASES}
    base = {"resident": [run(80, 100, 100)], "traced": run(80, 0, 0, held, rows=(191, 142))}
    here = {"resident": [run(80, 100, 100)], "traced": run(80, 0, 0, held)}
    footprint.report("HEAD", "echo-small", base, here)
    rows = capsys.readouterr().out.split("row width (B per slot)")[1].splitlines()
    assert rows[1].split() == ["CONN_SLAB", "191", "171", "-20"]
    assert rows[2].split() == ["SHADOW_SLAB", "142", "118", "-24"]
