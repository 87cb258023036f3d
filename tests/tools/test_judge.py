"""What every BASE-against-here tool rests on (measurement code is code)."""

import ast
import contextlib
import pathlib
import sys

import pytest

from tests.tools import judge

ROW = "{:16s} {:18s} {:>14s} {:>14s} {:>9s}  {}"  # a row of perf/compare.py's table


def _runs_git_archive(path):
    if path.name == "Makefile":  # a recipe line
        return any(line.startswith("\t") and "git archive" in line for line in path.read_text().splitlines())
    return any(isinstance(node, (ast.List, ast.Tuple)) and [getattr(item, "value", None) for item in node.elts[:2]]
               == "git archive".split() for node in ast.walk(ast.parse(path.read_text())))


def test_one_module_gets_base():
    root = pathlib.Path(judge.ROOT)
    files = [root / "Makefile"] + sorted((root / "tests" / "tools").glob("*.py"))
    assert [path.name for path in files if _runs_git_archive(path)] == ["judge.py"]


def _verdict(*rows):
    header = ("workload", "metric", "A", "B", "B worse", "verdict")
    return judge.exact_verdict("\n".join(ROW.format(*row) for row in (header,) + rows))


def test_perf_exact_holds_on_identical_exact_rows_only():
    same = tuple(("echo-small", name, "1", "1", "+0.00%", "same") for name in judge.EXACT)
    assert _verdict(*same) == (True, ["perf-exact: 5 exact rows hold"])
    assert _verdict(("echo-small", "wall_s", "1", "2", "+100.00%", "worse  (differs)")) == (False, [])
    assert not _verdict(*same, ("echo-small", "events_per_op", "90", "99", "+10.00%", "worse  (differs)"))[0]
    for name in judge.EXACT[1:]:
        nudged = ("echo-small", name, "1", "1.00001", "+0.00%", "same  (differs)")
        assert _verdict(*same, nudged) == (False, ["perf-exact: " + ROW.format(*nudged)])
    better = ("echo-small", "events_per_op", "99", "90", "-9.09%", "better  (differs)")
    assert _verdict(*same, better) == (True, ["perf-exact: 6 exact rows hold"])


@pytest.mark.parametrize("flipped", [None, ("base", "plans"), ("here", "nic-crash")])
def test_faults_exact_fails_on_one_differing_byte(monkeypatch, tmp_path, capsys, flipped):
    def run(tree, command, **env):  # writes the artefact the command names
        side, artefact = "here" if tree == judge.ROOT else "base", pathlib.Path(command[-1])
        artefact.write_bytes(b"{}" if (side, artefact.stem) == flipped else b"[]")

    monkeypatch.setattr(judge, "base_tree", lambda ref: contextlib.nullcontext(str(tmp_path)))
    monkeypatch.setattr(judge, "run", run)
    assert judge.faults_exact("BASE") == (1 if flipped else 0)
    assert ("differs" in capsys.readouterr().out) == bool(flipped)


@pytest.mark.parametrize("script", ["print('made'); raise SystemExit(3)", "print('made')", "pass"])
def test_a_side_that_fails_or_prints_no_json_ends_the_run_with_its_output(tmp_path, capsys, script):
    with pytest.raises(SystemExit) as ended:
        judge.read(str(tmp_path), [sys.executable, "-c", "import sys; sys.stderr.write('said'); " + script])
    assert ended.value.code == 2
    assert capsys.readouterr().err == ("made\n" if "made" in script else "") + "said"


def perf_mark():
    """A measure: the mark of the ``perf`` its side imports."""
    import perf

    return perf.MARK


def test_a_side_runs_this_trees_tool_over_that_sides_perf(tmp_path):
    (tmp_path / "perf").mkdir()
    (tmp_path / "perf" / "__init__.py").write_text("MARK = 'that side'\n")
    assert judge.side(str(tmp_path), perf_mark) == "that side"
