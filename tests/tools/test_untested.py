"""``make untested`` reports the lines that ran against the source that
ran (measurement code is code)."""

from tests.tools import untested


def test_a_file_edited_during_the_run_reports_the_lines_that_ran(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n")
    parsed = untested.parse(str(tmp_path))
    hit = {str(source): {2, 3}}  # the run called f(True), as the file read then
    source.write_text('"""A docstring added mid-run."""\n\n\n' + source.read_text())
    assert untested.missed(parsed, hit) == [(1, 3, str(source), [4])]
    # Parsed after the run, the same hits miss every shifted statement.
    assert untested.missed(untested.parse(str(tmp_path)), hit) == [(3, 3, str(source), [5, 6, 7])]
