"""Report rendering, finding identity, and the --baseline diff mode."""

import json

import pytest

from repro.analysis import cli
from repro.analysis.report import (
    PASS_HB,
    Finding,
    diff_findings,
    load_report,
    render_json,
    render_text,
)


def _finding(code="hb-race", path="/a/src/repro/flextoe/stages.py", line=10, message="m"):
    return Finding(PASS_HB, path, line, code, message)


def test_json_report_carries_via_chain():
    finding = Finding(PASS_HB, "f.py", 3, "hb-race", "msg", via=("A.p", "helper"))
    document = json.loads(render_json([finding]))
    assert document["findings"][0]["via"] == ["A.p", "helper"]
    assert "via A.p -> helper" in render_text([finding])


def test_diff_ignores_line_drift_and_checkout_prefix():
    baseline = json.loads(render_json([_finding(line=10)]))
    # Same finding from another checkout, shifted by an unrelated edit.
    fresh = _finding(path="/other/machine/repro/flextoe/stages.py", line=42)
    assert diff_findings([fresh], baseline) == []


def test_diff_reports_only_new_findings():
    baseline = json.loads(render_json([_finding(message="old")]))
    old = _finding(message="old")
    new = _finding(message="new", path="/a/src/repro/flextoe/datapath.py")
    assert diff_findings([old, new], baseline) == [new]


def test_diff_against_empty_baseline_keeps_everything():
    baseline = json.loads(render_json([]))
    finding = _finding()
    assert diff_findings([finding], baseline) == [finding]


def test_pipeline_passes_parse_each_data_path_module_once(monkeypatch, tmp_path):
    # hb-race parses each data-path module once; declarations (state.py's
    # fields and atomic() registry) are imported, never re-parsed. An
    # empty --root keeps sim-process, which walks the whole tree
    # separately, out of the count.
    import ast

    from repro.analysis import stagelint

    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    findings, checked = cli.run_all(str(tmp_path))
    assert findings == []
    assert parsed == stagelint.default_paths() and len(parsed) == 6
    assert sorted(checked) == ["hb-race", "sim-process", "xdp-deadcode", "xdp-verifier"]
    assert checked["hb-race"] == 32


@pytest.fixture
def fake_run_all(monkeypatch):
    state = {"findings": []}

    def run_all(root=None):
        return list(state["findings"]), {"hb-race": 1}

    monkeypatch.setattr(cli, "run_all", run_all)
    return state


def test_cli_baseline_suppresses_known_findings(fake_run_all, tmp_path, capsys):
    fake_run_all["findings"] = [_finding(message="known")]
    baseline_path = tmp_path / "baseline.json"
    assert cli.main(["--json"]) == 1
    baseline_path.write_text(capsys.readouterr().out)

    # Same findings against the baseline: clean exit.
    assert cli.main(["--baseline", str(baseline_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline-accepted" in out

    # A new finding still fails.
    fake_run_all["findings"].append(_finding(message="fresh regression", line=99))
    assert cli.main(["--baseline", str(baseline_path)]) == 1
    assert "fresh regression" in capsys.readouterr().out


def test_cli_without_baseline_fails_on_any_finding(fake_run_all):
    fake_run_all["findings"] = [_finding()]
    assert cli.main([]) == 1
    fake_run_all["findings"] = []
    assert cli.main([]) == 0


def test_load_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(render_json([_finding()], {"hb-race": 32}))
    document = load_report(str(path))
    assert document["version"] == 3
    assert document["summary"]["checked"]["hb-race"] == 32
