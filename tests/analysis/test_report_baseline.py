"""Report rendering and the lint's one gate: every finding fails the run,
and each pass checks the units it is pinned to (a pass that silently
checks fewer fails here). There is no baseline file."""

import json

import pytest

from repro.analysis import cli
from repro.analysis.report import PASS_HB, Finding, render_json, render_text

#: What each pass checks over the package: builtin XDP programs (twice),
#: stage-touched connection-state fields, and ``.py`` files.
CHECKED = {"hb-race": 30, "sim-process": 119, "xdp-deadcode": 6, "xdp-verifier": 6}


def _finding(code="hb-race", path="/a/src/repro/flextoe/stages.py", line=10, message="m"):
    return Finding(PASS_HB, path, line, code, message)


def test_json_report_carries_via_chain():
    finding = Finding(PASS_HB, "f.py", 3, "hb-race", "msg", via=("A.p", "helper"))
    document = json.loads(render_json([finding]))
    assert document["findings"][0]["via"] == ["A.p", "helper"]
    assert "via A.p -> helper" in render_text([finding])


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
    assert checked == dict(CHECKED, **{"sim-process": 0})


def test_the_package_is_clean_and_every_pass_checks_its_units():
    findings, checked = cli.run_all()
    assert findings == []
    assert checked == CHECKED


@pytest.fixture
def fake_run_all(monkeypatch):
    state = {"findings": []}

    def run_all(root=None):
        return list(state["findings"]), {"hb-race": 1}

    monkeypatch.setattr(cli, "run_all", run_all)
    return state


def test_cli_without_baseline_fails_on_any_finding(fake_run_all):
    fake_run_all["findings"] = [_finding()]
    assert cli.main([]) == 1
    fake_run_all["findings"] = []
    assert cli.main([]) == 0

