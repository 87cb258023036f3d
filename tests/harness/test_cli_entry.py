"""``python -m repro`` argument handling (no simulation runs here)."""

import pytest

from repro.__main__ import COMMANDS, build_parser, main


def test_help_advertises_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "{lint,faults}" in out
    assert sorted(COMMANDS) == ["faults", "lint"]
    assert "bench" not in out  # perf/ is the only performance instrument


def test_commands_registry_matches_parser():
    parser = build_parser()
    usage = parser.format_help()
    for command in COMMANDS:
        assert command in usage


def test_unknown_command_is_an_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_bench_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--quick"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_faults_option_reaches_subparser_verbatim(capsys):
    # The bpo-17050 regression: a leading optional after the subcommand
    # must reach the subsystem parser, not die at the top level.
    with pytest.raises(SystemExit) as excinfo:
        main(["faults", "--help"])
    assert excinfo.value.code == 0
    assert "--list" in capsys.readouterr().out


def test_faults_list_forwards_to_subparser(capsys):
    assert main(["faults", "--list"]) == 0
    assert capsys.readouterr().out.strip()
