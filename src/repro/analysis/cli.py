"""``python -m repro lint`` / ``repro-lint``: run all analysis passes.

Four passes over the tree, one exit code:

1. **xdp-verifier** — every builtin XDP assembly program must pass the
   CFG dataflow verifier (:mod:`repro.analysis.verifier`);
2. **xdp-deadcode** — no refinement-unreachable instructions or
   never-observed stack stores in the builtins
   (:mod:`repro.analysis.deadcode`);
3. **hb-race** — every connection-state field a pipeline stage touches,
   through any helper call depth, is immutable, atomic, or owned by the
   one non-replicated stage kind its partition is named after
   (:func:`repro.analysis.stagelint.lint_hb`);
4. **sim-process** — no wall-clock time, global RNG, or non-event
   yields in simulation code (:mod:`repro.analysis.simlint`).

Exit status 0 when clean, 1 when any pass reports findings, so CI can
gate on it directly. ``--json`` (or ``--format=json``) emits the stable
machine-readable report from :mod:`repro.analysis.report`;
``--format=github`` prints GitHub Actions ``::warning`` annotations.
There is no baseline: every finding fails the run.
"""

import argparse
import sys

from repro.analysis.report import (
    PASS_DEADCODE,
    PASS_HB,
    PASS_SIM,
    PASS_XDP,
    Finding,
    finding_sort_key,
    render_github,
    render_json,
    render_text,
)


def _builtin_factories():
    from repro.xdp.builtins import ASM_BUILTINS

    return sorted(ASM_BUILTINS.items())


def _verify_builtins():
    """Run the CFG verifier over the builtin assembly programs."""
    from repro.analysis.verifier import VerifierError, verify

    factories = _builtin_factories()
    findings = []
    for name, factory in factories:
        program, maps = factory()
        try:
            verify(program, maps)
        except VerifierError as exc:
            findings.append(
                Finding(
                    PASS_XDP,
                    "repro/xdp/builtins/{}".format(name),
                    0,
                    "verifier-reject",
                    str(exc),
                )
            )
    return findings, len(factories)


def _deadcode_builtins():
    """Dead-code/dead-store lint over the builtin assembly programs."""
    from repro.analysis import deadcode

    findings = []
    factories = _builtin_factories()
    for name, factory in factories:
        program, maps = factory()
        for code, index, message in deadcode.lint_program(name, program, maps):
            findings.append(
                Finding(PASS_DEADCODE, "repro/xdp/builtins/{}".format(name), index, code, message)
            )
    return findings, len(factories)


def run_all(root=None):
    """Run every pass; returns ``(findings, checked)``."""
    from repro.analysis import simlint, stagelint

    findings, n_programs = _verify_builtins()
    checked = {PASS_XDP: n_programs}

    dead_findings, n_dead = _deadcode_builtins()
    findings.extend(dead_findings)
    checked[PASS_DEADCODE] = n_dead

    program = stagelint.build_program()
    findings.extend(stagelint.lint_hb(program))
    checked[PASS_HB] = len(stagelint.field_verdicts(program))

    sim_findings = simlint.lint_tree(root)
    findings.extend(sim_findings)
    checked[PASS_SIM] = _count_py_files(root)
    return findings, checked


def _count_py_files(root):
    import os

    if root is None:
        import repro

        root = os.path.dirname(repro.__file__)
    count = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        count += sum(1 for f in filenames if f.endswith(".py"))
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Data-path safety analyzer: XDP verifier, XDP dead-code lint, "
            "happens-before race lint, sim-process lint. Exit 0 when clean, "
            "1 on any finding (there is no baseline), 2 on a usage error."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON report (same as --format=json)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default=None,
        dest="fmt",
        help="output format: text (default), json, or github workflow annotations",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory tree for the sim-process pass (default: the installed repro package)",
    )
    args = parser.parse_args(argv)
    fmt = args.fmt or ("json" if args.json else "text")

    findings, checked = run_all(args.root)
    findings.sort(key=finding_sort_key)
    if fmt == "json":
        print(render_json(findings, checked))
    elif fmt == "github":
        print(render_github(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
