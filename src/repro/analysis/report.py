"""Findings and report rendering for the analysis passes.

Every pass produces :class:`Finding` records; the CLI renders them as
human-readable text or a machine-readable JSON document (stable field
names, so CI and tooling can gate on them). Findings produced through
call-graph summaries carry a ``via`` call chain (caller first, writer
last) so a store attributed through helper indirection names the path
that reaches it.
"""

import json

PASS_XDP = "xdp-verifier"
PASS_DEADCODE = "xdp-deadcode"
PASS_HB = "hb-race"
PASS_SIM = "sim-process"

# v3: the deterministic finding sort (pass, path, line, code, message)
# within the document. Which passes run does not change the format.
REPORT_VERSION = 3


class Finding:
    """One analysis diagnostic, anchored to a file location."""

    __slots__ = ("pass_name", "path", "line", "code", "message", "via")

    def __init__(self, pass_name, path, line, code, message, via=()):
        self.pass_name = pass_name
        self.path = path
        self.line = int(line)
        self.code = code
        self.message = message
        # Call chain for summary-attributed findings: caller-qualname
        # first, writer-qualname last; empty for direct findings.
        self.via = tuple(via)

    def to_dict(self):
        return {
            "pass": self.pass_name,
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
            "via": list(self.via),
        }

    def __repr__(self):
        return "<Finding {} {}:{} {}>".format(self.code, self.path, self.line, self.message)

    def __eq__(self, other):
        return isinstance(other, Finding) and self.to_dict() == other.to_dict()


def finding_sort_key(finding):
    """Deterministic report order: (pass, path, line, code, message).

    Line alone is not a total order — two passes can anchor distinct
    findings to the same line — and an unstable tail order would make two
    runs over one tree print different reports.
    """
    return (finding.pass_name, finding.path, finding.line, finding.code, finding.message)


def render_text(findings):
    """Human-readable report, one line per finding."""
    return _render(findings, "{path}:{line}: [{pass_name}] {message}{via} ({code})")


def render_json(findings, checked=None):
    """Machine-readable report. ``checked`` maps pass name -> unit count."""
    by_pass = {}
    for finding in findings:
        by_pass[finding.pass_name] = by_pass.get(finding.pass_name, 0) + 1
    document = {
        "version": REPORT_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "summary": {"total": len(findings), "by_pass": by_pass, "checked": dict(checked or {})},
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_github(findings):
    """GitHub Actions workflow commands: one ``::warning`` per finding,
    so lint results surface inline on pull requests. (The syntax needs
    single-line messages; ours are.)"""
    return _render(findings, "::warning file={path},line={line},title={pass_name}::{message}{via} ({code})")


def _render(findings, template):
    lines = [
        template.format(path=f.path, line=f.line, pass_name=f.pass_name, message=f.message, code=f.code,
                        via=" [via {}]".format(" -> ".join(f.via)) if f.via else "")
        for f in findings
    ]
    count = len(findings)
    lines.append("repro lint: {} finding{}".format(count, "" if count == 1 else "s") if findings
                 else "repro lint: clean (0 findings)")
    return "\n".join(lines)

