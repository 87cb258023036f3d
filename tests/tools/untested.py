"""``make untested``: the statements under ``src/repro`` that tier-1 never executes.

``coverage`` is not a dependency, so this is the standard library only:
a ``sys.settrace`` tracer that hands out a line tracer for frames whose
code lives under ``src/repro`` and for nothing else, one in-process
``pytest.main`` run, then each file's executable statements (from its
AST: docstrings and ``def``/``class``/``import`` lines excluded) minus
the lines that were hit. No threshold — the table is for reading.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE = os.path.join(ROOT, "src", "repro")

_NOT_EXECUTED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
)


def statements(path):
    """``{first line: lines any of which, hit, means it executed}`` —
    a statement's own lines up to its body (the line event of a wrapped
    ``if (`` condition fires on its second line)."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_EXECUTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def main(argv):
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    hit = {}  # filename -> set of line numbers
    tracers = {}  # filename -> that file's line tracer

    def tracer_for(filename):
        lines = hit.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    sys.settrace(on_call)
    try:
        status = pytest.main(["-x", "-q", "-p", "no:cacheprovider"] + argv)
    finally:
        sys.settrace(None)

    rows, missed_total, total = [], 0, 0
    for dirpath, _, filenames in os.walk(PACKAGE):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            lines = statements(path)
            seen = hit.get(path, set())
            missed = sorted(line for line, span in lines.items() if seen.isdisjoint(span))
            total += len(lines)
            missed_total += len(missed)
            if missed:
                rows.append((len(missed), len(lines), os.path.relpath(path, ROOT), missed))
    for count, of, path, missed in sorted(rows, key=lambda row: (-row[0], row[2])):
        print("{:4d} / {:4d}  {}  {}".format(count, of, path, " ".join(map(str, missed))))
    print("{} of {} statements never executed".format(missed_total, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
