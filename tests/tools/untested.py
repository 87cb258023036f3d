"""``make untested``: the statements under ``src/repro`` that tier-1 never executes.

``coverage`` is not a dependency, so this is the standard library only:
each file's executable statements (from its AST: docstrings and
``def``/``class``/``import`` lines excluded), parsed before the run, a
``sys.settrace`` tracer that hands out a line tracer for frames whose
code lives under ``src/repro`` and for nothing else, one in-process
``pytest.main`` run, then the statements minus the lines that were hit.
Parsing first keeps a file edited during the run from reporting lines
shifted from those that ran. No threshold — the table is for reading.
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


def parse(package=PACKAGE):
    """``{path: statements(path)}`` for every ``.py`` file under ``package``, as it reads now."""
    return {
        os.path.join(dirpath, name): statements(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(package)
        for name in filenames
        if name.endswith(".py")
    }


def missed(parsed, hit):
    """``[(missed, of, path, [first lines never hit])]`` per file of
    ``parsed`` (from :func:`parse`) with a miss, ``hit`` being
    ``{path: lines executed}``."""
    rows = []
    for path, lines in parsed.items():
        seen = hit.get(path, set())
        never = sorted(line for line, span in lines.items() if seen.isdisjoint(span))
        if never:
            rows.append((len(never), len(lines), path, never))
    return rows


def main(argv):
    sys.dont_write_bytecode = True
    parsed = parse()
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

    rows = missed(parsed, hit)
    for count, of, path, never in sorted(rows, key=lambda row: (-row[0], row[2])):
        print("{:4d} / {:4d}  {}  {}".format(count, of, os.path.relpath(path, ROOT), " ".join(map(str, never))))
    total = sum(len(lines) for lines in parsed.values())
    print("{} of {} statements never executed".format(sum(row[0] for row in rows), total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
