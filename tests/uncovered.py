"""Statement lines of ``src/thermobounds`` that no in-process run reaches.

Usage::

    python tests/uncovered.py

It runs the checkout it sits in (its ``src/`` comes first on the path).  It
installs a ``sys.settrace`` line tracer on the package's source files,
runs the tier-1 suite in this process (``pytest.main`` on ``tests/``, with
``--continue-on-collection-errors``; ``tests/test_corpus.py`` runs the
corpus of ``tests/corpus.py`` there), and prints every statement whose lines
it never executed, as ``path:line: source``, then one count per file.  The
``coverage`` package is not needed.  pytest does not collect this file.

Only this process's main thread is traced.  Lines that run only in a
subprocess, such as those of ``__main__.py`` and the ``sys.exit(main())``
under ``cli.py``'s ``if __name__ == "__main__":``, which the tests reach
only through ``python -m thermobounds``, show as missed.  The script exits
1 when it reports any other missed statement, and 0 otherwise.

A statement is one ``ast`` statement: for a compound statement (``if``,
``for``, ``def``, ...) its header lines, else all its lines.  It counts when
the compiled module has code on one of those lines (a docstring, or a
``try:`` line, has none) and is missed when the tracer saw none of them run.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "thermobounds"
sys.path.insert(0, str(SRC.parent))


def _code_lines(code) -> set[int]:
    """Every line that has bytecode in ``code`` or in a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines that count as the statement's) of every statement in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found.append((node.lineno, range(first, max(first, last) + 1)))
    return sorted(found)


def _trace(executed: dict):
    """A ``sys.settrace`` function that records the lines run in the package's files."""
    wanted = {str(path): executed.setdefault(str(path), set()) for path in SRC.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    return trace


def _subprocess_only(name: str, text: str) -> bool:
    """Whether a statement runs only in a ``python -m thermobounds`` subprocess."""
    return name == "__main__.py" or (name, text) == ("cli.py", "sys.exit(main())")


def main() -> int:
    import pytest

    executed: dict[str, set[int]] = {}
    trace = _trace(executed)
    sys.settrace(trace)
    try:
        pytest.main([str(TESTS), "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    counts, unexpected = [], 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        has_code = _code_lines(compile(source, str(path), "exec"))
        ran = executed[str(path)]
        statements = [(line, span) for line, span in _statements(source) if has_code.intersection(span)]
        missed = [line for line, span in statements if not ran.intersection(span)]
        name = path.relative_to(TESTS.parent)
        for line in missed:
            text = lines[line - 1].strip()
            print(f"{name}:{line}: {text}")
            unexpected += not _subprocess_only(path.name, text)
        counts.append(f"{name}: {len(missed)} of {len(statements)} statements missed")
    print("\n".join(counts))
    print(f"{unexpected} missed statements outside the subprocess-only lines")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
