"""List the lines of ``src/molstore`` that no test runs.

Run from anywhere, with the test dependencies installed:

    python tools/untested_lines.py              # the whole suite
    python tools/untested_lines.py tests/test_codec.py -k encode

Extra arguments go to pytest.  The tests run in this process under
``sys.settrace`` and ``threading.settrace``, and only frames of code in
``src/molstore`` are traced, so the rest of the suite runs at about its
usual speed.  For each module the script then prints the executable lines,
taken from the line tables of its code objects, that no test ran; ``def``,
``class``, decorator and docstring lines are left out, as they run on
import or not at all, and so is the body of an ``if __name__ ==
"__main__":`` block, which runs only as a script.  Tests that run
molstore in a child process (the CLI under ``subprocess``) are not
traced: a line only they reach is listed.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "molstore"


def _executable(path: Path) -> set[int]:
    """The lines of ``path`` that start an instruction of one of its code
    objects, less its def, class, decorator and docstring lines and the
    body of its ``if __name__ == "__main__":`` block."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    skipped: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skipped.add(node.lineno)
            for decorator in node.decorator_list:
                skipped.update(range(decorator.lineno, decorator.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                skipped.update(range(first.lineno, first.end_lineno + 1))
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skipped.update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines - skipped


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            "--rootdir", str(ROOT), *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit status {int(code)}; tests run in child processes are not traced.")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(_executable(path) - ran[str(path)])
        total += len(missed)
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} untested lines")
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"\n{total} untested lines in all")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
