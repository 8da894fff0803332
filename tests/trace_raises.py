"""Line trace of src/fireseg over a pytest run, in one process (opt-in; not a test module).

    PYTHONPATH=src python tests/trace_raises.py [pytest args, default: -q tests]

Prints how many executable lines of the package ran, and each `raise` with an
exception (a bare re-raise is not counted) that did not. A command run in a
subprocess (`run_cli`) is not traced.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fireseg"
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):  # only frames of the package get a line tracer
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _code_lines(code) -> set[int]:
    nested = (c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line for _, _, line in code.co_lines() if line} | set().union(*map(_code_lines, nested))


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    status = pytest.main(sys.argv[1:] or ["-q", "tests"])
    sys.settrace(None)
    threading.settrace(None)
    executable = missed = raises = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = _code_lines(compile(source, str(path), "exec"))
        executable += len(lines)
        missed += len({n for n in lines if (str(path), n) not in ran})
        sites = sorted(n.lineno for n in ast.walk(ast.parse(source))
                       if isinstance(n, ast.Raise) and n.exc is not None)
        raises += len(sites)
        for line in sites:
            if (str(path), line) not in ran:
                unrun += 1
                print(f"raise not run: {path.name}:{line}")
    print(f"executed lines: {executable - missed} of {executable}")
    print(f"raise sites not run: {unrun} of {raises}")
    sys.exit(status)
