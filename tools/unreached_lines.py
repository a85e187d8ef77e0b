"""Fail on a line of ``src/brakesteer`` that no test runs.

Runs the tier-1 tests and the benchmark's tests in this process under a
``sys.settrace`` line tracer.  Exits with pytest's code if a test fails, else
1 if an executable line of ``src/brakesteer/*.py`` (a line its compiled code
objects name) never ran and ``ALLOWED`` does not name it.  Lines run only in
child processes count as unreached.

    PYTHONPATH=src python tools/unreached_lines.py
"""

import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The lines no test reaches, each as its file and stripped source text.
ALLOWED = Counter([
    ("analysis.py", "from .simulator import Trace"),  # under TYPE_CHECKING
    ("cli.py", 'print(f"warning: {msg}")'),  # no scenario yet draws a validate warning
    ("cli.py", "sys.exit(main())"),  # under the __main__ guard
    ("path_geometry.py", "return u"),  # _tangent_root, after its 60 iterations
])


def executable(path):
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main():
    reached = {str(p): set() for p in sorted((ROOT / "src" / "brakesteer").glob("*.py"))}

    def trace(frame, event, arg):
        seen = reached.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", "perfbench"])
    sys.settrace(None)
    threading.settrace(None)
    if status:
        return status
    missed = []
    for name, seen in reached.items():
        path = Path(name)
        text = path.read_text().splitlines()
        for n in sorted(executable(path) - seen):
            key = (path.name, text[n - 1].strip())
            if ALLOWED[key]:
                ALLOWED[key] -= 1
            else:
                missed.append(f"{path.relative_to(ROOT)}:{n}: {key[1]}")
    print(f"{len(missed)} unreached lines not on the list", *missed, sep="\n")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
