"""The lines of the ``tmlat`` package that the Tier-1 suite never runs.

Run on demand from the repository root, kept out of Tier-1::

    PYTHONPATH=src python -m tests.coverage [pytest arguments]

It runs the suite in this process under a ``sys.settrace`` line
collector that follows only the package's frames, then prints each
executable line no test reached, less the lines in ``ALLOWED``, and
exits 1 if any is left.  A line is executable when the compiled module
maps bytecode to it.  A code object stops being traced once every one of
its lines has run.  Tracing still slows the suite several-fold, so tests
that bound wall time may fail under it; the report reads every line that
ran all the same.  The tracer does not follow subprocesses, so lines
that only a child process runs are allowlisted.
"""

from __future__ import annotations

import dis
import functools
import importlib.util
import sys
import types
from pathlib import Path

import pytest

# (module file, line, reason): an unrun line that reads ``line`` once
# stripped is not reported.  Tier-1 checks that each still occurs.  The
# CLI's entry point runs only in the subprocess tests.
ALLOWED = (
    ("cli.py", 'if hasattr(signal, "SIGPIPE"):', "console entry point"),
    ("cli.py", "signal.signal(signal.SIGPIPE, signal.SIG_DFL)",
     "console entry point"),
    ("cli.py", "sys.exit(main())", "console entry point"),
    ("cli.py", "run()", "runs under python -m tmlat.cli"),
)


def package_dir() -> Path:
    """The package's directory, found without importing the package."""
    return Path(importlib.util.find_spec("tmlat").origin).parent


@functools.cache
def line_starts(code: types.CodeType) -> frozenset[int]:
    return frozenset(n for _, n in dis.findlinestarts(code) if n)


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= line_starts(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def traced_run(root: str, args: list[str]) -> dict[str, set[int]]:
    """Run pytest with ``args``; the lines run in each file under ``root``."""
    hits: dict[types.CodeType, set[int]] = {}
    done: set[types.CodeType] = set()

    def local(frame, event, arg):
        seen = hits[frame.f_code]
        seen.add(frame.f_lineno)
        if event == "return" and line_starts(frame.f_code) <= seen:
            done.add(frame.f_code)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(root):
            return None
        hits.setdefault(code, set())
        return local

    if any(name == "tmlat" or name.startswith("tmlat.")
           for name in sys.modules):
        raise SystemExit("tmlat was imported before tracing began")
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    print(f"pytest exit status {int(status)}")
    ran: dict[str, set[int]] = {}
    for code, seen in hits.items():
        ran.setdefault(code.co_filename, set()).update(seen)
    return ran


def main(argv: list[str]) -> int:
    pkg = package_dir()
    ran = traced_run(str(pkg), ["-q", "--continue-on-collection-errors",
                                *argv])
    total = unrun = excused = 0
    for path in sorted(pkg.glob("*.py")):
        text = path.read_text().splitlines()
        allowed = {s for name, s, _ in ALLOWED if name == path.name}
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - ran.get(str(path), set())):
            if text[n - 1].strip() in allowed:
                excused += 1
                continue
            unrun += 1
            print(f"{path.name}:{n}: {text[n - 1].strip()}")
    print(f"{unrun} of {total} executable lines unrun "
          f"({excused} more allowlisted)")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
