"""Which lines of src/gibbsline the CLI reaches, and which it never does.

Run from anywhere, with no arguments:

    python tests/line_trace.py

It runs, in this interpreter and with a line trace installed, the 35
invocations of `test_golden_digests.INVOCATIONS` and every invocation of
the benchmark's workloads `configs_small` and `large` at seed 1
(`perfbench/workloads.py`), 65 in all. Then it prints, for each function of
src/gibbsline (methods and nested functions too), how many of the
statements of its body ran (the docstring does not count) and the line
numbers of those that never did; a function whose every statement ran is
not printed. A line range a-b stands for the statements from line a to
line b, all unreached.

Pytest does not collect this file: it is a tool, not a test. Its run takes
a few seconds.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gibbsline"
SEED = 1
for path in (ROOT / "src", ROOT / "perfbench", ROOT / "tests"):
    sys.path.insert(0, str(path))

from gibbsline.cli import run_command  # noqa: E402

import workloads  # noqa: E402
from test_golden_digests import INVOCATIONS, config_path  # noqa: E402


def invocations(config_dir: Path) -> list[list[str]]:
    """The argv, without --out, of every traced invocation."""
    argvs = [[args[0], "--config", str(config_path(cfg)), *args[1:]] for cfg, args in INVOCATIONS]
    references = json.loads((ROOT / "perfbench" / "references.json").read_text(encoding="utf-8"))
    for name in ("configs_small", "large"):
        argvs += [list(inv.argv) for inv in workloads.build(name, SEED, ROOT, config_dir, references).invocations]
    return argvs


def traced_run(argvs: list[list[str]], out: Path) -> tuple[set[tuple[str, int]], collections.Counter]:
    """The (file, line) pairs of src/gibbsline that ran, and the count of each exit code."""
    ran: set[tuple[str, int]] = set()
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    codes: collections.Counter = collections.Counter()
    sink = io.StringIO()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        for i, argv in enumerate(argvs):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    codes[run_command(argv + ["--out", str(out / str(i))])] += 1
                except SystemExit as exc:
                    codes[exc.code] += 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran, codes


def functions(path: Path):
    """(qualified name, statement lines of the body without its docstring) of each function in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def own_statements(body):
        lines = []
        for stmt in body:
            lines.append(stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # its body is its own
            for field in ("body", "orelse", "finalbody"):
                lines += own_statements(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                lines += [handler.lineno] + own_statements(handler.body)
            for case in getattr(stmt, "cases", []):
                lines += own_statements(case.body)
        return lines

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(
                    body[0].value.value, str
                ):
                    body = body[1:]
                yield prefix + child.name, sorted(set(own_statements(body)))
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def ranges(lines: list[int], missed: set[int]) -> str:
    """The runs of consecutive statements in missed, as 'a-b' or 'a'."""
    runs: list[list[int]] = []
    for prev, line in zip([None] + lines, lines):
        if line in missed:
            if runs and prev == runs[-1][-1]:
                runs[-1].append(line)
            else:
                runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main() -> int:
    os.chdir(ROOT)  # the workloads name the shipped configs relative to the checkout
    with tempfile.TemporaryDirectory() as tmp:
        config_dir = Path(tmp) / "configs"
        config_dir.mkdir()
        argvs = invocations(config_dir)
        ran, codes = traced_run(argvs, Path(tmp) / "runs")
    print(f"{len(argvs)} invocations, exit codes " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    for path in sorted(SRC.glob("*.py")):
        reached = {line for name, line in ran if name == str(path)}
        for name, lines in functions(path):
            missed = set(lines) - reached
            if missed:
                print(f"{path.name}:{name} {len(lines) - len(missed)} of {len(lines)} ran; never: {ranges(lines, missed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
