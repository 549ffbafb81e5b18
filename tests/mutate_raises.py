#!/usr/bin/env python3
"""Mutation sweep over the library's checks.

    python3 tests/mutate_raises.py [module ...]

Each ``raise`` statement in ``src/twobridge`` (or in the named modules,
such as ``morse``) is turned into ``pass``, one at a time, in a copy of
the repository made in a temporary directory.  The mutant then runs,
with ``pytest -x``, the test modules that import its module by name,
and, if it passes those, the whole suite.  A mutant that passes the
whole suite survives: its check is one that no test needs.  The
survivors are listed at the end, and the exit status is 1 if there are
any.  The sweep takes several minutes; it is run on demand, and pytest
does not collect this file.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that loops forever counts as killed


def raise_spans(source: str) -> list[tuple[int, int, int, int]]:
    """``(line, end line, column, end column)`` of every raise statement."""
    nodes = (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))
    return sorted((n.lineno, n.end_lineno, n.col_offset, n.end_col_offset) for n in nodes)


def mutate(source: str, span: tuple[int, int, int, int]) -> str:
    """``source`` with the raise statement at ``span`` replaced by ``pass``."""
    line, end_line, col, end_col = span
    lines = source.splitlines(keepends=True)
    lines[line - 1 : end_line] = [lines[line - 1][:col] + "pass" + lines[end_line - 1][end_col:]]
    return "".join(lines)


def importers(module: str, tests: Path) -> list[str]:
    """The test files that import ``twobridge.<module>`` by name."""
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module == f"twobridge.{module}"
                or (node.module == "twobridge" and any(alias.name in (module, "*") for alias in node.names))
            ):
                found.append(str(path.relative_to(tests.parent)))
                break
    return found


def passes(work: Path, paths: list[str]) -> bool:
    """Whether the tests at ``paths`` pass in the copy at ``work``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths]
    # no bytecode: two mutants of one size would share a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str]) -> int:
    modules = argv or sorted(path.stem for path in (ROOT / "src" / "twobridge").glob("*.py"))
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-raises-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        shutil.copy(ROOT / "README.md", work)  # tests/test_readme.py reads it
        if not passes(work, ["tests"]):
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        total = 0
        for module in modules:
            target = work / "src" / "twobridge" / f"{module}.py"
            source = target.read_text()
            first = importers(module, work / "tests")
            for span in raise_spans(source):
                total += 1
                target.write_text(mutate(source, span))
                alive = (not first or passes(work, first)) and passes(work, ["tests"])
                where = f"{module}.py:{span[0]}: {source.splitlines()[span[0] - 1].strip()}"
                print(("SURVIVED " if alive else "killed   ") + where, flush=True)
                if alive:
                    survivors.append(where)
            target.write_text(source)
    print(f"{len(survivors)} of {total} mutants survived")
    for where in survivors:
        print(f"  {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
