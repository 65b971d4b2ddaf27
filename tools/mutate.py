"""Mutation sweep: run the tier-1 suite against one-site mutants of effdof modules.

    python tools/mutate.py src/effdof/estimators.py [more modules ...] > sweep.json

Each mutant changes one site of one module: a binary ``+``/``-`` or ``*``/``/``
swapped for its partner, a comparison ``<``/``<=``, ``>``/``>=`` or ``==``/``!=``
likewise, or a numeric constant ``c`` made ``c + 1``. Strings (docstrings and
f-strings among them) yield no mutant. The suite runs in a temporary copy of the
checkout, so nothing under the repository's ``src/`` is written, with
``--hypothesis-seed=0 -p no:cacheprovider``. The unmutated copy must pass first;
each mutant then gets five times that run's wall time, and a timeout counts as
a kill. Progress goes to stderr; stdout gets JSON with each module's counts and
each mutant's site, status (``killed``, ``timeout`` or ``survived``) and the node
id of every test that failed on it. Standard library only.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OPERATORS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
             ast.Div: ("/", "*"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
             ast.Gt: (">", ">="), ast.GtE: (">=", ">"), ast.Eq: ("==", "!="),
             ast.NotEq: ("!=", "==")}
SUITE = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
         "--hypothesis-seed=0", "-p", "no:cacheprovider"]


def _nodes(node: ast.AST):
    """``node`` and its descendants, leaving out f-strings."""
    if not isinstance(node, ast.JoinedStr):
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _nodes(child)


def mutants(source: str) -> list[tuple[int, int, str, str]]:
    """Every mutant of ``source`` in source order, as ``(line, column, old,
    new)``: the text ``old`` at the 1-based line and 0-based character column
    becomes ``new``."""
    lines = source.splitlines(keepends=True)
    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP]

    def position(line, byte):  # ast counts columns in UTF-8 bytes
        return line, len(lines[line - 1].encode()[:byte].decode())

    sites = set()
    for node in _nodes(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.Compare):
            pairs = zip([node.left, *node.comparators], node.ops, node.comparators)
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and node.value + 1 != node.value):
            line, column = position(node.lineno, node.col_offset)
            old = ast.get_source_segment(source, node)
            sites.add((line, column, old, repr(node.value + 1)))
            continue
        else:
            continue
        for left, op, right in pairs:
            if type(op) in OPERATORS:
                old, new = OPERATORS[type(op)]
                after = position(left.end_lineno, left.end_col_offset)
                before = position(right.lineno, right.col_offset)
                tok = next(t for t in ops if after <= t.start < before and t.string == old)
                sites.add((*tok.start, old, new))
    return sorted(sites)


def apply(source: str, site: tuple[int, int, str, str]) -> str:
    """``source`` with the one mutant ``site`` applied."""
    line, column, old, new = site
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[column:column + len(old)] == old, site
    lines[line - 1] = text[:column] + new + text[column + len(old):]
    return "".join(lines)


def run_suite(copy: Path, timeout: float | None) -> list[str] | None:
    """Node ids of the tests that fail in ``copy``, or None on a timeout."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no replayed failures
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(SUITE, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite's own subprocesses too
        proc.communicate()
        return None
    failed = sorted(set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)))
    return failed or ([f"pytest exit {proc.returncode}"] if proc.returncode else [])


def main(paths: list[str]) -> None:
    modules = [Path(p).resolve().relative_to(ROOT / "src") for p in paths]
    report = {"modules": {}, "mutants": []}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"))
        start = time.monotonic()
        if run_suite(copy, None):
            sys.exit("tier-1 fails on the unmutated copy")
        timeout = 5 * (time.monotonic() - start)
        for module in modules:
            target, source = copy / "src" / module, (ROOT / "src" / module).read_text()
            sites = mutants(source)
            for i, site in enumerate(sites, 1):
                target.write_text(apply(source, site))
                failed = run_suite(copy, timeout)
                status = "timeout" if failed is None else "killed" if failed else "survived"
                report["mutants"].append({"module": f"src/{module.as_posix()}",
                                          "line": site[0], "column": site[1], "old": site[2],
                                          "new": site[3], "status": status,
                                          "killers": failed or []})
                print(f"{module} {i}/{len(sites)} {site} {status}", file=sys.stderr, flush=True)
            target.write_text(source)
            statuses = [m["status"] for m in report["mutants"]
                        if m["module"] == f"src/{module.as_posix()}"]
            report["modules"][f"src/{module.as_posix()}"] = {
                "mutants": len(statuses), "survived": statuses.count("survived"),
                "killed": len(statuses) - statuses.count("survived")}
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main(sys.argv[1:])
