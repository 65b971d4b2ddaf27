"""The mutation tool's enumerator on a fixed snippet. The sweep itself
(``python tools/mutate.py MODULE ...``) takes an hour, so tier-1 only keeps
the enumerator from rotting; it runs no suite of its own."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SNIPPET = '''def f(a, b):
    """a + b < 3 * a - 1.5 == 0"""
    label = f"{a + 1 < b}"
    return a + b * 2 if a <= b != 0.5 else (a / b) - -1  # a > b
'''


def test_enumeration_is_deterministic_and_skips_strings():
    sites = mutate.mutants(SNIPPET)
    assert sites == mutate.mutants(SNIPPET)
    assert [(line, old, new) for line, _, old, new in sites] == [
        (4, "+", "-"), (4, "*", "/"), (4, "2", "3"), (4, "<=", "<"), (4, "!=", "=="),
        (4, "0.5", "1.5"), (4, "/", "*"), (4, "-", "+"), (4, "1", "2")]


def test_each_mutant_compiles_and_differs_only_at_its_site():
    for site in mutate.mutants(SNIPPET):
        line, column, old, new = site
        mutant = mutate.apply(SNIPPET, site)
        compile(mutant, "<mutant>", "exec")
        start = len("".join(SNIPPET.splitlines(keepends=True)[:line - 1])) + column
        assert SNIPPET[start:start + len(old)] == old
        assert mutant == SNIPPET[:start] + new + SNIPPET[start + len(old):]
