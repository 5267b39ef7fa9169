"""Nothing nobody calls: every function and class defined in ``src/repro`` is
named somewhere else in the project.

A word-level scan of every ``.py`` file under ``src/``, ``tests/``,
``benchmarks/`` and ``examples/`` (this file aside): a definition counts as
referenced when its name occurs as a whole word more often than it is
defined (a call, an import, a subclass, a docstring cross-reference).
Dunder methods are called by the Python data model, and the allow-list
holds the protocol overrides the standard library calls by name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
#: ``http.server.BaseHTTPRequestHandler`` calls these by name.
ALLOWED = {"do_GET", "log_message"}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _words() -> Counter[str]:
    own = Path(__file__).resolve()
    return Counter(
        word
        for top in SCANNED
        for path in (ROOT / top).rglob("*.py")
        if path.resolve() != own
        for word in re.findall(r"\w+", path.read_text())
    )


def test_every_definition_in_src_is_referenced():
    words = _words()
    defined: Counter[str] = Counter()
    first_site: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, _DEFINITIONS):
                defined[node.name] += 1
                first_site.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    unreferenced = sorted(
        f"{first_site[name]} {name}"
        for name, count in defined.items()
        if words[name] <= count and not name.startswith("__") and name not in ALLOWED
    )
    assert not unreferenced, "defined in src/repro and named nowhere else:\n" + "\n".join(unreferenced)


def test_the_allow_list_is_still_needed():
    """An allowed name that gained a reference, or lost its definition,
    leaves the list."""
    words = _words()
    assert {name: words[name] for name in ALLOWED} == dict.fromkeys(ALLOWED, 1)
