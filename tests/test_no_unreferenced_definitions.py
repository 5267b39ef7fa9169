"""Nothing nobody calls: every function, class and method defined in
``src/repro`` is named somewhere else in the project.

A scan of every ``.py`` file under ``src/``, ``tests/``, ``benchmarks/`` and
``examples/`` (this file aside), by two rules:

* a function or class counts as referenced when its name occurs as a whole
  word more often than it is defined (a call, an import, a subclass, a
  docstring cross-reference);
* a method (a ``def`` in a class body) counts as referenced only when its
  name is read as an attribute, ``.name``, or passed as the string of a
  ``getattr`` / ``hasattr`` / ``setattr``.  A local variable, a keyword or a
  docstring that shares the word does not call it.  A ``.name`` of another
  type (``list.extend`` for a dead ``extend``) still counts: the scan has no
  types.  A name defined as a method anywhere takes this rule.

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
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ATTRIBUTE_BUILTINS = {"getattr", "hasattr", "setattr"}


def _sources() -> list[str]:
    own = Path(__file__).resolve()
    return [
        path.read_text()
        for top in SCANNED
        for path in (ROOT / top).rglob("*.py")
        if path.resolve() != own
    ]


def _attribute_names(tree: ast.AST) -> list[str]:
    """Names read as ``.name`` or passed as a ``getattr``-family string."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _ATTRIBUTE_BUILTINS and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
        ):
            names.append(node.args[1].value)
    return names


def _counts(sources: list[str]) -> tuple[Counter[str], Counter[str]]:
    """Whole-word counts, and attribute-name counts, over ``sources``."""
    words = Counter(word for text in sources for word in re.findall(r"\w+", text))
    attributes = Counter(name for text in sources for name in _attribute_names(ast.parse(text)))
    return words, attributes


def _unreferenced(defining: dict[str, str], sources: list[str]) -> list[str]:
    """``"<where>:<line> <name>"`` for each definition in ``defining`` (path
    -> text) that ``sources`` never reference, by the rules above."""
    words, attributes = _counts(sources)
    defined: Counter[str] = Counter()
    sites: dict[str, str] = {}
    methods: set[str] = set()
    for where, text in defining.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(m.name for m in node.body if isinstance(m, _FUNCTIONS))
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defined[node.name] += 1
                sites.setdefault(node.name, f"{where}:{node.lineno}")
    return sorted(
        f"{sites[name]} {name}"
        for name, count in defined.items()
        if not name.startswith("__") and name not in ALLOWED
        and (attributes[name] == 0 if name in methods else words[name] <= count)
    )


def test_every_definition_in_src_is_referenced():
    defining = {
        str(path.relative_to(ROOT)): path.read_text() for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    }
    unreferenced = _unreferenced(defining, _sources())
    assert not unreferenced, "defined in src/repro and named nowhere else:\n" + "\n".join(unreferenced)


def test_a_method_named_like_a_local_is_unreferenced():
    """The shape the word count let through: a method no one calls, whose
    name is also a local variable, a keyword and a docstring word."""
    text = (
        "class Program:\n"
        "    def all_buffers(self):\n"
        "        '''Every buffer: see all_buffers.'''\n"
        "        return []\n\n"
        "def analyse(program, all_buffers=None):\n"
        "    all_buffers = program.buffers\n"
        "    return all_buffers\n\n"
        "analyse(Program())\n"
    )
    assert _unreferenced({"m.py": text}, [text]) == ["m.py:2 all_buffers"]
    assert _unreferenced({"m.py": text}, [text + "Program().all_buffers()\n"]) == []


def test_the_allow_list_is_still_needed():
    """An allowed name that gained a reference, or lost its definition,
    leaves the list."""
    words, attributes = _counts(_sources())
    assert {name: (words[name], attributes[name]) for name in ALLOWED} == dict.fromkeys(ALLOWED, (1, 0))
