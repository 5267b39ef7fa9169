"""Drift guard: DESIGN.md's system inventory names exactly the modules in the tree."""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_PACKAGE = re.compile(r"`(repro/[a-z0-9_/]+/)`")
_MODULE = re.compile(r"`([a-z0-9_/]+\.py)`")


def _inventory_section() -> str:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]


def _named_modules() -> set[pathlib.Path]:
    """Every ``*.py`` a table row names: a bare name is relative to the
    row's package, a ``repro/...`` path to ``src``."""
    named: set[pathlib.Path] = set()
    for row in _inventory_section().splitlines():
        if not row.startswith("| ") or row.startswith("| System"):
            continue
        package = _PACKAGE.search(row)
        for name in _MODULE.findall(row):
            if name.startswith("repro/"):
                named.add(pathlib.Path(name))
            else:
                assert package, f"bare module {name!r} in a row with no package: {row}"
                named.add(pathlib.Path(package.group(1)) / name)
    return named


def _tree_modules() -> set[pathlib.Path]:
    src = ROOT / "src"
    return {
        path.relative_to(src)
        for path in (src / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_named_module_exists():
    assert _named_modules() - _tree_modules() == set(), "named in DESIGN.md §3, not in the tree"


def test_every_module_is_named():
    assert _tree_modules() - _named_modules() == set(), "in the tree, missing from DESIGN.md §3"
