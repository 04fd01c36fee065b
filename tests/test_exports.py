"""Every public name that zdgraph exports has a caller in the library or is
documented in README.md; an export that neither calls nor documents is
surface that nothing keeps working."""

import inspect
import re
from pathlib import Path

import zdgraph as z

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "zdgraph").glob("*.py") if p.name != "__init__.py")


def _used_in_library(name: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
    return any(
        word.search(line) and not definition.match(line)
        for path in SOURCES
        for line in path.read_text().splitlines()
    )


def test_every_export_is_called_or_documented():
    readme = (ROOT / "README.md").read_text()
    public = [n for n in dir(z) if not n.startswith("_") and not inspect.ismodule(getattr(z, n))]
    uncalled = [
        n for n in public if not _used_in_library(n) and not re.search(rf"\b{re.escape(n)}\b", readme)
    ]
    assert uncalled == []
