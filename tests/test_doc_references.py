"""Every repo-relative ``.md`` / ``.py`` path the code and docs cite exists.

Scans ``src/``, ``tests/``, ``benchmarks/``, ``tools/``, ``docs/`` and
``README.md`` for path-like tokens: anything ending in ``.md`` or ``.py``
that contains a ``/`` (``docs/engine.md``, ``repro/core/pipeline.py``), and
bare upper-case ``.md`` names, the convention for top-level documents
(``README.md``). A token resolves if it exists relative to the repo root,
``src/``, ``src/repro/`` or the citing file's directory. Bare lower-case
names are module or scratch-file names in prose and test data
(``pipeline.py``, ``mod.py``) and are not checked; ``path/to/...`` is a
placeholder, and this file's own scanner examples are skipped.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "tools", "docs")

_TOKEN = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.(?:md|py))(?![\w/])")
_TOP_LEVEL_DOC = re.compile(r"[A-Z][A-Z0-9_]*\.md")


def _cited_paths(text: str):
    for match in _TOKEN.finditer(text):
        token = match.group(1)
        if token.startswith("path/to/"):
            continue
        if "/" in token or _TOP_LEVEL_DOC.fullmatch(token):
            yield token


def _scanned_files():
    for top in SCANNED:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if (path.suffix in (".md", ".py")
                    and "__pycache__" not in path.parts
                    and path != Path(__file__).resolve()):
                yield path
    yield REPO_ROOT / "README.md"


def _dangling():
    bases = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")
    out = []
    for path in _scanned_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for token in _cited_paths(line):
                if not any((base / token).exists()
                           for base in (*bases, path.parent)):
                    rel = path.relative_to(REPO_ROOT)
                    out.append(f"{rel}:{lineno}: {token}")
    return out


def test_no_dangling_file_references():
    dangling = _dangling()
    assert not dangling, "cited paths that do not exist:\n" + "\n".join(
        dangling
    )


def test_scanner_flags_missing_and_accepts_existing():
    text = ("see DESIGN_NOTES.md, benchmarks/bench_gone.py and "
            "docs/engine.md; pipeline.py; path/to/file.py")
    assert list(_cited_paths(text)) == [
        "DESIGN_NOTES.md", "benchmarks/bench_gone.py", "docs/engine.md",
    ]
