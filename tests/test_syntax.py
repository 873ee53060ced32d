"""Every Python file of the project parses at the oldest Python version that
pyproject.toml declares (``requires-python``): a check of syntax only."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
OLDEST = tuple(
    int(n) for n in re.search(
        r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_oldest_version(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=OLDEST)
