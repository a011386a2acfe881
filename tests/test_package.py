"""The package's public surface: every exported name exists, and the README's import works."""

import re
from pathlib import Path

import zsections

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in zsections.__all__ if not hasattr(zsections, name)]
    assert not missing, f"zsections.__all__ names missing attributes: {missing}"
    assert len(set(zsections.__all__)) == len(zsections.__all__)


def test_readme_library_import_block_imports():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(from zsections import \(.*?\)\n)", library, re.S)
    assert block, "README's Library section has no `from zsections import (...)` block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert "scan_zeros" in namespace
