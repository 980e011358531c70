"""The package declares no dependencies: `src/capdom` imports only the
standard library and itself."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "capdom"


def test_src_imports_only_stdlib_and_capdom():
    allowed = set(sys.stdlib_module_names) | {"capdom"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert not outside
