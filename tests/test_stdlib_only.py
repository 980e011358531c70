"""The package declares no dependencies: `src/capdom` imports only the
standard library and itself.  Each name has one import path, the module
that defines it, so a module loads only the capdom modules it uses."""
from __future__ import annotations

import ast
import json
import os
import subprocess
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


def test_package_root_loads_and_binds_nothing():
    probe = (
        "import json, sys\n"
        "import capdom\n"
        "public = sorted(name for name in vars(capdom) if not name.startswith('_'))\n"
        "import capdom.core\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'capdom')\n"
        "print(json.dumps([public, loaded]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    public, loaded = json.loads(out.stdout)
    assert public == []  # no re-exports such as solve_td, baker_solve or GreedyResult
    assert loaded == ["capdom", "capdom.core"]
